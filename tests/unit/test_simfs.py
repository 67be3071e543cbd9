"""Tests for the simulated filer."""

from __future__ import annotations

import pytest

from repro.errors import ContentUnavailableError, ProviderError
from repro.providers.simfs import SimulatedFileSystem
from repro.sim.clock import VirtualClock


@pytest.fixture
def fs():
    return SimulatedFileSystem(VirtualClock())


class TestWriteRead:
    def test_write_then_read(self, fs):
        fs.write("/a/b.txt", b"content")
        assert fs.read("/a/b.txt") == b"content"

    def test_write_replaces(self, fs):
        fs.write("/f", b"one")
        fs.write("/f", b"two")
        assert fs.read("/f") == b"two"

    def test_append_creates_and_extends(self, fs):
        fs.append("/log", b"a")
        fs.append("/log", b"b")
        assert fs.read("/log") == b"ab"

    def test_read_missing_raises(self, fs):
        with pytest.raises(ContentUnavailableError):
            fs.read("/missing")

    def test_paths_are_normalized(self, fs):
        fs.write("//a///b.txt/", b"x")
        assert fs.read("/a/b.txt") == b"x"
        assert fs.exists("a/b.txt")

    def test_every_spelling_of_a_path_finds_one_record(self, fs):
        # Canonical paths are looked up as given, the rest normalized
        # first: the same record, and the same errors, either way.
        fs.write("/a/b.txt", b"x")
        record = fs.stat("/a/b.txt")
        for spelling in ("a/b.txt", "//a//b.txt/", "/a/b.txt/"):
            assert fs.stat(spelling) is record
        with pytest.raises(ContentUnavailableError, match="/a/c.txt$"):
            fs.mtime_ms("a//c.txt")
        with pytest.raises(ProviderError, match="invalid path"):
            fs.read("///")

    def test_empty_path_raises(self, fs):
        with pytest.raises(ProviderError):
            fs.write("", b"x")


class TestTimestamps:
    def test_mtime_tracks_clock(self):
        clock = VirtualClock()
        fs = SimulatedFileSystem(clock)
        fs.write("/f", b"v1")
        clock.advance(100.0)
        fs.write("/f", b"v2")
        assert fs.mtime_ms("/f") == 100.0

    def test_ctime_preserved_across_writes(self):
        clock = VirtualClock()
        fs = SimulatedFileSystem(clock)
        fs.write("/f", b"v1")
        clock.advance(50.0)
        fs.write("/f", b"v2")
        record = fs.stat("/f")
        assert record.ctime_ms == 0.0
        assert record.writes == 2

    def test_stat_size(self, fs):
        fs.write("/f", b"12345")
        assert fs.stat("/f").size == 5


class TestNamespace:
    def test_mkdir_and_is_dir(self, fs):
        fs.mkdir("/x/y/z")
        assert fs.is_dir("/x")
        assert fs.is_dir("/x/y")
        assert fs.is_dir("/x/y/z")

    def test_root_is_dir(self, fs):
        assert fs.is_dir("/")

    def test_write_creates_parent_dirs(self, fs):
        fs.write("/deep/nested/file", b"x")
        assert fs.is_dir("/deep/nested")

    def test_listdir_immediate_children_only(self, fs):
        fs.write("/d/one", b"")
        fs.write("/d/two", b"")
        fs.write("/d/sub/three", b"")
        assert fs.listdir("/d") == ["one", "sub", "two"]

    def test_listdir_root(self, fs):
        fs.write("/top", b"")
        assert "top" in fs.listdir("/")

    def test_listdir_missing_raises(self, fs):
        with pytest.raises(ContentUnavailableError):
            fs.listdir("/nowhere")

    def test_remove(self, fs):
        fs.write("/f", b"x")
        fs.remove("/f")
        assert not fs.exists("/f")

    def test_remove_missing_raises(self, fs):
        with pytest.raises(ContentUnavailableError):
            fs.remove("/f")

    def test_rename_preserves_record(self):
        clock = VirtualClock()
        fs = SimulatedFileSystem(clock)
        fs.write("/old", b"data")
        clock.advance(10.0)
        fs.rename("/old", "/new/location")
        assert not fs.exists("/old")
        assert fs.read("/new/location") == b"data"
        assert fs.mtime_ms("/new/location") == 0.0  # rename keeps mtime

    def test_rename_missing_raises(self, fs):
        with pytest.raises(ContentUnavailableError):
            fs.rename("/a", "/b")

    def test_files_sorted(self, fs):
        fs.write("/b", b"")
        fs.write("/a", b"")
        assert fs.files() == ["/a", "/b"]

    def test_total_bytes(self, fs):
        fs.write("/a", b"xx")
        fs.write("/b", b"yyy")
        assert fs.total_bytes == 5
