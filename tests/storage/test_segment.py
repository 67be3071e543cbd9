"""Segment-log framing: CRC skips, torn tails, the durable watermark."""

from __future__ import annotations

import pytest

from repro.errors import StorageError
from repro.storage import K_CONTENT, K_DEMOTE, SegmentLog
from repro.storage.segment import HEADER_SIZE, pack_record, unpack_record


def _frame(payload: bytes) -> int:
    """The length of the frame that holds *payload*."""
    return HEADER_SIZE + len(payload)


class TestFraming:
    def test_append_read_round_trip(self, tmp_path):
        log = SegmentLog(tmp_path / "t.seg")
        first = log.append(K_CONTENT, b"alpha")
        second = log.append(K_DEMOTE, b"beta")
        assert log.read(first, _frame(b"alpha")) == (K_CONTENT, b"alpha")
        assert log.read(second, _frame(b"beta")) == (K_DEMOTE, b"beta")

    def test_a_read_of_the_wrong_length_raises(self, tmp_path):
        log = SegmentLog(tmp_path / "t.seg")
        offset = log.append(K_CONTENT, b"alpha")
        log.append(K_CONTENT, b"beta")
        for length in (_frame(b"alpha") - 1, _frame(b"alpha") + 1, 3):
            with pytest.raises(StorageError):
                log.read(offset, length)

    def test_scan_returns_records_in_order(self, tmp_path):
        log = SegmentLog(tmp_path / "t.seg")
        log.append(K_CONTENT, b"one")
        log.append(K_CONTENT, b"two")
        records, corrupt = log.scan_records()
        assert corrupt == 0
        assert [(k, p) for k, p, _ in records] == [
            (K_CONTENT, b"one"), (K_CONTENT, b"two"),
        ]

    def test_pack_unpack_record_round_trip(self):
        fields = (
            b"content \x00 with zeros", "naïve \ud800", None, ("a", ""),
            -7, 0.1, True,
        )
        payload = pack_record(*fields)
        assert tuple(unpack_record("bsotqd?", payload)) == fields

    def test_unpack_record_raises_on_truncation(self):
        payload = pack_record("meta", b"content")
        with pytest.raises(StorageError):
            unpack_record("sb", payload[:-3])

    @pytest.mark.parametrize("fields", [
        ("meta", "not bytes"), ("meta",), ("meta", b"x", b"y"),
        (b"meta", b"x"),
    ])
    def test_unpack_record_raises_on_another_shape(self, fields):
        with pytest.raises(StorageError):
            unpack_record("sb", pack_record(*fields))

    @pytest.mark.parametrize("code, value", [
        ("q", True), ("q", 1.0), ("?", 1), ("o", b"x"), ("t", ("a", 1)),
        ("t", ["a"]), ("d", "0.5"), ("d", 1),
    ])
    def test_unpack_record_checks_each_field_type(self, code, value):
        with pytest.raises(StorageError):
            unpack_record(code, pack_record(value))


class TestDurability:
    def test_crash_truncates_to_durable_watermark(self, tmp_path):
        log = SegmentLog(tmp_path / "t.seg")
        log.append(K_CONTENT, b"kept")
        log.sync()
        log.append(K_CONTENT, b"lost-with-the-page-cache")
        assert log.durable_size < log.size
        log.crash()
        records, _ = log.scan_records()
        assert [p for _, p, _ in records] == [b"kept"]

    def test_lying_fsync_does_not_advance_watermark(self, tmp_path):
        log = SegmentLog(tmp_path / "t.seg")
        log.append(K_CONTENT, b"kept")
        log.sync()
        log.append(K_CONTENT, b"fsync-lied")
        log.sync(lost=True)
        assert log.durable_size < log.size
        log.crash()
        records, _ = log.scan_records()
        assert [p for _, p, _ in records] == [b"kept"]

    def test_reopened_log_trusts_on_disk_bytes(self, tmp_path):
        path = tmp_path / "t.seg"
        log = SegmentLog(path)
        log.append(K_CONTENT, b"persisted")
        log.sync()
        fresh = SegmentLog(path)
        records, corrupt = fresh.scan_records()
        assert corrupt == 0
        assert [p for _, p, _ in records] == [b"persisted"]


class TestDamage:
    def test_corrupt_record_skipped_and_counted(self, tmp_path):
        log = SegmentLog(tmp_path / "t.seg")
        log.append(K_CONTENT, b"good-one")
        log.append(K_CONTENT, b"garbled-in-flight", corrupt=True)
        log.append(K_CONTENT, b"good-two")
        records, corrupt = log.scan_records()
        assert corrupt == 1
        assert log.corrupt_skips == 1
        # The scan steps over the damaged frame and keeps later records.
        assert [p for _, p, _ in records] == [b"good-one", b"good-two"]

    def test_corrupt_record_fails_point_read(self, tmp_path):
        log = SegmentLog(tmp_path / "t.seg")
        offset = log.append(K_CONTENT, b"garbled", corrupt=True)
        with pytest.raises(StorageError):
            log.read(offset, _frame(b"garbled"))

    def test_torn_tail_truncated_on_scan(self, tmp_path):
        path = tmp_path / "t.seg"
        log = SegmentLog(path)
        log.append(K_CONTENT, b"whole")
        log.sync()
        with open(path, "ab") as handle:
            handle.write(b"PL\x01")  # a partial header: torn mid-append
        fresh = SegmentLog(path)
        records, corrupt = fresh.scan_records()
        assert corrupt == 0
        assert fresh.torn_truncations == 1
        assert [p for _, p, _ in records] == [b"whole"]
        # The file itself was healed: a second scan is clean.
        records, _ = fresh.scan_records()
        assert fresh.torn_truncations == 1
        assert [p for _, p, _ in records] == [b"whole"]

    def test_garbage_magic_truncates(self, tmp_path):
        path = tmp_path / "t.seg"
        log = SegmentLog(path)
        log.append(K_CONTENT, b"whole")
        with open(path, "ab") as handle:
            handle.write(b"XX" + b"\x00" * 20)
        records, _ = log.scan_records()
        assert log.torn_truncations == 1
        assert [p for _, p, _ in records] == [b"whole"]


class TestCompaction:
    def test_replace_with_rewrites_atomically(self, tmp_path):
        log = SegmentLog(tmp_path / "t.seg")
        log.append(K_CONTENT, b"dead")
        log.append(K_CONTENT, b"live")
        before = log.size
        offsets = log.replace_with([(K_CONTENT, b"live")])
        assert log.size < before
        assert log.durable_size == log.size
        live = log.read(offsets[0], _frame(b"live"))
        assert live == (K_CONTENT, b"live")
        records, corrupt = log.scan_records()
        assert corrupt == 0
        assert [p for _, p, _ in records] == [b"live"]

    def test_append_after_replace_lands_in_the_live_file(self, tmp_path):
        # Compaction swaps a new inode in under the path; an append into
        # the held descriptor of the old one would vanish on reopen.
        path = tmp_path / "t.seg"
        log = SegmentLog(path)
        log.append(K_CONTENT, b"dead")
        log.replace_with([(K_CONTENT, b"live")])
        offset = log.append(K_CONTENT, b"after")
        assert log.read(offset, _frame(b"after")) == (K_CONTENT, b"after")
        records, corrupt = SegmentLog(path).scan_records()
        assert corrupt == 0
        assert [p for _, p, _ in records] == [b"live", b"after"]


class TestDescriptor:
    def test_crash_truncates_through_the_held_descriptor(self, tmp_path):
        path = tmp_path / "t.seg"
        log = SegmentLog(path)
        log.append(K_CONTENT, b"kept")
        log.sync()
        log.append(K_CONTENT, b"lost")
        log.crash()
        assert path.stat().st_size == log.durable_size == log.size
        offset = log.append(K_CONTENT, b"next")  # appends at the watermark
        records, _ = SegmentLog(path).scan_records()
        assert [(p, o) for _, p, o in records] == [
            (b"kept", 0), (b"next", offset),
        ]

    def test_close_twice_is_harmless(self, tmp_path):
        log = SegmentLog(tmp_path / "t.seg")
        log.append(K_CONTENT, b"x")
        log.close()
        log.close()

    def test_read_or_append_after_close_raises(self, tmp_path):
        log = SegmentLog(tmp_path / "t.seg")
        offset = log.append(K_CONTENT, b"x")
        log.close()
        with pytest.raises(StorageError):
            log.read(offset, _frame(b"x"))
        with pytest.raises(StorageError):
            log.append(K_CONTENT, b"y")
