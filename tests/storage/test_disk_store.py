"""Disk content store: the shared refcount contract, then what only a
disk can do — verification, compaction, recovery."""

from __future__ import annotations

import pytest

from repro.content.signature import sign
from repro.errors import StorageError
from repro.storage import DiskContentStore
from tests.unit.test_content import ContentStoreContract, put_bytes


class TestRefcounts(ContentStoreContract):
    """The in-memory store's refcount contract, kept on disk."""

    missing_error = StorageError

    @pytest.fixture
    def store(self, tmp_path):
        return DiskContentStore(tmp_path / "c.seg")

    def test_duplicate_put_appends_no_second_frame(self, store):
        put_bytes(store, b"shared bytes")
        before = store.log.size
        put_bytes(store, b"shared bytes")
        assert store.log.size == before


class TestReads:
    def test_corrupt_write_detected_at_read(self, tmp_path):
        store = DiskContentStore(tmp_path / "c.seg")
        content = b"garbled on the way down"
        signature = sign(content)
        store.put_signed(content, signature, corrupt=True)
        with pytest.raises(StorageError):
            store.get(signature)


class TestRecovery:
    def test_reopen_rebuilds_index_with_zero_refcounts(self, tmp_path):
        path = tmp_path / "c.seg"
        store = DiskContentStore(path)
        signature = put_bytes(store, b"survives reopen")
        store.sync()
        fresh = DiskContentStore(path)
        assert signature in fresh
        assert fresh.refcount(signature) == 0  # owners re-adopt
        assert fresh.get(signature) == b"survives reopen"

    def test_crash_loses_unsynced_content(self, tmp_path):
        store = DiskContentStore(tmp_path / "c.seg")
        durable = put_bytes(store, b"synced")
        store.sync()
        volatile = put_bytes(store, b"never synced")
        store.crash()
        assert durable in store
        assert volatile not in store

    def test_crash_rebuild_drops_corrupt_slots(self, tmp_path):
        store = DiskContentStore(tmp_path / "c.seg")
        good = put_bytes(store, b"good")
        bad_content = b"bad bytes, bad disk"
        store.put_signed(bad_content, sign(bad_content), corrupt=True)
        store.sync()
        dropped_before = store.corrupt_dropped
        store.crash()
        assert good in store
        assert sign(bad_content) not in store
        assert store.corrupt_dropped == dropped_before + 1


class TestCompaction:
    def test_compact_frees_dead_bytes_and_keeps_live_reads(self, tmp_path):
        store = DiskContentStore(tmp_path / "c.seg")
        dead = put_bytes(store, b"x" * 256)
        live = put_bytes(store, b"y" * 64)
        store.release(dead)
        freed = store.compact()
        assert freed > 0
        assert store.get(live) == b"y" * 64
        assert dead not in store

    def test_compact_preserves_refcounts(self, tmp_path):
        store = DiskContentStore(tmp_path / "c.seg")
        live = put_bytes(store, b"kept across the rewrite")
        store.adopt(live)
        store.compact()
        assert store.refcount(live) == 2
        store.release(live)
        assert live in store
