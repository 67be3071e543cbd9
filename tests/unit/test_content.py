"""Tests for content signatures and the reference-counted store."""

from __future__ import annotations

import hashlib

import pytest

from repro.content.signature import ContentSignature, sign
from repro.content.store import ContentStore
from repro.errors import CacheEntryNotFoundError


class TestSignature:
    def test_sign_is_md5(self):
        assert sign(b"abc").digest == hashlib.md5(b"abc").hexdigest()

    def test_equal_bytes_equal_signature(self):
        assert sign(b"hello") == sign(b"hello")

    def test_different_bytes_different_signature(self):
        assert sign(b"hello") != sign(b"hellO")

    def test_short_prefix(self):
        signature = sign(b"x")
        assert signature.short == signature.digest[:8]

    def test_str_prefix(self):
        assert str(sign(b"x")).startswith("md5:")


def put_bytes(store, content: bytes) -> ContentSignature:
    """Store *content* the way both stores accept it."""
    return store.put_signed(content, sign(content))


class ContentStoreContract:
    """The reference-counting contract every content store keeps.

    Run once per implementation: a subclass supplies the ``store``
    fixture and the error a missing signature raises.  The in-memory
    :class:`ContentStore` runs it below, the durable
    ``DiskContentStore`` in ``tests/storage/test_disk_store.py``
    (``TestRefcounts``).
    """

    #: What ``get``/``adopt``/``release``/``size_of`` raise when absent.
    missing_error: type[Exception]

    def test_put_and_get(self, store):
        signature = put_bytes(store, b"payload")
        assert signature == sign(b"payload")
        assert store.get(signature) == b"payload"

    def test_put_duplicate_deduplicates(self, store):
        first = put_bytes(store, b"shared")
        held = store.physical_bytes
        second = put_bytes(store, b"shared")
        assert first == second
        assert len(store) == 1
        assert store.physical_bytes == held
        assert store.refcount(first) == 2

    def test_physical_vs_logical_bytes(self, store):
        put_bytes(store, b"x" * 100)
        put_bytes(store, b"x" * 100)
        put_bytes(store, b"y" * 50)
        assert store.physical_bytes == 150
        assert store.logical_bytes == 250

    def test_release_decrements_and_evicts_at_zero(self, store):
        signature = put_bytes(store, b"data")
        put_bytes(store, b"data")
        store.release(signature)
        assert signature in store
        assert store.logical_bytes == 4
        store.release(signature)
        assert signature not in store
        assert store.refcount(signature) == 0
        assert len(store) == 0
        assert store.physical_bytes == 0

    def test_adopt_adds_reference(self, store):
        signature = put_bytes(store, b"data")
        store.adopt(signature)
        assert store.refcount(signature) == 2
        assert store.logical_bytes == 8

    def test_adopt_missing_raises(self, store):
        with pytest.raises(self.missing_error):
            store.adopt(ContentSignature("0" * 32))

    def test_get_missing_raises(self, store):
        with pytest.raises(self.missing_error):
            store.get(sign(b"never stored"))

    def test_release_missing_raises(self, store):
        with pytest.raises(self.missing_error):
            store.release(sign(b"never stored"))

    def test_size_of(self, store):
        signature = put_bytes(store, b"12345")
        assert store.size_of(signature) == 5
        with pytest.raises(self.missing_error):
            store.size_of(sign(b"never stored"))

    def test_refcount_of_missing_is_zero(self, store):
        assert store.refcount(sign(b"missing")) == 0
        assert sign(b"missing") not in store
        assert len(store) == 0

    def test_mismatched_signature_rejected(self, store):
        with pytest.raises(AssertionError):
            store.put_signed(b"content", sign(b"other content"))
        assert len(store) == 0


class TestContentStore(ContentStoreContract):
    missing_error = CacheEntryNotFoundError

    @pytest.fixture
    def store(self):
        return ContentStore()

    def test_put_signs_the_content_itself(self, store):
        signature = store.put(b"payload")
        assert signature == sign(b"payload")
        assert store.put(b"payload") == signature
        assert store.refcount(signature) == 2

    def test_contents_are_copied_defensively(self, store):
        data = bytearray(b"mutable")
        signature = store.put(bytes(data))
        data[0] = ord("X")
        assert store.get(signature) == b"mutable"
