"""Tests for the invalidation vocabulary and cache entries."""

from __future__ import annotations

import pytest

from repro.cache.entry import CacheEntry, EntryKey
from repro.content.signature import sign
from repro.contract.cacheability import Cacheability
from repro.contract.consistency import (
    Invalidation,
    InvalidationClass,
    InvalidationReason,
)
from repro.ids import DocumentId, UserId


class TestReasonClassMapping:
    def test_class_one_reasons(self):
        for reason in (
            InvalidationReason.SOURCE_UPDATED_IN_BAND,
            InvalidationReason.SOURCE_UPDATED_OUT_OF_BAND,
            InvalidationReason.OPENED_FOR_WRITE,
        ):
            assert reason.invalidation_class is InvalidationClass.SOURCE_MODIFIED

    def test_class_two_reasons(self):
        for reason in (
            InvalidationReason.PROPERTY_ADDED,
            InvalidationReason.PROPERTY_REMOVED,
            InvalidationReason.PROPERTY_MODIFIED,
        ):
            assert (
                reason.invalidation_class
                is InvalidationClass.PROPERTIES_CHANGED
            )

    def test_class_three_reason(self):
        assert (
            InvalidationReason.PROPERTY_REORDERED.invalidation_class
            is InvalidationClass.PROPERTY_ORDER_CHANGED
        )

    def test_class_four_reason(self):
        assert (
            InvalidationReason.EXTERNAL_CHANGED.invalidation_class
            is InvalidationClass.EXTERNAL_DEPENDENCY_CHANGED
        )

    def test_bookkeeping_reasons(self):
        for reason in (
            InvalidationReason.EVICTED,
            InvalidationReason.EXPLICIT,
            InvalidationReason.LOCAL_WRITE,
            InvalidationReason.VERIFIER_FAILED,
        ):
            assert reason.invalidation_class is InvalidationClass.BOOKKEEPING


class TestInvalidationMatching:
    def test_user_scoped_matches_only_that_user(self):
        invalidation = Invalidation(
            reason=InvalidationReason.PROPERTY_ADDED,
            document_id=DocumentId("d"),
            user_id=UserId("alice"),
        )
        assert invalidation.matches(DocumentId("d"), UserId("alice"))
        assert not invalidation.matches(DocumentId("d"), UserId("bob"))

    def test_unscoped_matches_all_users(self):
        invalidation = Invalidation(
            reason=InvalidationReason.SOURCE_UPDATED_IN_BAND,
            document_id=DocumentId("d"),
        )
        assert invalidation.matches(DocumentId("d"), UserId("anyone"))

    def test_other_document_never_matches(self):
        invalidation = Invalidation(
            reason=InvalidationReason.SOURCE_UPDATED_IN_BAND,
            document_id=DocumentId("d"),
        )
        assert not invalidation.matches(DocumentId("other"), UserId("u"))


def make_entry() -> CacheEntry:
    return CacheEntry(
        key=EntryKey(DocumentId("d"), UserId("u")),
        signature=sign(b"content"),
        size=7,
        cacheability=Cacheability.UNRESTRICTED,
        verifiers=[],
        replacement_cost_ms=1.0,
        chain_signature=("t1",),
        reference_id=None,
        created_at_ms=0.0,
        last_access_ms=0.0,
    )


class TestCacheEntry:
    def test_touch_updates_access(self):
        entry = make_entry()
        entry.touch(42.0)
        assert entry.last_access_ms == 42.0
        assert entry.access_count == 2

    def test_entry_is_a_fixed_record(self):
        # Slotted: nothing can hang scratch state on an entry.
        entry = make_entry()
        assert not hasattr(entry, "__dict__")
        with pytest.raises(AttributeError):
            entry.policy_state = {}

    def test_key_accessors(self):
        entry = make_entry()
        assert entry.document_id == DocumentId("d")
        assert entry.user_id == UserId("u")
