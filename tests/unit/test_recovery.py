"""Unit tests for the consistency-recovery layer.

Covers the four mechanisms the recovery manager coordinates: sequenced
channels with inline gap detection, renewal-time checkpoint comparison
(trailing losses), AFS-style lease renewal/lapse with anti-entropy
resync attributed to the paper's consistency classes, and the
crash-recovery write-back journal.
"""

from __future__ import annotations

import pytest

from repro.cache.entry import EntryKey
from repro.cache.manager import DocumentCache
from repro.cache.pipeline import WriteMode
from repro.cache.policies import DefaultRecoveryPolicy
from repro.cache.recovery import NotifierLease, WriteBackJournal
from repro.errors import CacheError, NotificationLostError, NotifierError
from repro.faults.plan import FaultPlan, OutageWindow
from repro.placeless.kernel import PlacelessKernel
from repro.properties.translate import TranslationProperty
from repro.providers.memory import MemoryProvider
from repro.sim.context import SimContext

LEASE_MS = 2_000.0


class _DropPlan(FaultPlan):
    """Deterministically drop the first *n* notifier deliveries."""

    def __init__(self, clock, drops: int):
        super().__init__(clock)
        self.drops_left = drops

    def notifier_disposition(self, target):
        if self.drops_left > 0:
            self.drops_left -= 1
            self.stats.notifications_lost += 1
            self._record("bus", "drop", target)
            return "drop", 0.0
        return "deliver", 0.0


def _deployment(plan_factory=None, recovery=True, **cache_kwargs):
    ctx = SimContext()
    if plan_factory is not None:
        ctx.faults = plan_factory(ctx.clock)
    kernel = PlacelessKernel(ctx)
    reader = kernel.create_user("reader")
    writer = kernel.create_user("writer")
    provider = MemoryProvider(ctx, b"v1")
    reader_ref = kernel.import_document(reader, provider, "doc")
    writer_ref = kernel.space(writer).add_reference(reader_ref.base, "doc-w")
    cache_kwargs.setdefault("use_verifiers", False)
    cache = DocumentCache(
        kernel,
        capacity_bytes=1 << 20,
        recovery_policy=(
            DefaultRecoveryPolicy(lease_term_ms=LEASE_MS)
            if recovery else None
        ),
        **cache_kwargs,
    )
    return kernel, cache, reader_ref, writer_ref, provider


class TestErrors:
    def test_notification_lost_is_a_notifier_error(self):
        assert issubclass(NotificationLostError, NotifierError)

    def test_lease_lapses_at_expiry(self):
        lease = NotifierLease.grant(100.0, now_ms=0.0)
        assert not lease.lapsed(50.0)
        assert lease.lapsed(100.0)

    def test_lease_renew_extends_expiry(self):
        lease = NotifierLease.grant(100.0, now_ms=0.0)
        lease.renew(80.0)
        assert not lease.lapsed(150.0)
        assert lease.expires_at_ms == 180.0


class TestSequencing:
    def test_bus_stamps_epoch_and_sequence(self):
        kernel, cache, reader_ref, writer_ref, _ = _deployment()
        cache.read(reader_ref)
        checkpoint = cache.bus.channel_checkpoint(cache.cache_id)
        assert checkpoint is not None and checkpoint[0] == 1
        kernel.write(writer_ref, b"v2")
        after = cache.bus.channel_checkpoint(cache.cache_id)
        # The write's notifications consumed sequence numbers.
        assert after[1] > checkpoint[1]

    def test_unsequenced_cache_gets_no_channel(self):
        kernel, cache, reader_ref, _, _ = _deployment(recovery=False)
        cache.read(reader_ref)
        assert cache.bus.channel_checkpoint(cache.cache_id) is None

    def test_inline_gap_detection_on_sequence_jump(self):
        kernel, cache, reader_ref, writer_ref, _ = _deployment(
            plan_factory=lambda clock: _DropPlan(clock, drops=1)
        )
        cache.read(reader_ref)
        # First notification dropped, the next delivered: the receiver
        # sees the sequence jump and flags the channel suspect.
        kernel.write(writer_ref, b"v2")
        stats = cache.recovery_stats
        assert stats.gaps_detected == 1
        assert stats.notifications_missed >= 1
        assert cache.recovery.suspect

    def test_dropped_sequence_numbers_are_consumed(self):
        kernel, cache, reader_ref, writer_ref, _ = _deployment(
            plan_factory=lambda clock: _DropPlan(clock, drops=10**9)
        )
        cache.read(reader_ref)
        expected_before = cache.recovery._expected
        kernel.write(writer_ref, b"v2")
        # Nothing arrived, so the receiver expectation is unchanged ...
        assert cache.recovery._expected == expected_before
        # ... but the send-side high-water mark moved on.
        checkpoint = cache.bus.channel_checkpoint(cache.cache_id)
        assert checkpoint[1] > expected_before[1]


class TestLeaseAndResync:
    def test_renewals_happen_at_half_term(self):
        kernel, cache, reader_ref, _, _ = _deployment()
        kernel.ctx.clock.advance(LEASE_MS * 2.5)
        assert cache.recovery_stats.lease_renewals >= 4
        assert cache.recovery_stats.lease_lapses == 0

    def test_partition_blocks_renewal_until_lapse_then_resyncs(self):
        kernel, cache, reader_ref, writer_ref, _ = _deployment(
            plan_factory=lambda clock: FaultPlan(
                clock, bus_outages=(OutageWindow(0.0, 3 * LEASE_MS),)
            )
        )
        cache.read(reader_ref)
        kernel.write(writer_ref, b"v2")  # swallowed by the partition
        assert cache.read(reader_ref).content == b"v1"  # provably stale
        kernel.ctx.clock.advance(3 * LEASE_MS)
        stats = cache.recovery_stats
        assert stats.lease_renewals_blocked >= 1
        assert stats.lease_lapses >= 1
        assert stats.resyncs >= 1
        assert cache.read(reader_ref).content == b"v2"

    def test_trailing_loss_caught_by_checkpoint_at_renewal(self):
        kernel, cache, reader_ref, writer_ref, _ = _deployment(
            plan_factory=lambda clock: _DropPlan(clock, drops=10**9)
        )
        cache.read(reader_ref)
        kernel.write(writer_ref, b"v2")  # every notification lost
        assert cache.read(reader_ref).content == b"v1"
        kernel.ctx.clock.advance(LEASE_MS)  # first renewal tick
        stats = cache.recovery_stats
        assert stats.checkpoint_gaps == 1
        assert stats.resyncs == 1
        assert cache.read(reader_ref).content == b"v2"

    def test_resync_attributes_source_change_to_class_1(self):
        kernel, cache, reader_ref, _, provider = _deployment()
        cache.read(reader_ref)
        provider.mutate_out_of_band(b"changed behind everyone's back")
        cache.resync()
        assert cache.recovery_stats.repairs_by_class == {1: 1}

    def test_resync_attributes_property_change_to_class_2(self):
        kernel, cache, reader_ref, _, _ = _deployment()
        cache.read(reader_ref)
        # Attaching a transforming property changes the chain signature;
        # suppress the notifier delivery so only the resync can see it.
        cache.bus.unregister(cache.cache_id)
        reader_ref.attach(TranslationProperty())
        assert cache.resync() == 1
        assert cache.recovery_stats.repairs_by_class == {2: 1}

    def test_resync_on_clean_cache_repairs_nothing(self):
        kernel, cache, reader_ref, _, _ = _deployment()
        cache.read(reader_ref)
        assert cache.resync() == 0
        assert cache.recovery_stats.repairs_by_class == {}
        # The entry survived the resync.
        assert len(cache) == 1

    def test_resync_bumps_the_channel_epoch(self):
        kernel, cache, reader_ref, _, _ = _deployment()
        cache.read(reader_ref)
        before = cache.bus.channel_checkpoint(cache.cache_id)
        cache.resync()
        after = cache.bus.channel_checkpoint(cache.cache_id)
        assert after == (before[0] + 1, 1)
        assert not cache.recovery.suspect

    def test_resync_requires_a_recovery_policy(self):
        kernel, cache, reader_ref, _, _ = _deployment(recovery=False)
        with pytest.raises(CacheError):
            cache.resync()


class TestJournal:
    def test_replay_restores_latest_unflushed_per_key(self):
        journal = WriteBackJournal()
        key = EntryKey("doc", "user")
        journal.append(key, "ref", b"first")
        journal.append(key, "ref", b"second")
        dirty = {}
        assert journal.replay_into(dirty) == (1, 0)
        assert dirty[key] == ("ref", b"second")

    def test_replay_is_idempotent(self):
        journal = WriteBackJournal()
        key = EntryKey("doc", "user")
        journal.append(key, "ref", b"bytes")
        dirty = {}
        assert journal.replay_into(dirty) == (1, 0)
        assert journal.replay_into(dirty) == (0, 1)
        assert dirty[key] == ("ref", b"bytes")

    def test_mark_flushed_retires_all_records_for_the_key(self):
        journal = WriteBackJournal()
        key = EntryKey("doc", "user")
        journal.append(key, "ref", b"first")
        journal.append(key, "ref", b"second")
        assert journal.mark_flushed(key)
        assert len(journal) == 0
        assert journal.replay_into({}) == (0, 0)

    def test_replay_order_is_first_unflushed_order(self):
        journal = WriteBackJournal()
        first, second = EntryKey("a", "user"), EntryKey("b", "user")
        journal.append(first, "ref-a", b"a1")
        journal.append(second, "ref-b", b"b1")
        journal.append(first, "ref-a", b"a2")
        assert list(journal.pending) == [first, second]
        journal.mark_flushed(first)
        journal.append(first, "ref-a", b"a3")
        dirty = {}
        assert journal.replay_into(dirty) == (2, 0)
        assert list(dirty.items()) == [
            (second, ("ref-b", b"b1")), (first, ("ref-a", b"a3")),
        ]

    def test_flushed_writes_leave_the_journal(self):
        # Replay reads only what is unflushed, so a flushed write must not
        # stay behind: the journal of a cache that flushes what it writes
        # stays empty however long it runs.
        _, cache, reader_ref, _, _ = _deployment(
            write_mode=WriteMode.WRITE_BACK
        )
        for index in range(1_000):
            cache.write(reader_ref, b"write %d" % index)
            cache.flush(reader_ref)
        assert len(cache.recovery.journal) == 0
        assert cache.recovery_stats.journal_appends == 1_000
        assert cache.recovery_stats.journal_flush_marks == 1_000


class TestCrashRestart:
    def _writeback(self, recovery=True):
        return _deployment(
            recovery=recovery, write_mode=WriteMode.WRITE_BACK
        )

    def test_acknowledged_write_survives_crash_byte_identically(self):
        kernel, cache, reader_ref, _, provider = self._writeback()
        cache.write(reader_ref, b"precious bytes")
        cache.crash()
        assert cache.dirty_count == 0
        assert cache.restart() == 1
        assert cache.dirty_count == 1
        cache.flush_all()
        assert provider.peek() == b"precious bytes"

    def test_flushed_write_is_not_replayed(self):
        kernel, cache, reader_ref, _, provider = self._writeback()
        cache.write(reader_ref, b"already safe")
        cache.flush(reader_ref)
        cache.crash()
        assert cache.restart() == 0

    def test_crash_without_journal_loses_unflushed_writes(self):
        kernel, cache, reader_ref, _, provider = self._writeback(
            recovery=False
        )
        cache.write(reader_ref, b"doomed")
        cache.crash()
        assert cache.restart() == 0
        assert cache.dirty_count == 0
        assert provider.peek() == b"v1"

    def test_crash_discards_entries_without_invalidation_traffic(self):
        kernel, cache, reader_ref, _, _ = self._writeback()
        cache.read(reader_ref)
        invalidations_before = dict(cache.stats.invalidations)
        cache.crash()
        assert len(cache) == 0
        assert cache.used_bytes == 0
        assert dict(cache.stats.invalidations) == invalidations_before

    def test_fault_plan_schedules_the_crash(self):
        ctx = SimContext()
        ctx.faults = FaultPlan(ctx.clock, cache_crashes=(500.0,))
        kernel = PlacelessKernel(ctx)
        user = kernel.create_user("u")
        reference = kernel.import_document(
            user, MemoryProvider(ctx, b"v1"), "doc"
        )
        cache = DocumentCache(
            kernel, 1 << 20, write_mode=WriteMode.WRITE_BACK,
            use_verifiers=False,
            recovery_policy=DefaultRecoveryPolicy(lease_term_ms=LEASE_MS),
        )
        cache.write(reference, b"ack")
        ctx.clock.advance(600.0)
        stats = cache.recovery_stats
        assert stats.crashes == 1 and stats.restarts == 1
        assert cache.dirty_count == 1  # replayed by the restart
        cache.flush_all()
        assert reference.base.provider.peek() == b"ack"

    def test_restart_resyncs_and_releases(self):
        kernel, cache, reader_ref, _, _ = self._writeback()
        cache.read(reader_ref)
        cache.crash()
        resyncs_before = cache.recovery_stats.resyncs
        cache.restart()
        assert cache.recovery_stats.resyncs == resyncs_before + 1
        # The cache is fully usable again after restart.
        assert cache.read(reader_ref).content == b"v1"


class TestDefaultOffEquivalence:
    def test_no_recovery_means_no_recovery_surface(self):
        kernel, cache, reader_ref, _, _ = _deployment(recovery=False)
        cache.read(reader_ref)
        assert cache.recovery is None
        assert cache.recovery_stats is None

    def test_recovery_stats_never_touch_cache_stats(self):
        kernel, cache, reader_ref, writer_ref, _ = _deployment(
            plan_factory=lambda clock: _DropPlan(clock, drops=10**9)
        )
        cache.read(reader_ref)
        kernel.write(writer_ref, b"v2")
        kernel.ctx.clock.advance(LEASE_MS)
        # Recovery machinery ran (checkpoint gap + resync) ...
        assert cache.recovery_stats.resyncs >= 1
        # ... and CacheStats still has no recovery fields at all.
        assert not any(
            "lease" in name or "resync" in name or "journal" in name
            for name in vars(cache.stats)
        )
