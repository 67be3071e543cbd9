"""Consistency recovery: leases, sequenced channels, resync, journal.

The notifier architecture of §3 has a silent failure mode the paper
acknowledges but the base machinery cannot see: a notification that is
*lost* leaves the cache entry it should have killed alive until a
verifier happens to catch it — and entries without verifiers stay stale
forever.  A crash has the write-back twin: buffered dirty writes the
application believes durable vanish with the cache's memory.  This
module closes both holes with three cooperating mechanisms, all opt-in
via a :class:`~repro.cache.policies.RecoveryPolicy` (a cache built
without one behaves byte-identically to the pre-recovery code):

* **Sequenced invalidation channels** — the bus stamps every delivery
  attempt to a recovery-enabled cache with a per-(server, cache)
  ``(epoch, sequence)`` pair; :class:`ConsistencyRecoveryManager`
  interposes on the cache's sink and flags the channel *suspect* the
  moment an arriving sequence number jumps (a loss happened in
  transit).  Trailing losses — where no later delivery ever arrives to
  expose the jump — are caught at lease renewal by comparing the
  receiver's expectation against the bus's send-side high-water mark.
* **AFS-style leases** on the notifier registration, renewed at half
  the lease term on the virtual clock.  A renewal that cannot reach the
  bus (partition window) leaves the lease to lapse, which is itself
  treated as evidence of missed invalidations: the channel was dark, so
  anything could have happened.
* **Anti-entropy resync** — when the channel is suspect or the lease
  lapsed, every cached entry is reconciled against live server state
  and divergent entries are dropped with an invalidation *attributed to
  the paper's consistency class* that explains the divergence (source
  modified / properties changed / property order changed / external
  dependency changed).  The resync then starts a fresh channel epoch,
  so prior losses are forgotten and sequencing restarts clean.
* **A write-back journal** — every buffered dirty write is journalled
  before the write is acknowledged, and a flush retires it; a crash
  wipes the entry table and dirty buffer, and restart replays each
  key's latest unflushed write back into the dirty buffer idempotently
  (double replay restores nothing twice, and a later flush pushes each
  write exactly once).  It is the one journal: with a storage policy
  the L2 tier mirrors its appends and flush marks to ``journal.seg``
  and loads that segment into it once, when the cache opens its
  directory, for the same replay.

Everything observable is reported as a stage event (``channel``,
``lease``, ``resync``, ``journal``, ``crash``) through the cache's
``emit``, beside the :class:`RecoveryStats` counter it decides.  Those
counters are deliberately *separate* from
:class:`~repro.cache.stats.CacheStats` so the golden-digest equivalence
tests keep pinning the legacy counters unchanged.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.contract.consistency import Invalidation, InvalidationReason
from repro.contract.verifiers import Verdict
from repro.errors import NotificationLostError, PlacelessError
from repro.placeless.chain import read_plan
from repro.placeless.reference import DocumentReference
from repro.sim.clock import ScheduledCall

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.cache.core import CacheCore
    from repro.cache.entry import CacheEntry, EntryKey
    from repro.cache.policies import RecoveryPolicy

__all__ = [
    "NotifierLease",
    "WriteBackJournal",
    "RecoveryStats",
    "ConsistencyRecoveryManager",
]


@dataclass
class NotifierLease:
    """One lease on a cache's notifier registration.

    The server promises to deliver invalidations only while the lease is
    live; a cache holding a lapsed lease must assume it missed
    notifications (the AFS callback-with-timeout contract).
    """

    term_ms: float
    granted_at_ms: float
    expires_at_ms: float

    @classmethod
    def grant(cls, term_ms: float, now_ms: float) -> "NotifierLease":
        """Issue a fresh lease starting now."""
        return cls(
            term_ms=term_ms,
            granted_at_ms=now_ms,
            expires_at_ms=now_ms + term_ms,
        )

    def renew(self, now_ms: float) -> None:
        """Extend the lease a full term from *now*."""
        self.expires_at_ms = now_ms + self.term_ms

    def lapsed(self, now_ms: float) -> bool:
        """True once the lease has expired un-renewed."""
        return now_ms >= self.expires_at_ms


class WriteBackJournal:
    """The acknowledged-but-unflushed write-backs, for crash recovery.

    A write is journalled *before* it is acknowledged to the
    application, so "acknowledged" implies "journalled".  Replay needs
    only each key's latest unflushed ``(reference, bytes)``, in the
    order the keys first became unflushed, so that is all the journal
    holds: :attr:`pending`, assigned on append (a later write to a key
    supersedes the earlier one in place) and deleted when a flush
    reaches the server.  Re-appending the same bytes — the duplicated
    tail an fsync-lost spill retry leaves — changes nothing, and replay
    skips keys already dirty, so double replay is a no-op.
    """

    def __init__(self) -> None:
        self.pending: dict[
            "EntryKey", tuple["DocumentReference", bytes]
        ] = {}

    def __len__(self) -> int:
        return len(self.pending)

    def append(
        self,
        key: "EntryKey",
        reference: "DocumentReference",
        content: bytes,
    ) -> None:
        """Journal one buffered write before it is acknowledged."""
        self.pending[key] = (reference, bytes(content))

    def mark_flushed(self, key: "EntryKey") -> int:
        """A flush for *key* reached the server: retire its write.
        Returns 1 when the key was unflushed, else 0."""
        return 0 if self.pending.pop(key, None) is None else 1

    def replay_into(self, dirty: dict) -> tuple[int, int]:
        """Restore unflushed writes into a (post-crash) dirty buffer.

        Returns ``(replayed, skipped)``: keys already dirty are skipped,
        so replaying twice restores nothing twice.
        """
        replayed = 0
        skipped = 0
        for key, buffered in self.pending.items():
            if key in dirty:
                skipped += 1
                continue
            dirty[key] = buffered
            replayed += 1
        return replayed, skipped


@dataclass
class RecoveryStats:
    """Counters for the recovery layer.

    Deliberately separate from :class:`~repro.cache.stats.CacheStats`:
    the pipeline-equivalence tests pin a digest over the legacy counter
    set, and recovery must not perturb it.
    """

    lease_grants: int = 0
    lease_renewals: int = 0
    lease_renewals_blocked: int = 0
    lease_lapses: int = 0
    #: Inline sequence-jump gaps vs. gaps only the renewal-time
    #: checkpoint comparison exposed (trailing losses).
    gaps_detected: int = 0
    checkpoint_gaps: int = 0
    #: Total notifications proven missing across both detection paths.
    notifications_missed: int = 0
    late_deliveries: int = 0
    epoch_bumps: int = 0
    resyncs: int = 0
    resync_repairs: int = 0
    #: Repairs attributed to the paper's consistency classes (1-4).
    repairs_by_class: dict[int, int] = field(default_factory=dict)
    journal_appends: int = 0
    journal_flush_marks: int = 0
    journal_replayed: int = 0
    journal_replays_skipped: int = 0
    crashes: int = 0
    restarts: int = 0


class ConsistencyRecoveryManager:
    """Per-cache coordinator for leases, gap detection, resync, journal.

    Sits between the invalidation bus and the cache's normal sink:
    deliveries pass through :meth:`receive` (which tracks the sequence
    stream) on their way to ``apply_invalidation``.  A self-rescheduling
    virtual-clock callback renews the lease at half-term intervals; a
    renewal that finds the channel suspect — or that could not run
    because the bus was partitioned and the lease lapsed — triggers
    :meth:`resync`.
    """

    def __init__(self, core: "CacheCore", policy: "RecoveryPolicy") -> None:
        self.core = core
        self.policy = policy
        self.stats = core.metrics["recovery"] = RecoveryStats()
        self.journal = WriteBackJournal()
        #: Live references for cached entries, so resync can reconcile
        #: against server state without a directory lookup.
        self._references: dict["EntryKey", "DocumentReference"] = {}
        #: True once a gap (inline or checkpoint) was detected and not
        #: yet repaired by a resync.
        self.suspect = False
        self.lease: NotifierLease | None = None
        self._tick_handle: "ScheduledCall | None" = None
        self._down = False
        channel = core.bus.enable_sequencing(core.cache_id)
        #: Receiver-side (epoch, next expected sequence) for the channel.
        self._expected = (channel.epoch, channel.next_sequence)
        core.emit("channel", "sequenced")
        self._grant_lease()

    # -- lease lifecycle -------------------------------------------------------

    def _grant_lease(self) -> None:
        now = self.core.ctx.clock.now_ms
        self.lease = NotifierLease.grant(self.policy.lease_term_ms, now)
        self.stats.lease_grants += 1
        self.core.emit(
            "lease", "granted", expires_at_ms=self.lease.expires_at_ms
        )
        self._schedule_tick()

    def _schedule_tick(self) -> None:
        """Queue the next half-term renewal tick on the virtual clock."""
        self._tick_handle = self.core.ctx.clock.call_after(
            self.policy.lease_term_ms / 2.0, self._lease_tick
        )

    def _lease_tick(self) -> None:
        """Renew the lease; detect trailing losses; resync if due."""
        if self._down:
            return
        core = self.core
        now = core.ctx.clock.now_ms
        lease = self.lease
        assert lease is not None
        lapsed = False
        stats = self.stats
        plan = core.ctx.faults
        if plan is not None and plan.bus_partitioned(str(core.cache_id)):
            # The renewal cannot reach the bus.  The lease keeps its old
            # expiry; once that passes, the channel was provably dark.
            stats.lease_renewals_blocked += 1
            core.emit("lease", "blocked")
            if lease.lapsed(now):
                lapsed = True
                stats.lease_lapses += 1
                core.emit("lease", "lapsed", expired_at_ms=lease.expires_at_ms)
        else:
            if lease.lapsed(now):
                # Expired between ticks (e.g. while the cache was busy
                # past the expiry or after a long partition ended).
                lapsed = True
                stats.lease_lapses += 1
                core.emit("lease", "lapsed", expired_at_ms=lease.expires_at_ms)
            lease.renew(now)
            stats.lease_renewals += 1
            core.emit("lease", "renewed", expires_at_ms=lease.expires_at_ms)
            self._checkpoint_compare()
        if self.suspect or lapsed:
            self.resync()
        self._schedule_tick()

    def _checkpoint_compare(self) -> None:
        """Compare our expectation against the bus's high-water mark.

        Piggybacked on successful renewals; this is what catches a
        *trailing* loss, where the dropped notification was the last one
        sent and no later delivery exists to expose the sequence jump.
        """
        checkpoint = self.core.bus.channel_checkpoint(self.core.cache_id)
        if checkpoint is None:
            return
        epoch, next_sequence = checkpoint
        expected_epoch, expected_sequence = self._expected
        if epoch == expected_epoch and next_sequence > expected_sequence:
            missed = next_sequence - expected_sequence
            self.stats.checkpoint_gaps += 1
            self.stats.notifications_missed += missed
            self.core.emit(
                "channel", "checkpoint-gap",
                missed=missed,
                expected=expected_sequence,
                high_water=next_sequence,
            )
            self._expected = (epoch, next_sequence)
            self.suspect = True

    # -- delivery interposition ------------------------------------------------

    def receive(self, invalidation: "Invalidation") -> None:
        """Bus sink: track the sequence stream, then apply normally."""
        if invalidation.epoch is not None and invalidation.sequence is not None:
            self._note_sequence(invalidation.epoch, invalidation.sequence)
        self.core.apply_invalidation(invalidation)

    def _note_sequence(self, epoch: int, sequence: int) -> None:
        core = self.core
        expected_epoch, expected_sequence = self._expected
        if epoch < expected_epoch:
            # A delayed delivery from before the last resync's epoch
            # bump; the resync already reconciled whatever it reported.
            self.stats.late_deliveries += 1
            core.emit("channel", "late", epoch=epoch, sequence=sequence)
            return
        if epoch > expected_epoch:
            # Should not happen (epoch bumps are receiver-initiated),
            # but treat a surprise epoch as a total loss of tracking.
            self.stats.gaps_detected += 1
            self.stats.notifications_missed += sequence
            core.emit(
                "channel", "gap",
                missed=sequence,
                expected=0,
                received=sequence,
                error=str(
                    NotificationLostError(
                        f"unexpected channel epoch {epoch} "
                        f"(expected {expected_epoch})"
                    )
                ),
            )
            self._expected = (epoch, sequence + 1)
            self.suspect = True
            return
        if sequence == expected_sequence:
            self._expected = (epoch, sequence + 1)
            return
        if sequence < expected_sequence:
            # Duplicate or out-of-order late arrival within the epoch.
            self.stats.late_deliveries += 1
            core.emit("channel", "late", epoch=epoch, sequence=sequence)
            return
        missed = sequence - expected_sequence
        self.stats.gaps_detected += 1
        self.stats.notifications_missed += missed
        core.emit(
            "channel", "gap",
            missed=missed,
            expected=expected_sequence,
            received=sequence,
            error=str(
                NotificationLostError(
                    f"sequence jumped {expected_sequence} -> {sequence}: "
                    f"{missed} notification(s) lost in transit"
                )
            ),
        )
        self._expected = (epoch, sequence + 1)
        self.suspect = True

    # -- anti-entropy resync ---------------------------------------------------

    def note_reference(
        self, key: "EntryKey", reference: "DocumentReference"
    ) -> None:
        """Fill hook: remember the live reference behind an entry."""
        self._references[key] = reference

    def resync(
        self,
        doomed: "typing.Callable[[CacheEntry], InvalidationReason | None]"
        " | None" = None,
    ) -> int:
        """Reconcile every cached entry against live server state.

        Divergent entries are dropped with an invalidation attributed to
        the paper consistency class that explains the divergence; the
        channel then starts a fresh epoch.  Returns the repair count.

        *doomed* generalizes the sweep for the cluster layer: evaluated
        before the divergence checks, a non-``None`` reason drops the
        entry through the same repair path with that attribution.  Ring
        rebalancing and shard loss hand in a predicate condemning
        entries whose keys no longer place on this shard, so topology
        repair reuses anti-entropy instead of growing a second path.
        """
        core = self.core
        stats = self.stats
        stats.resyncs += 1
        core.emit("resync", "started", entries=len(core.entries))
        # A resync runs because this cache suspects it missed
        # invalidations — the memo's records are under the same
        # suspicion, so none of them may answer a miss afterwards.
        core.memo_purge("resync")
        repairs = 0
        for key, entry in list(core.entries.items()):
            reason = doomed(entry) if doomed is not None else None
            if reason is None:
                reference = self._reference_for(entry)
                if reference is None:
                    continue
                reason = self._divergence(reference, entry)
            if reason is None:
                continue
            core.drop(entry, reason, origin="resync")
            cls = reason.invalidation_class.value
            stats.resync_repairs += 1
            stats.repairs_by_class[cls] = stats.repairs_by_class.get(cls, 0) + 1
            core.emit(
                "resync", "repaired", key=key,
                reason=reason.value,
                invalidation_class=cls,
            )
            self._references.pop(key, None)
            repairs += 1
        epoch, next_sequence = core.bus.bump_epoch(core.cache_id)
        self._expected = (epoch, next_sequence)
        stats.epoch_bumps += 1
        core.emit("channel", "epoch", epoch=epoch)
        self.suspect = False
        core.emit("resync", "completed", repairs=repairs)
        return repairs

    def _reference_for(
        self, entry: "CacheEntry"
    ) -> "DocumentReference | None":
        reference = self._references.get(entry.key)
        if reference is not None:
            return reference
        try:
            reference = self.core.kernel.space(entry.key.user_id).get(
                entry.reference_id
            )
        except PlacelessError:
            # The reference (or its whole space) is gone; there is no
            # server state left to reconcile against.
            return None
        self._references[entry.key] = reference
        return reference

    def _divergence(
        self, reference: "DocumentReference", entry: "CacheEntry"
    ) -> InvalidationReason | None:
        """Why this entry diverges from server state, or ``None``.

        Checks in class order: the transformation chain first (classes
        2/3 — same signatures reordered is class 3, anything else class
        2), the raw source next (class 1, the out-of-band case a lost
        in-band notification also degenerates to), verifiers last
        (class 4, or class 1 for source-labelled verifiers).
        """
        core = self.core
        expected_chain = read_plan(reference).chain_signature
        if expected_chain != entry.chain_signature:
            if sorted(expected_chain) == sorted(entry.chain_signature):
                return InvalidationReason.PROPERTY_REORDERED
            return InvalidationReason.PROPERTY_MODIFIED
        recorded_source = entry.source_signature
        if (
            recorded_source is not None
            and reference.base.provider.peek_signature() != recorded_source
        ):
            return InvalidationReason.SOURCE_UPDATED_OUT_OF_BAND
        if core.use_verifiers:
            content = core.store.get(entry.signature)
            now = core.ctx.clock.now_ms
            for verifier in entry.verifiers:
                core.ctx.charge(verifier.cost_ms)
                try:
                    result = verifier.run(now, content)
                except Exception:
                    return InvalidationReason.VERIFIER_FAILED
                if result.verdict is Verdict.INVALID:
                    if verifier.invalidation_label == "source":
                        return InvalidationReason.SOURCE_UPDATED_OUT_OF_BAND
                    return InvalidationReason.EXTERNAL_CHANGED
        return None

    # -- write-back journal ----------------------------------------------------

    def journal_append(
        self,
        key: "EntryKey",
        reference: "DocumentReference",
        content: bytes,
    ) -> None:
        """Buffer hook: journal a write before it is acknowledged."""
        self.journal.append(key, reference, content)
        self.stats.journal_appends += 1
        self.core.emit("journal", "appended", key=key, bytes=len(content))
        if self.core.l2 is not None:
            self.core.l2.spill_journal_append(key, reference, content)

    def journal_mark_flushed(self, key: "EntryKey") -> None:
        """Flush hook: the key's buffered bytes reached the server."""
        marked = self.journal.mark_flushed(key)
        if marked:
            self.stats.journal_flush_marks += 1
            self.core.emit("journal", "flush-marked", key=key, records=marked)
        if self.core.l2 is not None:
            self.core.l2.spill_journal_flushed(key)

    def replay_journal(self) -> int:
        """Restore unflushed journalled writes into the dirty buffer."""
        core = self.core
        before = dict(core.dirty)
        replayed, skipped = self.journal.replay_into(core.dirty)
        for key, (_, content) in self.journal.pending.items():
            if key in before:
                continue
            self.stats.journal_replayed += 1
            core.emit("journal", "replayed", key=key, bytes=len(content))
        for _ in range(skipped):
            self.stats.journal_replays_skipped += 1
            core.emit("journal", "replay-skipped")
        return replayed

    # -- crash / restart -------------------------------------------------------

    def on_crash(self) -> None:
        """The cache's volatile state is gone; stop leasing until restart."""
        self._down = True
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None
        self._references.clear()

    def on_restart(self) -> int:
        """Recover after a crash: replay the journal, re-lease, resync.

        The entry table is empty so the resync repairs nothing, but it
        starts a fresh channel epoch — the restarted cache cannot know
        what it missed while down, so the old sequence expectation is
        abandoned rather than trusted.  Returns the replayed-write count.
        """
        self._down = False
        replayed = self.replay_journal()
        channel = self.core.bus.enable_sequencing(self.core.cache_id)
        self._expected = (channel.epoch, channel.next_sequence)
        self._grant_lease()
        self.resync()
        return replayed
