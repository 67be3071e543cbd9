"""The document content cache manager: public API over the staged pipeline.

:class:`DocumentCache` is the §3/§4 cache — per-(document, user) entries
indirecting through content signatures, verifier-gated hits, minimum
notifier sets on fills, cacheability-vote admission, pluggable
replacement, write-through/write-back — but the mechanics live
elsewhere: :class:`~repro.cache.core.CacheCore` holds the state,
:mod:`repro.cache.pipeline` the staged read and write paths,
:mod:`repro.cache.policies` the per-seam configuration, and
:mod:`repro.cache.instrumentation` the stage-event bus observers
subscribe to.  Counters are written where they are decided, into the
stats objects this module wires into ``core.metrics``.  This module is
only the wiring plus the public surface.
"""

from __future__ import annotations

import typing

from repro.cache.containment import ContainmentGuard, ContainmentStats
from repro.cache.core import CacheCore
from repro.cache.entry import CacheEntry, EntryKey
from repro.cache.memo import MEMO_CAPACITY, MemoStats, TransformMemo
from repro.cache.notifiers import InvalidationBus
from repro.cache.pipeline import (
    CacheReadOutcome,
    ReadPipeline,
    WriteMode,
    WritePipeline,
)
from repro.cache.policies import (
    ConcurrencyPolicy,
    ContainmentPolicy,
    DegradationPolicy,
    GreedyDualSizePolicy,
    MemoPolicy,
    OverloadPolicy,
    RecoveryPolicy,
    ReplacementPolicy,
    StoragePolicy,
)
from repro.cache.recovery import ConsistencyRecoveryManager, RecoveryStats
from repro.cache.stats import ConcurrencyStats
from repro.errors import (
    UNAVAILABLE_ERRORS,
    CacheError,
    DeadlineExceededError,
    OverloadShedError,
)
from repro.faults.retry import RetryPolicy
from repro.ids import DocumentId, UserId
from repro.overload.gate import OverloadGate, OverloadStats
from repro.placeless.kernel import PlacelessKernel
from repro.placeless.reference import DocumentReference
from repro.sim.scheduler import FlightTable, settle_batch
from repro.sim.topology import CachePlacement

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.storage.tier import L2Tier, StorageStats

__all__ = ["WriteMode", "CacheReadOutcome", "DocumentCache"]


class DocumentCache:
    """An application-level (or server co-located) content cache.

    Every ``*_policy`` argument is one frozen dataclass from
    :mod:`repro.cache.policies` whose docstring states its options; an
    instance switches that seam on, ``None`` (the default) builds
    nothing and keeps the cache byte-identical to one without the seam.

    Parameters
    ----------
    kernel, capacity_bytes:
        The Placeless kernel behind this cache, and the physical capacity
        of its deduplicated content store.
    policy:
        :class:`~repro.cache.replacement.ReplacementPolicy`; defaults to
        cost-aware Greedy-Dual-Size.
    bus:
        The invalidation bus notifiers deliver through; one is created
        (and registered with) if not supplied.
    write_mode:
        Write-through (default) or write-back.
    install_notifiers, use_verifiers:
        Whether fills install the §3 minimum notifier set, and whether
        hits execute verifiers.  The A1 ablation disables one of them to
        run verifier-only / notifier-only.
    track_staleness:
        Compare every hit against ground truth (the repository's current
        raw bytes) to count stale hits — possible only in simulation,
        free of charge to the virtual clock.
    placement:
        Where *this* cache sits (overrides the topology default): an
        application-level cache serves hits over the local hop, a
        server-colocated one over the app→reference-server hop (§4).
    retry_policy:
        Optional :class:`~repro.faults.retry.RetryPolicy` for miss-path
        fetches and write-back flushes; backoff is charged to the
        virtual clock.
    name:
        The cache's plain name: its id is minted from it, and fault-plan
        windows target it.
    degradation_policy:
        :class:`~repro.cache.policies.DegradationPolicy` — always
        present (all modes off when omitted); read back as
        ``cache.degradation_policy``.
    recovery_policy:
        :class:`~repro.cache.policies.RecoveryPolicy` — leased,
        sequenced notifier channel with resync, and the write-back
        journal.
    containment_policy:
        :class:`~repro.cache.policies.ContainmentPolicy` — the guard
        belongs to the kernel's context: the first contained cache
        builds it, later ones passing an equal policy attach to it, a
        different policy raises :class:`~repro.errors.CacheError`.
    memo_policy:
        :class:`~repro.cache.policies.MemoPolicy` — transform
        memoization between L2 promotion and fetch: the one way a
        miss is answered with bytes another user's read produced (§3's
        sharing of identical transformed content).  Off by default.
    concurrency_policy:
        :class:`~repro.cache.policies.ConcurrencyPolicy` —
        :meth:`read_many` interleaves its batch and single-flights
        concurrent misses.
    storage_policy:
        :class:`~repro.cache.policies.StoragePolicy` — the durable L2
        tier; :meth:`restart` recovers it after a :meth:`crash`.
    overload_policy:
        :class:`~repro.cache.policies.OverloadPolicy` — deadline
        budgets and admission control; shed and deadline-failed reads
        surface as typed :class:`~repro.errors.OverloadShedError` /
        :class:`~repro.errors.DeadlineExceededError`.
    memo, flights:
        An injected :class:`~repro.cache.memo.TransformMemo` (requires a
        ``memo_policy``) and :class:`~repro.sim.scheduler.FlightTable`:
        a cluster passes one of each to every shard so memo serves and
        single-flight coalescing span shard boundaries; per-user
        application-level caches can share one memo the same way.  By
        default each cache owns private ones.
    fast_lane:
        Deprecated and ignored — there is one hit path now; accepted
        until a benchmark PR retires ``probe.cache.hit_us.pipeline``.

    Stage events are emitted on ``cache.instrumentation``; subscribe to
    it to observe the cache.
    """

    def __init__(
        self,
        kernel: "PlacelessKernel",
        capacity_bytes: int,
        policy: ReplacementPolicy | None = None,
        bus: InvalidationBus | None = None,
        write_mode: WriteMode = WriteMode.WRITE_THROUGH,
        install_notifiers: bool = True,
        use_verifiers: bool = True,
        track_staleness: bool = False,
        placement: "CachePlacement | None" = None,
        retry_policy: "RetryPolicy | None" = None,
        name: str = "cache",
        degradation_policy: DegradationPolicy | None = None,
        recovery_policy: RecoveryPolicy | None = None,
        containment_policy: ContainmentPolicy | None = None,
        memo_policy: MemoPolicy | None = None,
        concurrency_policy: ConcurrencyPolicy | None = None,
        storage_policy: StoragePolicy | None = None,
        overload_policy: OverloadPolicy | None = None,
        memo: TransformMemo | None = None,
        flights: "FlightTable | None" = None,
        fast_lane: bool = True,
    ) -> None:
        ctx = kernel.ctx
        # Arguments are judged before the first side effect.
        if memo is not None and memo_policy is None:
            raise CacheError("an injected memo table requires a memo_policy")
        guard = ctx.containment
        if (
            containment_policy is not None
            and guard is not None
            and guard.policy != containment_policy
        ):
            raise CacheError(
                "this kernel's property code is already contained under "
                f"{guard.policy}; two tunings cannot both govern one "
                f"wrapper (got {containment_policy})"
            )
        builds_guard = containment_policy is not None and guard is None
        core = self._core = CacheCore(
            kernel,
            capacity_bytes,
            name,
            policy=policy or GreedyDualSizePolicy(),
            degradation=degradation_policy or DegradationPolicy(),
            bus=bus,
            placement=placement,
            write_mode=write_mode,
            install_notifiers=install_notifiers,
            use_verifiers=use_verifiers,
            track_staleness=track_staleness,
            retry_policy=retry_policy,
        )
        self.instrumentation = core.instrumentation
        self._writes = WritePipeline(core)
        self._reads = ReadPipeline(core, self._writes)
        self._prefetch_queue: list["DocumentReference"] = []
        self._draining_prefetch = False
        #: Siblings whose prefetch failed in the current drain; they are
        #: not queued again until it ends.
        self._prefetch_dropped: set[EntryKey] = set()
        self._scheduled_crashes: list = []
        # The one wiring sequence.  Its order is the order in which the
        # sink lands on the invalidation bus and calls on the clock —
        # which every golden digest pins: containment, memo,
        # concurrency, overload, recovery, storage, scheduled crashes.
        # All or nothing: a step that raises takes the earlier ones
        # back off the context, the bus and the clock.
        try:
            if containment_policy is not None:
                # Opt this cache's own seams into the world's guard,
                # building it if this is the first contained cache.
                if guard is None:
                    guard = ctx.containment = ContainmentGuard(
                        containment_policy, ctx, core.emit
                    )
                core.metrics["containment"] = guard.stats
                core.containment = guard
            if memo_policy is not None:
                core.memo = (
                    memo if memo is not None
                    else TransformMemo(MEMO_CAPACITY)
                )
                core.metrics["memo"] = MemoStats()
            if flights is not None:
                core.flights = flights
            if concurrency_policy is not None:
                core.concurrency = concurrency_policy
                core.metrics["concurrency"] = ConcurrencyStats()
            if overload_policy is not None:
                core.overload = OverloadGate(ctx.clock, overload_policy)
                core.metrics["overload"] = OverloadStats()
            if recovery_policy is not None:
                core.recovery = ConsistencyRecoveryManager(core, recovery_policy)
                core.bus.register(core.cache_id, core.recovery.receive)
            else:
                core.bus.register(core.cache_id, core.apply_invalidation)
            if storage_policy is not None:
                # Last of the seams: the tier's construction-time recovery
                # scan reloads into the memo table and recovery journal.
                from repro.storage.tier import L2Tier

                core.l2 = L2Tier(core, storage_policy)
            # Scheduled crash instants apply to every cache on the faulted
            # context, journalled or not — the unjournalled one simply
            # loses its unflushed writes, which is the A13 contrast.  The
            # handles are kept so :meth:`shutdown` can take them off the
            # clock.
            plan = ctx.faults
            self._scheduled_crashes = [
                ctx.clock.call_at(instant, self._crash_and_restart)
                for instant in (plan.cache_crashes if plan is not None else ())
                if instant >= ctx.clock.now_ms
            ]
        except BaseException:
            # An injected memo table is its owner's, not this cache's
            # to purge on the way out.
            core.memo = None
            self.shutdown()
            if builds_guard:
                ctx.containment = None
            raise

    # -- wiring access -------------------------------------------------------

    #: Attributes transparently read from the core (kernel/context/state
    #: handles plus the construction-time configuration flags).
    _CORE_ATTRS = frozenset({
        "kernel", "ctx", "capacity_bytes", "policy", "bus", "stats",
        "store", "cache_id", "write_mode", "retry_policy",
        "install_notifiers", "use_verifiers", "track_staleness",
    })

    def __getattr__(self, name: str):
        if name in DocumentCache._CORE_ATTRS:
            return getattr(self._core, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    @property
    def core(self) -> CacheCore:
        """The state container behind this cache."""
        return self._core

    @property
    def degradation_policy(self) -> DegradationPolicy:
        """The degradation policy (configuration only)."""
        return self._core.degradation

    # -- introspection ------------------------------------------------------

    def __contains__(self, key: EntryKey) -> bool:
        return key in self._core.entries

    def __len__(self) -> int:
        return len(self._core.entries)

    def entries(self) -> list[CacheEntry]:
        """All live entries (unspecified order)."""
        return list(self._core.entries.values())

    def entry_for(self, reference: "DocumentReference") -> CacheEntry | None:
        """The live entry for a reference's (document, user) pair, if any."""
        return self._core.entries.get(EntryKey.for_reference(reference))

    @property
    def used_bytes(self) -> int:
        """Physical (deduplicated) bytes currently cached."""
        return self._core.store.physical_bytes

    # -- read path -----------------------------------------------------------

    def read(self, reference: "DocumentReference") -> CacheReadOutcome:
        """Read the document through the cache.

        Any collection-prefetch requests queued by properties during the
        read are serviced *after* the outcome is computed, so prefetch
        work never inflates the triggering read's latency.
        """
        outcome = self._reads.read(reference)
        if self._prefetch_queue:
            self.drain_prefetch()
        return outcome

    def read_many(
        self,
        references: typing.Sequence["DocumentReference"],
        *,
        return_exceptions: bool = False,
    ) -> list[CacheReadOutcome]:
        """Read a batch concurrently; outcomes in submission order.

        With a ``concurrency_policy``, the batch runs under
        :func:`~repro.sim.scheduler.run_batch`'s FIFO ready queue:
        reads interleave at the verifier and fetch/chain seams, and —
        when the policy coalesces — concurrent misses on one key share
        a single flight.  Without one, the batch degenerates to
        sequential :meth:`read` calls, so callers can use ``read_many``
        unconditionally.

        Failures settle by :func:`settle_batch`'s rule: in place with
        ``return_exceptions``, and — with an ``overload_policy`` —
        always in place for the typed
        :class:`~repro.errors.OverloadShedError` /
        :class:`~repro.errors.DeadlineExceededError` outcomes.  A gated
        batch's reads also share the batch-start enqueue instant, so
        sojourn (and the deadline) accrues while earlier reads hold the
        clock.
        """
        core = self._core
        gated = core.overload is not None
        # With a gate, every read shares the batch-start enqueue instant.
        enqueued_ms = core.ctx.clock.now_ms if gated else None
        concurrent = core.concurrency is not None

        def read_one(reference):
            try:
                return self._reads.read(reference, enqueued_ms)
            finally:
                self.drain_prefetch()

        results = settle_batch(
            references,
            read_one,
            lambda reference: self.iterate_read(
                reference, concurrent=True, enqueued_ms=enqueued_ms
            ),
            concurrent=concurrent,
            gated=gated,
            return_exceptions=return_exceptions,
        )
        if concurrent:
            self.drain_prefetch()
        return results

    def iterate_read(
        self,
        reference: "DocumentReference",
        *,
        concurrent: bool,
        enqueued_ms: float | None = None,
    ):
        """One read as a suspendable generator for an external driver.

        The cluster-layer seam behind :meth:`read_many`: a coordinator
        fanning a batch across several caches collects each target
        cache's ``concurrent`` generator through this method and hands
        them all to one :func:`~repro.sim.scheduler.run_batch` —
        deterministic interleaving and single-flight coalescing then
        span cache boundaries.  Callers must :meth:`drain_prefetch`
        once the batch completes.
        """
        return self._reads.iterate(
            reference, concurrent=concurrent, enqueued_ms=enqueued_ms
        )

    # -- collection prefetch (§5 "related documents") -------------------------

    def request_prefetch(self, reference: "DocumentReference") -> bool:
        """Queue a sibling document for prefetching after the current read
        (used by ``CollectionPrefetchProperty`` to tailor caching for
        related documents).  Returns True if queued."""
        key = EntryKey.for_reference(reference)
        if key in self._core.entries or key in self._prefetch_dropped:
            return False
        if any(
            EntryKey.for_reference(queued) == key
            for queued in self._prefetch_queue
        ):
            return False
        self._prefetch_queue.append(reference)
        self._core.stats.prefetch_requests += 1
        self._core.emit("prefetch", "requested", key=key)
        return True

    def drain_prefetch(self) -> None:
        """Fill every queued collection prefetch (misses only; no
        recursion) — after a read or, for an external driver of
        :meth:`iterate_read`, once its batch completes.  A sibling
        that cannot be read now (unavailable, shed, out of deadline) is
        dropped for the rest of the drain; it never fails the demand
        read that queued it."""
        if self._draining_prefetch:
            return
        self._draining_prefetch = True
        try:
            while self._prefetch_queue:
                reference = self._prefetch_queue.pop(0)
                key = EntryKey.for_reference(reference)
                if key in self._core.entries:
                    continue
                try:
                    self._reads.read(reference)
                except (*UNAVAILABLE_ERRORS, OverloadShedError,
                        DeadlineExceededError):
                    # Speculative work; the failed fetch is already
                    # counted where it failed.
                    self._prefetch_dropped.add(key)
                    continue
                entry = self._core.entries.get(key)
                if entry is not None:
                    entry.prefetched = True
                    self._core.stats.prefetch_fills += 1
                    self._core.emit("prefetch", "filled", key=key)
        finally:
            self._draining_prefetch = False
            self._prefetch_dropped.clear()

    # -- write path -----------------------------------------------------------

    def write(self, reference: "DocumentReference", content: bytes) -> float:
        """Write through (or into) the cache; returns elapsed virtual ms."""
        return self._writes.write(reference, content)

    def flush(self, reference: "DocumentReference") -> bool:
        """Push a buffered write-back through the full write path."""
        return self._writes.flush(reference)

    def flush_all(self) -> int:
        """Flush every buffered write-back; returns how many flushed."""
        return self._writes.flush_all()

    @property
    def dirty_count(self) -> int:
        """Buffered (unflushed) write-backs."""
        return len(self._core.dirty)

    # -- containment -----------------------------------------------------------

    @property
    def containment(self) -> ContainmentGuard | None:
        """The world's containment guard, when this cache was built
        with a containment policy (``None`` otherwise)."""
        return self._core.containment

    @property
    def containment_stats(self) -> ContainmentStats | None:
        """Containment counters (``None`` without a containment policy)."""
        return self._core.metrics.get("containment")

    # -- transform memoization -------------------------------------------------

    @property
    def memo(self) -> TransformMemo | None:
        """The transform memo table, when a memo policy is set."""
        return self._core.memo

    @property
    def memo_stats(self) -> MemoStats | None:
        """Memo-plane counters (``None`` without a memo policy)."""
        return self._core.metrics.get("memo")

    # -- concurrency -----------------------------------------------------------

    @property
    def concurrency_stats(self) -> ConcurrencyStats | None:
        """Single-flight counters (``None`` without a concurrency policy)."""
        return self._core.metrics.get("concurrency")

    # -- overload --------------------------------------------------------------

    @property
    def overload_stats(self) -> OverloadStats | None:
        """Overload-layer counters (``None`` without an overload policy)."""
        return self._core.metrics.get("overload")

    # -- durable storage -------------------------------------------------------

    @property
    def storage(self) -> "L2Tier | None":
        """The durable L2 tier, when a storage policy is set."""
        return self._core.l2

    @property
    def storage_stats(self) -> "StorageStats | None":
        """Durable-tier counters (``None`` without a storage policy)."""
        return self._core.metrics.get("storage")

    # -- consistency recovery --------------------------------------------------

    @property
    def recovery(self) -> ConsistencyRecoveryManager | None:
        """The recovery coordinator, when a recovery policy is set."""
        return self._core.recovery

    @property
    def recovery_stats(self) -> RecoveryStats | None:
        """Recovery-layer counters (``None`` without a recovery policy)."""
        return self._core.metrics.get("recovery")

    def resync(self) -> int:
        """Force one anti-entropy resync; returns entries repaired.

        Requires a recovery policy (the resync needs the channel/lease
        machinery to reset afterwards).
        """
        if self._core.recovery is None:
            raise CacheError(
                "resync requires a recovery_policy on this cache"
            )
        return self._core.recovery.resync()

    def crash(self) -> None:
        """Simulate a cache-process crash: volatile state vanishes.

        The entry table, content store references and dirty write-back
        buffer are discarded without invalidation traffic (the process
        died; nothing ran).  The write-back journal — stable storage —
        survives for :meth:`restart` to replay.
        """
        core = self._core
        if core.recovery is not None:
            core.recovery.stats.crashes += 1
        core.emit(
            "crash", "crashed",
            entries=len(core.entries), dirty=len(core.dirty),
        )
        for entry in list(core.entries.values()):
            core.remove_entry(entry)
        core.dirty.clear()
        self._prefetch_queue.clear()
        # The memo is volatile state too: a record that survived the
        # crash could map onto content-store bytes that did not.
        core.memo_purge("crash")
        if core.l2 is not None:
            # The durable tier loses exactly its un-fsynced bytes and
            # its in-memory catalog; what the disk kept, :meth:`restart`
            # recovers.
            core.l2.crash()
        if core.recovery is not None:
            core.recovery.on_crash()

    def restart(self) -> int:
        """Recover after :meth:`crash`; returns replayed dirty writes.

        With a journalling recovery policy the unflushed write-backs are
        replayed into the dirty buffer (idempotently), the notifier
        lease is re-granted and the channel resynced; without one the
        restart comes back empty-handed.  With a storage policy the
        durable tier then recovers on top: the demotion catalog is
        rebuilt (every recovered entry verify-on-first-serve) and
        spilled memo records reload — the warm restart; the journal
        survived the crash, so its disk mirror is not read.
        """
        core = self._core
        replayed = 0
        if core.recovery is not None:
            replayed = core.recovery.on_restart()
        if core.l2 is not None:
            core.l2.recover()
        if core.recovery is not None:
            core.recovery.stats.restarts += 1
        core.emit("crash", "restarted", replayed=replayed)
        return replayed

    def _crash_and_restart(self) -> None:
        """Clock callback for fault-plan scheduled crash instants."""
        self.crash()
        self.restart()

    def shutdown(self) -> None:
        """Leave for good: a :meth:`crash` nothing will restart.

        Everything this cache put on the clock and the bus goes with it
        — the lease tick (the crash stops it), the fault plan's
        scheduled crash instants, the invalidation sink and its
        sequenced channel — so a departed cache (a shard its cluster
        lost) can never come back as a zombie.  The durable tier's
        files are closed and the cache is L1-only from then on.
        """
        self.crash()
        for scheduled in self._scheduled_crashes:
            scheduled.cancel()
        self._core.bus.unregister(self._core.cache_id)
        if self._core.l2 is not None:
            self._core.l2.close()
            self._core.l2 = None

    # -- invalidation ------------------------------------------------------------

    def invalidate_document(
        self, document_id: DocumentId, user_id: UserId | None = None
    ) -> int:
        """Explicitly drop entries for a document; returns count dropped."""
        return self._core.invalidate_document(document_id, user_id)

    def clear(self) -> None:
        """Drop every entry (flushing nothing; dirty buffers survive)."""
        self._core.clear()
