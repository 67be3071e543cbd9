"""The document content cache manager: public API over the staged pipeline.

:class:`DocumentCache` is the §3/§4 cache — per-(document, user) entries
indirecting through content signatures, verifier-gated hits, minimum
notifier sets on fills, cacheability-vote admission, pluggable
replacement, write-through/write-back — but the mechanics live
elsewhere: :class:`~repro.cache.core.CacheCore` holds the state,
:mod:`repro.cache.pipeline` the staged read and write paths,
:mod:`repro.cache.policies` the pluggable admission and degradation
decisions, and :mod:`repro.cache.instrumentation` the structured-event
bus every counter is now derived from.  This module is only the wiring
plus the public surface.
"""

from __future__ import annotations

import typing

from repro.cache.consistency import Invalidation, InvalidationReason
from repro.cache.containment import ContainmentGuard, ContainmentStats
from repro.cache.core import CacheCore
from repro.cache.entry import CacheEntry, EntryKey
from repro.cache.instrumentation import (
    ConcurrencyStats,
    InstrumentationBus,
    OverloadStats,
    StageRecorder,
)
from repro.cache.memo import MemoStats, TransformMemo
from repro.cache.notifiers import InvalidationBus
from repro.cache.pipeline import (
    CacheReadOutcome,
    ReadPipeline,
    WriteMode,
    WritePipeline,
)
from repro.cache.policies import (
    AdmissionPolicy,
    ConcurrencyPolicy,
    ContainmentPolicy,
    DegradationPolicy,
    GreedyDualSizePolicy,
    MemoPolicy,
    OverloadPolicy,
    RecoveryPolicy,
    ReplacementPolicy,
    StoragePolicy,
    VoteAdmissionPolicy,
)
from repro.cache.recovery import ConsistencyRecoveryManager, RecoveryStats
from repro.errors import (
    CacheCapacityError,
    CacheError,
    DeadlineExceededError,
    OverloadShedError,
)
from repro.ids import DocumentId, UserId
from repro.overload.gate import OverloadGate
from repro.sim.scheduler import FlightTable, run_batch
from repro.sim.topology import CachePlacement, Topology

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.retry import RetryPolicy
    from repro.placeless.kernel import PlacelessKernel
    from repro.placeless.reference import DocumentReference
    from repro.storage.tier import L2Tier, StorageStats

__all__ = ["WriteMode", "CacheReadOutcome", "DocumentCache", "settle_batch"]


def settle_batch(
    references: typing.Sequence["DocumentReference"],
    read_one: typing.Callable[["DocumentReference"], CacheReadOutcome],
    iterate: typing.Callable[["DocumentReference"], typing.Generator],
    *,
    concurrent: bool,
    gated: bool,
    return_exceptions: bool,
) -> list:
    """Run a batch to termination; every read's result in submission order.

    The one statement of how a batch settles, for a single cache and a
    cluster alike.  *concurrent* batches interleave every reference's
    *iterate* generator under :func:`~repro.sim.scheduler.run_batch`
    (which returns failures in place — the re-raise rule is stated only
    here); otherwise *read_one* runs them in turn.  Either way, a *gated*
    batch's typed overload outcomes (shed, deadline exceeded) always
    land in place — an overloaded batch is an expected outcome, not a
    caller bug — and any other failure lands in place with
    *return_exceptions*, else is re-raised (the first in submission
    order, once a concurrent batch has run to termination).
    """
    in_place = (OverloadShedError, DeadlineExceededError) if gated else ()
    if not concurrent:
        outcomes: list = []
        for reference in references:
            try:
                outcomes.append(read_one(reference))
            except in_place as error:
                outcomes.append(error)
            except Exception as error:
                if not return_exceptions:
                    raise
                outcomes.append(error)
        return outcomes
    results = run_batch(iterate(reference) for reference in references)
    if not return_exceptions:
        for result in results:
            if isinstance(result, Exception) and not isinstance(
                result, in_place
            ):
                raise result
    return results


class DocumentCache:
    """An application-level (or server co-located) content cache.

    Parameters
    ----------
    kernel, capacity_bytes:
        The Placeless kernel behind this cache, and the physical capacity
        of its deduplicated content store.
    policy:
        Replacement policy; defaults to cost-aware Greedy-Dual-Size.
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
        When True, every hit is compared against ground truth (the
        repository's current raw bytes) to count stale hits — possible
        only in simulation, free of charge to the virtual clock.
    placement:
        Where *this* cache sits (overrides the topology default): an
        application-level cache serves hits over the local hop, a
        server-colocated one over the app→reference-server hop (§4).
    backing:
        Optional second-level cache misses are filled through, modelling
        the §4 deployment with both cache levels.
    retry_policy:
        Optional :class:`~repro.faults.retry.RetryPolicy` applied to
        miss-path fetches and write-back flushes; backoff waits are
        charged to the virtual clock and counted in the stats.
    share_across_users:
        §3's signature-adoption optimization: a miss that finds another
        user's *valid* entry for the same document with an identical
        transformation-chain signature adopts that entry's content
        signature (after re-running its verifiers) instead of executing
        the full read path.  Off by default — the paper describes it as
        an extension beyond the implemented prototype.
    admission_policy:
        Override for the fill-admission decision (defaults to
        :class:`~repro.cache.policies.VoteAdmissionPolicy`, the §3
        cacheability-vote behaviour).
    degradation_policy:
        How the cache degrades when the level below fails
        (:class:`~repro.cache.policies.DegradationPolicy`; options
        ``serve_stale_on_error``, ``stale_serve_max_age_ms``,
        ``bypass_backing_on_error``, ``verifier_quarantine_threshold``)
        — bounded availability-over-freshness stale serving, fetching
        straight from the kernel past a failed backing level, and
        circuit-breaker quarantine of repeatedly-raising verifiers
        (per cache: inspect and reset via ``cache.core.quarantine``).
        Defaults to a policy with every degradation mode off; read the
        settings back as ``cache.degradation_policy.<field>``.
    instrumentation:
        The :class:`~repro.cache.instrumentation.InstrumentationBus`
        stage events are emitted on; a private one is created if not
        supplied.  Pass a shared bus to aggregate several caches onto
        one subscriber.
    recovery_policy:
        Opt-in consistency recovery
        (:class:`~repro.cache.policies.RecoveryPolicy`; one option,
        ``lease_term_ms``): a leased, sequenced notifier channel with
        gap detection and anti-entropy resync, plus a crash-recovery
        write-back journal.  ``None`` (the default) keeps the cache
        byte-identical to its pre-recovery behaviour.
    containment_policy:
        Opt-in containment of misbehaving active-property code
        (:class:`~repro.cache.policies.ContainmentPolicy`):
        per-(document, code-site) circuit breakers
        (``failure_threshold``, ``probation_delay_ms``,
        ``half_open_successes``), per-invocation execution budgets
        (``max_cost_ms``, ``max_bytes``) and exception firewalls around
        the stream wrappers, verifier executions and notifier
        callbacks.  When a breaker is open an optional property is
        skipped and a required transformer forces a miss (or, with
        ``deny_required``, a typed denial).  The guard belongs to the
        kernel's context, not to this cache: the first contained cache
        builds it, later ones passing an equal policy attach to it, a
        different policy raises :class:`~repro.errors.CacheError`.
        ``None`` (the default) keeps this cache's verifier gate and
        memo/single-flight bail-outs unguarded; its kernel reads are
        fenced only if some other cache on the kernel built a guard.
    memo_policy:
        Opt-in transform memoization
        (:class:`~repro.cache.policies.MemoPolicy`; options
        ``capacity``, ``probe_cost_ms``, ``verify_on_serve``): a bounded
        ``(source signature, chain fingerprint) → output signature``
        memo consulted between adoption and fetch, so a miss whose
        source bytes and transformation chain match a previous fill is
        answered by signature adoption instead of a provider fetch plus
        chain execution.  ``None`` (the default) keeps the miss path
        byte-identical to the pre-memo pipeline.
    concurrency_policy:
        Opt-in concurrent read path
        (:class:`~repro.cache.policies.ConcurrencyPolicy`; options
        ``coalesce``, ``max_followers``): :meth:`read_many`
        interleaves batches under
        :func:`~repro.sim.scheduler.run_batch`, and — when the
        policy's ``coalesce`` flag is on — concurrent misses
        single-flight: one provider fetch and one property-chain
        execution shared among every concurrent requester of the same
        ``(document, user)`` key (and, with a memo policy, the same
        ``(source signature, chain fingerprint)`` pair), with
        leader-failure promotion and breaker/budget bail-outs.
        ``None`` (the default) keeps every read sequential and the
        cache byte-identical to its pre-concurrency behaviour.
    storage_policy:
        Opt-in durable L2 tier
        (:class:`~repro.cache.policies.StoragePolicy`; options
        ``directory``, ``breaker_failure_threshold``): evictions
        demote their bytes and metadata to checksummed on-disk
        segments, misses promote them back under full validity gating
        (chain signature, source probe, CRC, verifiers), the write-back
        journal and transform memo spill to disk, and
        :meth:`restart` recovers all of it after a :meth:`crash` with
        every recovered entry verifier-gated on its first serve.  Disk
        faults trip a storage breaker; while it is open the cache runs
        L1-only.  ``None`` (the default) builds no tier and keeps the
        cache byte-identical to its storage-free behaviour.
    overload_policy:
        Opt-in overload robustness
        (:class:`~repro.cache.policies.OverloadPolicy`; ``deadlines``,
        ``shedding`` and ``hedging`` switch its three mechanisms
        individually): every application read carries an end-to-end
        :class:`~repro.overload.budget.DeadlineBudget` (tightened to
        the chain's QoS access-time target when one is declared),
        charged implicitly by every virtual-clock charge on the path
        and gated explicitly before the expensive seams; an expired
        read degrades through the serve-stale ladder instead of
        starting work nobody will wait for, and retry backoff never
        sleeps past the remaining budget.  A token-bucket + sojourn
        admission controller in front of the pipeline sheds
        lowest-priority reads first (priority derived from the chain's
        properties: pinning → critical, finite QoS target → qos, else
        bulk) so goodput stays flat past saturation.  Shed and
        deadline-failed reads surface as typed
        :class:`~repro.errors.OverloadShedError` /
        :class:`~repro.errors.DeadlineExceededError` outcomes — always
        in-place entries from :meth:`read_many`, regardless of
        ``return_exceptions``.  ``None`` (the default) keeps every read
        unbudgeted and unshed, byte-identical to the pre-overload
        pipeline.
    core:
        Injected :class:`~repro.cache.core.CacheCore` — the cluster
        layer's seam.  When supplied, the state-building arguments
        (capacity, replacement policy, bus, topology, write mode,
        feature flags, backing, retry policy) are taken from the
        injected core and the corresponding constructor arguments are
        ignored; this cache becomes pure wiring (pipelines, planes,
        projections) over externally owned state.
    memo:
        Injected :class:`~repro.cache.memo.TransformMemo` (or a
        subclass — the cluster's shared cross-shard view).  Requires a
        ``memo_policy``; without this argument a private table of the
        policy's capacity is built, the historical behaviour.
    flights:
        Injected :class:`~repro.sim.scheduler.FlightTable`.  A cluster
        passes one table to every shard so single-flight coalescing on
        the ``(source signature, chain fingerprint)`` memo plane spans
        shard boundaries; by default each cache owns a private table.
    fast_lane:
        Deprecated and ignored — there is one hit path now; accepted
        until a benchmark PR retires ``probe.cache.hit_us.pipeline``.
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
        backing: "DocumentCache | None" = None,
        share_across_users: bool = False,
        retry_policy: "RetryPolicy | None" = None,
        name: str = "cache",
        admission_policy: AdmissionPolicy | None = None,
        degradation_policy: DegradationPolicy | None = None,
        instrumentation: InstrumentationBus | None = None,
        recovery_policy: RecoveryPolicy | None = None,
        containment_policy: ContainmentPolicy | None = None,
        memo_policy: MemoPolicy | None = None,
        concurrency_policy: ConcurrencyPolicy | None = None,
        storage_policy: StoragePolicy | None = None,
        overload_policy: OverloadPolicy | None = None,
        core: CacheCore | None = None,
        memo: TransformMemo | None = None,
        flights: "FlightTable | None" = None,
        fast_lane: bool = True,
    ) -> None:
        ctx = kernel.ctx
        if core is not None:
            self.instrumentation = core.instrumentation
            self._core = core
        else:
            self.instrumentation = instrumentation or InstrumentationBus()
            self._core = self._build_core(
                kernel=kernel,
                capacity_bytes=capacity_bytes,
                name=name,
                policy=policy,
                admission_policy=admission_policy,
                degradation_policy=degradation_policy,
                bus=bus,
                placement=placement,
                write_mode=write_mode,
                install_notifiers=install_notifiers,
                use_verifiers=use_verifiers,
                track_staleness=track_staleness,
                share_across_users=share_across_users,
                backing=backing,
                retry_policy=retry_policy,
            )
        if core is None:
            self._core.name = name
        self._wire_pipelines()
        self._wire_containment(containment_policy, ctx)
        self._wire_memo(memo_policy, memo)
        self._wire_concurrency(concurrency_policy, flights)
        self._wire_overload(overload_policy, ctx)
        self._wire_recovery(recovery_policy)
        # Storage wires last: the tier's construction-time recovery
        # scan reloads into the memo table and dirty buffer, which the
        # memo/recovery wiring must have set up first.
        self._wire_storage(storage_policy)
        self._schedule_fault_crashes(ctx)

    # -- construction steps ---------------------------------------------------

    def _build_core(
        self,
        *,
        kernel: "PlacelessKernel",
        capacity_bytes: int,
        name: str,
        policy: ReplacementPolicy | None,
        admission_policy: AdmissionPolicy | None,
        degradation_policy: DegradationPolicy | None,
        bus: InvalidationBus | None,
        placement: "CachePlacement | None",
        write_mode: WriteMode,
        install_notifiers: bool,
        use_verifiers: bool,
        track_staleness: bool,
        share_across_users: bool,
        backing: "DocumentCache | None",
        retry_policy: "RetryPolicy | None",
    ) -> CacheCore:
        """Build the state container from the constructor arguments."""
        if capacity_bytes <= 0:
            raise CacheCapacityError(
                f"capacity must be positive: {capacity_bytes}"
            )
        ctx = kernel.ctx
        if placement is None:
            topology = ctx.topology
        else:
            topology = Topology(placement=placement)
        return CacheCore(
            kernel=kernel,
            capacity_bytes=capacity_bytes,
            cache_id=ctx.ids.cache(name),
            policy=policy or GreedyDualSizePolicy(),
            admission=admission_policy or VoteAdmissionPolicy(),
            degradation=degradation_policy or DegradationPolicy(),
            bus=bus
            or InvalidationBus(ctx, instrumentation=self.instrumentation),
            instrumentation=self.instrumentation,
            topology=topology,
            write_mode=write_mode,
            install_notifiers=install_notifiers,
            use_verifiers=use_verifiers,
            track_staleness=track_staleness,
            share_across_users=share_across_users,
            backing=backing,
            retry_policy=retry_policy,
        )

    def _wire_pipelines(self) -> None:
        """Read/write pipelines and the prefetch queue."""
        self._writes = WritePipeline(self._core)
        self._reads = ReadPipeline(self._core, self._writes)
        self._prefetch_queue: list["DocumentReference"] = []
        self._draining_prefetch = False

    def _wire_containment(
        self, containment_policy: ContainmentPolicy | None, ctx
    ) -> None:
        """Opt this cache's own seams into the world's guard, building
        it if this is the first contained cache on the context."""
        if containment_policy is None:
            return
        guard = ctx.containment
        if guard is None:
            guard = ctx.containment = ContainmentGuard(
                containment_policy, ctx, self.instrumentation
            )
        elif guard.policy != containment_policy:
            raise CacheError(
                "this kernel's property code is already contained under "
                f"{guard.policy}; two tunings cannot both govern one "
                f"wrapper (got {containment_policy})"
            )
        self._core.metrics["containment"] = guard.stats
        self._core.containment = guard

    def _wire_memo(
        self, memo_policy: MemoPolicy | None, memo: TransformMemo | None
    ) -> None:
        if memo_policy is None:
            if memo is not None:
                raise CacheError(
                    "an injected memo table requires a memo_policy"
                )
            return
        self._core.memo_policy = memo_policy
        self._core.memo = (
            memo if memo is not None else TransformMemo(memo_policy.capacity)
        )
        self._core.track("memo", MemoStats())

    def _wire_concurrency(
        self,
        concurrency_policy: ConcurrencyPolicy | None,
        flights: "FlightTable | None",
    ) -> None:
        if flights is not None:
            self._core.flights = flights
        if concurrency_policy is not None:
            self._core.concurrency = concurrency_policy
            self._core.track("concurrency", ConcurrencyStats())

    def _wire_overload(
        self, overload_policy: OverloadPolicy | None, ctx
    ) -> None:
        if overload_policy is not None:
            self._core.overload = OverloadGate(ctx.clock, overload_policy)
            self._core.track("overload", OverloadStats())

    def _wire_recovery(self, recovery_policy: RecoveryPolicy | None) -> None:
        self._recovery: ConsistencyRecoveryManager | None = None
        if recovery_policy is not None:
            self._recovery = ConsistencyRecoveryManager(
                self._core, recovery_policy, self.apply_invalidation
            )
            self._core.recovery = self._recovery
            self.bus.register(self.cache_id, self._recovery.receive)
        else:
            self.bus.register(self.cache_id, self.apply_invalidation)

    def _wire_storage(self, storage_policy: StoragePolicy | None) -> None:
        if storage_policy is None:
            return
        from repro.storage.tier import L2Tier

        self._core.l2 = L2Tier(self._core, storage_policy)

    def _schedule_fault_crashes(self, ctx) -> None:
        # Scheduled crash instants apply to every cache on the faulted
        # context, journalled or not — the unjournalled one simply loses
        # its unflushed writes, which is the A13 contrast.
        plan = ctx.faults
        if plan is not None:
            for instant in plan.cache_crashes:
                if instant >= ctx.clock.now_ms:
                    ctx.clock.call_at(instant, self._crash_and_restart)

    # -- wiring access -------------------------------------------------------

    #: Attributes transparently read from the core (kernel/context/state
    #: handles plus the construction-time configuration flags).
    _CORE_ATTRS = frozenset({
        "kernel", "ctx", "capacity_bytes", "policy", "bus", "stats",
        "recorder", "store", "cache_id", "write_mode", "backing",
        "retry_policy", "install_notifiers", "use_verifiers",
        "track_staleness", "share_across_users",
    })

    def __getattr__(self, name: str):
        if name in DocumentCache._CORE_ATTRS:
            return getattr(self._core, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    @property
    def core(self) -> CacheCore:
        """The state container behind this cache (the cluster seam)."""
        return self._core

    @property
    def admission_policy(self) -> AdmissionPolicy:
        """The fill-admission policy."""
        return self._core.admission

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
        return self._core.entries.get(self._key(reference))

    @property
    def used_bytes(self) -> int:
        """Physical (deduplicated) bytes currently cached."""
        return self._core.store.physical_bytes

    @staticmethod
    def _key(reference: "DocumentReference") -> EntryKey:
        return EntryKey.for_reference(reference)

    def _expected_chain_signature(self, reference: "DocumentReference"):
        """See :meth:`CacheCore.expected_chain_signature`."""
        return self._core.expected_chain_signature(reference)

    def stage_breakdown(self) -> StageRecorder:
        """Per-(stage, outcome) count/latency recorder for this cache."""
        return self.recorder

    def describe(self) -> str:
        """Human-readable dump of the cache's state, one line per entry."""
        core = self._core
        lines = [
            f"{self.cache_id}: {len(core.entries)} entries, "
            f"{core.store.physical_bytes}/{self.capacity_bytes} bytes "
            f"({len(core.store)} distinct contents), "
            f"policy={self.policy.name}, mode={self.write_mode.value}"
        ]
        for entry in sorted(core.entries.values(), key=lambda e: str(e.key)):
            flags = []
            if entry.pinned:
                flags.append("pinned")
            if entry.is_dirty:
                flags.append("dirty")
            lines.append(
                f"  {entry.key} -> {entry.signature.short} "
                f"{entry.size}B {entry.cacheability.name} "
                f"verifiers={len(entry.verifiers)} "
                f"cost={entry.replacement_cost_ms:.2f}ms "
                f"accesses={entry.access_count}"
                + (f" [{','.join(flags)}]" if flags else "")
            )
        if core.dirty:
            lines.append(f"  dirty write-backs pending: {len(core.dirty)}")
        return "\n".join(lines)

    # -- read path -----------------------------------------------------------

    def read(self, reference: "DocumentReference") -> CacheReadOutcome:
        """Read the document through the cache.

        Any collection-prefetch requests queued by properties during the
        read are serviced *after* the outcome is computed, so prefetch
        work never inflates the triggering read's latency.
        """
        outcome = self._reads.read(reference)
        if self._prefetch_queue:
            self._drain_prefetch()
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
                self._drain_prefetch()

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
            self._drain_prefetch()
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

    def drain_prefetch(self) -> None:
        """Service queued collection prefetches (see :meth:`read_many`)."""
        self._drain_prefetch()

    def read_for_fill(self, reference: "DocumentReference"):
        """Serve an upper-level cache: content plus fill metadata.

        A hit synthesizes the metadata the upper cache needs (verifiers,
        cacheability, replacement cost, chain signature) from the stored
        entry — the same information the read path originally supplied;
        a miss runs the normal miss path and reuses its metadata.
        """
        return self._reads.read_for_fill(reference)

    # -- collection prefetch (§5 "related documents") -------------------------

    def request_prefetch(self, reference: "DocumentReference") -> bool:
        """Queue a sibling document for prefetching after the current read
        (used by ``CollectionPrefetchProperty`` to tailor caching for
        related documents).  Returns True if queued."""
        key = self._key(reference)
        if key in self._core.entries:
            return False
        if any(self._key(queued) == key for queued in self._prefetch_queue):
            return False
        self._prefetch_queue.append(reference)
        self._core.emit("prefetch", "requested", key=key)
        return True

    def _drain_prefetch(self) -> None:
        """Fill every queued prefetch (misses only; no recursion)."""
        if self._draining_prefetch:
            return
        self._draining_prefetch = True
        try:
            while self._prefetch_queue:
                reference = self._prefetch_queue.pop(0)
                key = self._key(reference)
                if key in self._core.entries:
                    continue
                self._reads.read(reference)
                entry = self._core.entries.get(key)
                if entry is not None:
                    entry.policy_state["prefetched"] = True
                    self._core.emit("prefetch", "filled", key=key)
        finally:
            self._draining_prefetch = False

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
    def memo_policy(self) -> MemoPolicy | None:
        """The memo policy, when one is set."""
        return self._core.memo_policy

    @property
    def memo_stats(self) -> MemoStats | None:
        """Memo-plane counters (``None`` without a memo policy)."""
        return self._core.metrics.get("memo")

    # -- concurrency -----------------------------------------------------------

    @property
    def concurrency_policy(self) -> ConcurrencyPolicy | None:
        """The concurrency policy, when one is set."""
        return self._core.concurrency

    @property
    def concurrency_stats(self) -> ConcurrencyStats | None:
        """Single-flight counters (``None`` without a concurrency policy)."""
        return self._core.metrics.get("concurrency")

    # -- overload --------------------------------------------------------------

    @property
    def overload_policy(self) -> OverloadPolicy | None:
        """The overload policy, when one is set."""
        gate = self._core.overload
        return gate.policy if gate is not None else None

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

    def compact_storage(self) -> int:
        """Reclaim dead bytes in the durable tier; returns bytes freed.

        Requires a storage policy (there is nothing to compact without
        the tier).
        """
        if self._core.l2 is None:
            raise CacheError(
                "compact_storage requires a storage_policy on this cache"
            )
        return self._core.l2.compact()

    # -- consistency recovery --------------------------------------------------

    @property
    def recovery(self) -> ConsistencyRecoveryManager | None:
        """The recovery coordinator, when a recovery policy is set."""
        return self._recovery

    @property
    def recovery_stats(self) -> RecoveryStats | None:
        """Recovery-layer counters (``None`` without a recovery policy)."""
        return self._core.metrics.get("recovery")

    def resync(self) -> int:
        """Force one anti-entropy resync; returns entries repaired.

        Requires a recovery policy (the resync needs the channel/lease
        machinery to reset afterwards).
        """
        if self._recovery is None:
            raise CacheError(
                "resync requires a recovery_policy on this cache"
            )
        return self._recovery.resync()

    def crash(self) -> None:
        """Simulate a cache-process crash: volatile state vanishes.

        The entry table, content store references and dirty write-back
        buffer are discarded without invalidation traffic (the process
        died; nothing ran).  The write-back journal — stable storage —
        survives for :meth:`restart` to replay.
        """
        core = self._core
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
        if self._recovery is not None:
            self._recovery.on_crash()

    def restart(self) -> int:
        """Recover after :meth:`crash`; returns replayed dirty writes.

        With a journalling recovery policy the unflushed write-backs are
        replayed into the dirty buffer (idempotently), the notifier
        lease is re-granted and the channel resynced; without one the
        restart comes back empty-handed.  With a storage policy the
        durable tier then recovers on top: the demotion catalog is
        rebuilt (every recovered entry verify-on-first-serve), disk-
        journalled writes the in-memory journal did not cover are
        replayed, and spilled memo records reload — the warm restart.
        """
        replayed = 0
        if self._recovery is not None:
            replayed = self._recovery.on_restart()
        if self._core.l2 is not None:
            self._core.l2.recover()
        self._core.emit("crash", "restarted", replayed=replayed)
        return replayed

    def _crash_and_restart(self) -> None:
        """Clock callback for fault-plan scheduled crash instants."""
        self.crash()
        self.restart()

    # -- invalidation ------------------------------------------------------------

    def apply_invalidation(self, invalidation: Invalidation) -> None:
        """Sink for the invalidation bus (notifier deliveries)."""
        core = self._core
        core.emit(
            "notifier", "delivered",
            key=EntryKey(invalidation.document_id, invalidation.user_id),
        )
        # An invalidation names its document, so only that document's
        # bucket can match — the full-table scan was O(entries) per
        # delivered notifier.  Bucket order is global insertion order
        # restricted to the document, so drops happen in the same
        # relative order the scan produced.
        for key in list(core.entries_for_document(invalidation.document_id)):
            if invalidation.matches_key(key):
                core.drop(
                    core.entries[key], invalidation.reason,
                    origin=invalidation.origin,
                )

    def invalidate_document(
        self, document_id: DocumentId, user_id: UserId | None = None
    ) -> int:
        """Explicitly drop entries for a document; returns count dropped."""
        dropped = 0
        core = self._core
        invalidation = Invalidation(
            reason=InvalidationReason.EXPLICIT,
            document_id=document_id,
            user_id=user_id,
            at_ms=core.ctx.clock.now_ms,
        )
        for key in list(core.entries_for_document(document_id)):
            if invalidation.matches_key(key):
                core.drop(core.entries[key], InvalidationReason.EXPLICIT)
                dropped += 1
        return dropped

    def clear(self) -> None:
        """Drop every entry (flushing nothing; dirty buffers survive)."""
        core = self._core
        for entry in list(core.entries.values()):
            core.drop(entry, InvalidationReason.EXPLICIT)
