"""The cluster coordinator: N cache shards behind one read/write API.

:class:`CacheCluster` owns N :class:`~repro.cache.manager.DocumentCache`
shards and routes every ``(document, user)`` entry key to one of them
by consistent hashing (:class:`~repro.cluster.placement.HashRingPolicy`).
The shards are real, fully wired
caches — each with its own content store, entry table, stats and
(optionally) recovery manager — built by the one ``DocumentCache``
constructor, which takes what the shards share as arguments:

* one :class:`~repro.cache.notifiers.InvalidationBus` is shared, each
  shard registering its own cache id, so the paper's notifier model
  (AFS-style callbacks to *many* caches) finally has many caches;
* with a :class:`~repro.cluster.policy.ClusterPolicy`, one
  :class:`~repro.cluster.memo_share.SharedTransformMemo` is installed
  as every shard's memo (cross-shard memo sharing) and one
  :class:`~repro.sim.scheduler.FlightTable` as every shard's flight
  table (single-flight coalescing spanning shard boundaries);
* a ``containment_policy`` in ``shard_kwargs`` attaches every shard to
  the kernel context's one
  :class:`~repro.cache.containment.ContainmentGuard`, so breakers and
  their counters belong to the world the property code runs in and
  outlive any shard (:attr:`CacheCluster.containment_stats`);
* :meth:`read_many` fans a batch across shards under *one*
  :func:`~repro.sim.scheduler.run_batch`, so cross-shard batches
  interleave and coalesce exactly like same-shard ones;
* ring rebalancing and shard loss reuse the A13 anti-entropy resync —
  :meth:`~repro.cache.recovery.ConsistencyRecoveryManager.resync` with
  a *doomed* predicate condemning entries whose keys no longer place on
  the shard — instead of a second repair path.

With ``cluster_policy=None`` the shards are fully isolated (private
memos, private flights): the A17 baseline arm, and — at one shard —
byte-identical to a plain ``DocumentCache``.
"""

from __future__ import annotations

import typing

from repro.cache.containment import ContainmentStats
from repro.cache.entry import CacheEntry, EntryKey
from repro.cache.manager import CacheReadOutcome, DocumentCache
from repro.cache.memo import MEMO_CAPACITY, MemoStats
from repro.cache.notifiers import InvalidationBus
from repro.cache.policies import (
    ConcurrencyPolicy,
    MemoPolicy,
    OverloadPolicy,
    RecoveryPolicy,
)
from repro.cache.stats import CacheStats, ConcurrencyStats, merged
from repro.cluster.memo_share import SharedTransformMemo
from repro.cluster.placement import HashRingPolicy
from repro.cluster.policy import ClusterPolicy
from repro.contract.consistency import InvalidationReason
from repro.errors import CacheError
from repro.ids import DocumentId, UserId
from repro.overload.gate import OverloadStats
from repro.overload.health import HealthTracker
from repro.overload.hedge import hedged_iterate
from repro.placeless.kernel import PlacelessKernel
from repro.placeless.reference import DocumentReference
from repro.sim.scheduler import FlightTable, drive, settle_batch
from repro.sim.topology import ClusterTopology

__all__ = ["CacheCluster"]

#: Hedge-delay shaping: the healthy fleet's p95 times the factor,
#: clamped to the [min, max] window (virtual ms).
HEDGE_DELAY_FACTOR = 1.0
HEDGE_DELAY_MIN_MS = 1.0
HEDGE_DELAY_MAX_MS = 250.0


class CacheCluster:
    """A consistent-hash cluster of document caches.

    Parameters
    ----------
    kernel, shard_count, capacity_bytes:
        The shared Placeless kernel, how many shards to build, and the
        physical content-store capacity *per shard*.
    cluster_policy:
        Opt-in sharing (:class:`~repro.cluster.policy.ClusterPolicy`):
        one transform memo and one flight table span every shard.
        Requires a ``memo_policy``; ``None`` builds fully isolated
        shards.
    memo_policy, concurrency_policy, recovery_policy:
        Forwarded to every shard.  A recovery policy is required for
        :meth:`rebalance`, :meth:`add_shard` and :meth:`lose_shard`
        (topology repair *is* an anti-entropy resync).
    overload_policy:
        Opt-in overload robustness (:class:`~repro.cache.policies
        .OverloadPolicy`), forwarded to every shard (deadline budgets +
        admission control per shard) and additionally activating the
        cluster-level machinery: a :class:`~repro.overload.health
        .HealthTracker` told by every shard's read terminals,
        hedged reads that launch a backup on the replica shard once a
        miss stalls at the fetch seam for the healthy fleet's p95
        (loser cancelled), and placement failover that routes around a
        shard with :data:`~repro.overload.health
        .UNHEALTHY_ERROR_THRESHOLD` consecutive failed reads — sending
        every fourth read through as a canary so
        :data:`~repro.overload.health.RECOVERY_SUCCESSES` clean
        responses restore stickiness.
        ``None`` (the default) keeps routing, reads and digests
        byte-identical to the pre-overload cluster.
    name:
        Prefix for shard names (``{name}-0`` … ``{name}-{N-1}``).
    shard_kwargs:
        Extra keyword arguments forwarded verbatim to every
        ``DocumentCache`` (write mode, feature flags, …), in one
        mapping with the four policies above — naming one of those
        here as well is a ``TypeError``.  Must not contain stateful
        per-cache objects — every shard receives the same mapping.
    """

    def __init__(
        self,
        kernel: "PlacelessKernel",
        shard_count: int,
        capacity_bytes: int,
        *,
        cluster_policy: ClusterPolicy | None = None,
        memo_policy: "MemoPolicy | None" = None,
        concurrency_policy: "ConcurrencyPolicy | None" = None,
        recovery_policy: "RecoveryPolicy | None" = None,
        overload_policy: "OverloadPolicy | None" = None,
        name: str = "cluster",
        shard_kwargs: dict | None = None,
    ) -> None:
        if shard_count < 1:
            raise CacheError(f"shard_count must be >= 1: {shard_count}")
        if cluster_policy is not None and memo_policy is None:
            raise CacheError("a cluster_policy requires a memo_policy")
        self.kernel = kernel
        self.ctx = kernel.ctx
        self.name = name
        self.cluster_policy = cluster_policy
        self.capacity_bytes = capacity_bytes
        #: Shard-health classification (``None`` without an overload
        #: policy): EWMA latency + error streaks per shard, told by
        #: every shard where a read ends (``core.health``).
        self.health: HealthTracker | None = None
        self._failed_over: set[str] = set()
        self._probes: dict[str, int] = {}
        self._hedge_wins: dict[str, int] = {}
        self._probe_queue: list[tuple[str, "DocumentReference"]] = []
        self._draining_probes = False
        #: Hedging is configured; it acts while two or more shards live.
        self._hedging = (
            overload_policy is not None and overload_policy.hedging
        )
        if overload_policy is not None:
            self.health = HealthTracker(
                min_samples=overload_policy.health_min_samples
            )
        self._next_index = 0
        names = [self._next_name() for _ in range(shard_count)]
        self._placement = HashRingPolicy(names)
        #: Names the hop every cross-shard transfer charges to the
        #: virtual clock (``shard-to-shard``).
        self.topology = ClusterTopology(shards=list(names))
        self.bus = InvalidationBus(self.ctx)
        self.shared_memo: SharedTransformMemo | None = None
        self.shared_flights: FlightTable | None = None
        if cluster_policy is not None:
            self.shared_memo = SharedTransformMemo(
                MEMO_CAPACITY * shard_count, topology=self.topology
            )
            self.shared_flights = FlightTable()
        #: The configuration every shard is built with, present and
        #: future (what the cluster owns — bus, memo, flights — is
        #: passed beside it).
        self._shard_kwargs = dict(
            memo_policy=memo_policy,
            concurrency_policy=concurrency_policy,
            recovery_policy=recovery_policy,
            overload_policy=overload_policy,
            **(shard_kwargs or {}),
        )
        self._shards: dict[str, DocumentCache] = {}
        #: ``core.metrics`` of the shards :meth:`lose_shard` removed,
        #: folded per group name.
        self._retired: dict[str, typing.Any] = {}
        for shard_name in names:
            self._build_shard(shard_name)
        #: Cluster-level invalidation bookkeeping (A17's fan-out metric).
        self.invalidations = 0
        self.invalidation_shard_touches = 0
        #: Entries repaired by every :meth:`rebalance` so far, including
        #: the passes :meth:`add_shard`/:meth:`lose_shard` run
        #: internally (A17's topology-churn metric).
        self.rebalance_repairs = 0

    # -- construction ---------------------------------------------------------

    def _next_name(self) -> str:
        shard_name = f"{self.name}-{self._next_index}"
        self._next_index += 1
        return shard_name

    def _build_shard(self, shard_name: str) -> DocumentCache:
        shard = DocumentCache(
            self.kernel,
            capacity_bytes=self.capacity_bytes,
            bus=self.bus,
            name=shard_name,
            memo=self.shared_memo,
            flights=self.shared_flights,
            **self._shard_kwargs,
        )
        if self.shared_memo is not None:
            self.shared_memo.attach(shard_name, shard.core)
        if self.health is not None:
            self.health.track(shard_name)
            shard.core.health = self.health
        self._shards[shard_name] = shard
        return shard

    # -- introspection --------------------------------------------------------

    @property
    def shards(self) -> dict[str, DocumentCache]:
        """Live shards by name (insertion order)."""
        return dict(self._shards)

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def shard_for(self, reference: "DocumentReference") -> DocumentCache:
        """The shard a reference's entry key currently places on."""
        return self._shards[
            self._placement.place(EntryKey.for_reference(reference))
        ]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards.values())

    def describe(self) -> str:
        """One line per shard plus the placement summary."""
        lines = [
            f"{self.name}: {len(self._shards)} shards, "
            f"{len(self)} entries, policy="
            f"{type(self._placement).__name__}"
        ]
        for shard_name, shard in self._shards.items():
            lines.append(
                f"  {shard_name}: {len(shard)} entries, "
                f"{shard.used_bytes}/{shard.capacity_bytes} bytes"
            )
        return "\n".join(lines)

    # -- aggregated statistics ------------------------------------------------

    def _total(self, name: str):
        """``core.metrics[name]`` summed over every live shard plus the
        shards :meth:`lose_shard` retired (``None`` when no shard ever
        kept that group) — totals never go backwards when a shard
        leaves."""
        parts = [
            shard.core.metrics[name]
            for shard in self._shards.values()
            if name in shard.core.metrics
        ]
        if name in self._retired:
            parts.append(self._retired[name])
        return merged(parts) if parts else None

    def aggregate_stats(self) -> CacheStats:
        """Cache counters summed across every shard, live or lost."""
        return self._total("cache")

    @property
    def hit_ratio(self) -> float:
        """Hits over reads, cluster-wide (0.0 when nothing was read)."""
        return self.aggregate_stats().hit_ratio

    @property
    def memo_stats(self) -> "MemoStats | None":
        """Memo counters summed across shards (``None`` without memo)."""
        return self._total("memo")

    @property
    def concurrency_stats(self) -> "ConcurrencyStats | None":
        """Single-flight counters summed across shards."""
        return self._total("concurrency")

    @property
    def overload_stats(self) -> "OverloadStats | None":
        """Overload counters summed across shards (``None`` without an
        overload policy) — admission sheds, deadline outcomes, hedge
        launches/wins and health failovers/recoveries."""
        return self._total("overload")

    @property
    def containment_stats(self) -> "ContainmentStats | None":
        """The kernel-wide containment guard's counters (``None``
        without one).  Every contained shard's
        ``core.metrics["containment"]`` is this same object, so it is
        never summed across shards and never retired with one."""
        guard = self.ctx.containment
        return guard.stats if guard is not None else None

    def health_snapshot(self) -> dict[str, dict[str, object]]:
        """Per-shard health table (empty without an overload policy)."""
        return self.health.snapshot() if self.health is not None else {}

    # -- read/write routing ---------------------------------------------------

    #: Every Nth read routed at a failed-over primary goes through as a
    #: canary, so ``RECOVERY_SUCCESSES`` clean responses can restore
    #: its placement stickiness (routing *everything* around a shard
    #: would starve the health tracker of recovery evidence).
    _PROBE_INTERVAL = 4

    def _serving_shard(self, reference: "DocumentReference") -> DocumentCache:
        """The shard that serves *reference* now: its placement, or
        the replica while the primary is failed over.

        :meth:`_failover` acts only on a primary that is unhealthy or
        still failed over, so it is walked only while some shard is
        failed over or the placed primary is unhealthy; a read of a
        healthy fleet costs the ring lookup alone.
        """
        key = EntryKey.for_reference(reference)
        shard_name = self._placement.place(key)
        health = self.health
        if health is not None and (
            self._failed_over or shard_name in health.unhealthy
        ):
            shard_name = self._failover(key, shard_name)
        return self._shards[shard_name]

    def _failover(self, key: EntryKey, primary: str) -> str:
        """Route around an unhealthy primary, probing for recovery."""
        health = self.health
        assert health is not None
        unhealthy = health.is_unhealthy(primary)
        core = self._shards[primary].core
        if unhealthy and primary not in self._failed_over:
            self._failed_over.add(primary)
            core.metrics["overload"].failovers += 1
            core.emit("health", "failover", shard=primary)
        elif not unhealthy and primary in self._failed_over:
            self._failed_over.discard(primary)
            self._probes.pop(primary, None)
            core.metrics["overload"].recoveries += 1
            core.emit("health", "recovered", shard=primary)
        if not unhealthy or len(self._shards) < 2:
            return primary
        count = self._probes.get(primary, 0) + 1
        self._probes[primary] = count
        if count % self._PROBE_INTERVAL == 0:
            return primary
        replica = self._replica_name(key, primary)
        return replica if replica is not None else primary

    def _replica_name(self, key: EntryKey, primary: str) -> str | None:
        """The backup shard for *key*: its ring successor, if live."""
        replica = self._placement.replica_for(key, primary)
        if replica is not None and replica in self._shards:
            return replica
        return None

    # -- hedged reads ---------------------------------------------------------

    def _hedging_active(self) -> bool:
        return self._hedging and len(self._shards) >= 2

    def _hedge_delay_ms(self, primary: str) -> float:
        """How long a miss may stall at the fetch seam before hedging.

        The healthy fleet's p95 read latency (excluding the primary),
        scaled by ``HEDGE_DELAY_FACTOR`` and clamped to the
        [``HEDGE_DELAY_MIN_MS``, ``HEDGE_DELAY_MAX_MS``] window; before
        the tracker has samples the max is used, so cold clusters hedge
        conservatively.
        """
        assert self.health is not None
        p95 = self.health.p95_healthy_ms(excluding=primary)
        base = p95 if p95 is not None else HEDGE_DELAY_MAX_MS
        delay = base * HEDGE_DELAY_FACTOR
        return min(max(delay, HEDGE_DELAY_MIN_MS), HEDGE_DELAY_MAX_MS)

    def _hedged_generator(
        self,
        shard: DocumentCache,
        reference: "DocumentReference",
        *,
        concurrent: bool,
        enqueued_ms: float | None = None,
    ):
        """The shard's pipeline generator, hedge-wrapped when warranted.

        A hedge is armed only when hedging is on and the health tracker
        classifies the primary as *gray* — hedging a healthy shard's misses would not
        just double load for nothing: in the synchronous simulator the
        backup always lands first, so the cancelled primary never fills
        and every future read of the key would miss-and-hedge forever.
        Gray-gated, fills land on the primary in the healthy steady
        state and only a genuinely slow shard's misses divert.

        The backup is a plain sequential read on the replica shard —
        a lone read never joins a flight, so it can never park on the
        one the primary may be leading.  A backup win ``close()``\\ s
        the primary; its led flight fails over to follower promotion.
        """
        primary_name = shard.core.name
        primary = shard.iterate_read(
            reference, concurrent=concurrent, enqueued_ms=enqueued_ms
        )
        if not self._hedging_active():
            return primary
        assert self.health is not None
        if not self.health.is_gray(primary_name):
            return primary
        backup_name = self._replica_name(
            EntryKey.for_reference(reference), primary_name
        )
        if backup_name is None:
            return primary
        backup = self._shards[backup_name]

        def note(outcome: str) -> None:
            stats = shard.core.metrics["overload"]
            if outcome == "launched":
                stats.hedges_launched += 1
            elif outcome == "won":
                stats.hedges_won += 1
            else:
                stats.hedges_lost += 1
            shard.core.emit(
                "hedge", outcome, shard=primary_name, backup=backup_name
            )
            if outcome == "won":
                self._note_hedge_win(primary_name, reference)

        return hedged_iterate(
            primary,
            lambda: backup.read(reference),
            clock=self.ctx.clock,
            delay_ms=self._hedge_delay_ms(primary_name),
            on_outcome=note,
        )

    #: Every Nth hedge win against one shard queues a probe-refill
    #: (see :meth:`_drain_probes`).
    _HEDGE_PROBE_INTERVAL = 4

    def _note_hedge_win(
        self, primary_name: str, reference: "DocumentReference"
    ) -> None:
        """Queue an off-path probe-refill every Nth win against a shard."""
        count = self._hedge_wins.get(primary_name, 0) + 1
        self._hedge_wins[primary_name] = count
        if count % self._HEDGE_PROBE_INTERVAL == 0:
            self._probe_queue.append((primary_name, reference))

    def _drain_probes(self) -> None:
        """Run queued probe-refills against gray shards, off-path.

        A hedge win cancels the primary's fetch, which starves the
        health tracker of the fresh samples it needs to ever declare
        the shard healthy again — and leaves the primary unfilled, so
        the key keeps missing there.  The probe re-reads the cancelled
        reference directly on the primary *after* the user-facing
        outcome is computed (the drain-prefetch shape): its latency
        charges the shared virtual clock but no user read's
        ``elapsed_ms``, its terminal read event refreshes the shard's
        fetch EWMA, and its fill restores placement locality.  Probe
        failures (sheds, fetch errors) are swallowed — the error feed
        into the tracker is signal enough.
        """
        if self._draining_probes:
            return
        self._draining_probes = True
        try:
            while self._probe_queue:
                shard_name, reference = self._probe_queue.pop(0)
                shard = self._shards.get(shard_name)
                if shard is None:
                    continue
                try:
                    shard.read(reference)
                except CacheError:
                    pass
        finally:
            self._draining_probes = False

    def read(self, reference: "DocumentReference") -> CacheReadOutcome:
        """Read through the owning shard (hedged when the overload
        policy enables hedging and a replica shard exists)."""
        if self._hedging and len(self._shards) >= 2:
            return self._read_driven(reference)
        return self._serving_shard(reference).read(reference)

    def write(self, reference: "DocumentReference", content: bytes) -> float:
        """Write through the owning shard; returns elapsed virtual ms."""
        return self._serving_shard(reference).write(reference, content)

    def read_many(
        self,
        references: typing.Sequence["DocumentReference"],
        *,
        return_exceptions: bool = False,
    ) -> list[CacheReadOutcome]:
        """Read a batch across shards; outcomes in submission order.

        With a ``concurrency_policy`` the whole batch — regardless of
        how many shards it touches — runs under one
        :func:`~repro.sim.scheduler.run_batch`: each reference's
        pipeline generator comes from its owning shard via
        :meth:`~repro.cache.manager.DocumentCache.iterate_read`, and
        with shared flights a miss on shard A parks followers from
        shard B on the same leader.  Without one, the batch degenerates
        to sequential routed reads (the byte-equivalence baseline).

        The batch settles by the same
        :func:`~repro.sim.scheduler.settle_batch` rule as
        :meth:`~repro.cache.manager.DocumentCache.read_many`; what the
        cluster adds is routing.  With an ``overload_policy`` every
        read shares the batch-start enqueue instant (sojourn and
        deadlines accrue while earlier reads hold the clock) and each
        generator is hedge-wrapped when hedging is on.
        """
        gated = self._shard_kwargs["overload_policy"] is not None
        concurrent = self._shard_kwargs["concurrency_policy"] is not None
        enqueued_ms = self.ctx.clock.now_ms if gated else None
        touched: dict[str, DocumentCache] = {}

        def iterate(reference):
            shard = self._serving_shard(reference)
            touched[shard.cache_id] = shard
            return self._hedged_generator(
                shard, reference, concurrent=True, enqueued_ms=enqueued_ms
            )

        def read_one(reference):
            if gated:
                return self._read_driven(reference, enqueued_ms)
            return self.read(reference)  # the historical sequential arm

        results = settle_batch(
            references,
            read_one,
            iterate,
            concurrent=concurrent,
            gated=gated,
            return_exceptions=return_exceptions,
        )
        if concurrent:
            for shard in touched.values():
                shard.drain_prefetch()
            self._drain_probes()
        return results

    def _read_driven(
        self, reference: "DocumentReference", enqueued_ms: float | None = None
    ) -> CacheReadOutcome:
        """One routed read through the generator seam: hedge-wrapped
        when hedging is on, and carrying a batch's enqueue instant.

        With hedging the read is ``concurrent`` so that it yields the
        fetch seam the hedge watches for; driven alone, it may lead a
        flight but never follows one.
        """
        shard = self._serving_shard(reference)
        outcome = drive(
            self._hedged_generator(
                shard, reference, concurrent=self._hedging_active(),
                enqueued_ms=enqueued_ms,
            )
        )
        shard.drain_prefetch()
        self._drain_probes()
        return outcome

    # -- invalidation ---------------------------------------------------------

    def invalidate_document(
        self, document_id: "DocumentId", user_id: "UserId | None" = None
    ) -> int:
        """Drop a document's entries on every shard; returns the count.

        Explicit invalidation cannot trust placement — older entries
        may predate a rebalance — so it fans out to every shard.  The
        fan-out bookkeeping (how many shards actually held entries)
        feeds A17's invalidation fan-out metric.
        """
        dropped_total = 0
        shards_touched = 0
        for shard in self._shards.values():
            dropped = shard.invalidate_document(document_id, user_id)
            dropped_total += dropped
            if dropped:
                shards_touched += 1
        self.invalidations += 1
        self.invalidation_shard_touches += shards_touched
        return dropped_total

    def clear(self) -> None:
        """Drop every entry on every shard."""
        for shard in self._shards.values():
            shard.clear()

    # -- topology changes: rebalance-as-resync --------------------------------

    def _misplacement(
        self, shard_name: str
    ) -> "typing.Callable[[CacheEntry], InvalidationReason | None]":
        """Doom predicate: entries whose key no longer places here."""

        def doomed(entry: "CacheEntry") -> InvalidationReason | None:
            if self._placement.place(entry.key) != shard_name:
                return InvalidationReason.EXPLICIT
            return None

        return doomed

    def rebalance(self) -> int:
        """Anti-entropy resync of every shard against the current ring.

        Each shard's :class:`~repro.cache.recovery
        .ConsistencyRecoveryManager` runs its normal resync with a
        doom predicate condemning re-placed entries — the A13 repair
        path, reused verbatim for topology repair.  Returns total
        entries repaired (dropped) across the cluster.
        """
        repairs = 0
        for shard_name, shard in self._shards.items():
            if shard.recovery is None:
                raise CacheError(
                    "rebalance reuses anti-entropy resync: every shard "
                    "needs a recovery_policy"
                )
            repairs += shard.recovery.resync(
                doomed=self._misplacement(shard_name)
            )
        self.rebalance_repairs += repairs
        return repairs

    def add_shard(self) -> str:
        """Grow the cluster by one shard and rebalance onto it.

        Returns the new shard's name.  Consistent hashing moves only
        ≈ ``K / (N+1)`` keys; the survivors' re-placed entries are
        dropped through the reused resync, and — with cross-shard memo
        sharing — the new shard warms those keys as signature-only
        adoptions instead of cold chain executions.
        """
        shard_name = self._next_name()
        self._placement.add_shard(shard_name)
        self.topology.add_shard(shard_name)
        try:
            self._build_shard(shard_name)
        except BaseException:
            # No shard, no ring position: keys must not route to it.
            self._placement.remove_shard(shard_name)
            self.topology.remove_shard(shard_name)
            raise
        self.rebalance()
        return shard_name

    def lose_shard(self, shard_name: str) -> int:
        """Simulate one shard's failure; survivors repair via resync.

        The dead shard's volatile state vanishes (a crash), everything
        it had on the bus and the clock — registration, lease tick,
        the fault plan's scheduled crash instants — is torn down
        (:meth:`~repro.cache.manager.DocumentCache.shutdown`), and it
        leaves the ring — with the shared memo plane *detached first*,
        because the cluster-wide memo view outlives any one member
        (records whose bytes died with the shard self-heal at consult
        time).  The survivors then run the same rebalance-as-resync
        pass, after which the dead shard's keys place on them.  The
        dead shard's counters are folded into the cluster's retired
        totals, so every aggregate still accounts for the reads it
        served.  Returns the survivors' repair count.
        """
        try:
            shard = self._shards.pop(shard_name)
        except KeyError:
            raise CacheError(f"unknown shard: {shard_name!r}") from None
        self._placement.remove_shard(shard_name)
        self.topology.remove_shard(shard_name)
        if self.health is not None:
            self.health.forget(shard_name)
            # A read through a kept handle must not report the departed
            # shard back into the health table.
            shard.core.health = None
        self._failed_over.discard(shard_name)
        self._probes.pop(shard_name, None)
        self._hedge_wins.pop(shard_name, None)
        if self.shared_memo is not None:
            self.shared_memo.detach(shard_name)
            # The dead process's view dies with it; the shared plane
            # must not be purged by this one member's crash.
            shard.core.memo = None
        shard.shutdown()
        for name, stats in shard.core.metrics.items():
            if stats is self.containment_stats:
                continue  # the world's, not the shard's to retire
            kept = self._retired.get(name)
            self._retired[name] = merged(
                [stats] if kept is None else [kept, stats]
            )
        return self.rebalance()

    def crash_shard(self, shard_name: str) -> None:
        """Crash one shard *in place*: volatile state vanishes, but the
        shard keeps its ring position and bus registration for
        :meth:`restart_shard` to recover — the rolling-restart shape,
        as opposed to :meth:`lose_shard`'s permanent departure.
        """
        try:
            shard = self._shards[shard_name]
        except KeyError:
            raise CacheError(f"unknown shard: {shard_name!r}") from None
        shard.crash()

    def restart_shard(self, shard_name: str) -> int:
        """Restart a :meth:`crash_shard`-crashed shard in place.

        Replays its write-back journal, re-grants its lease and — when
        the shard has a durable L2 tier — recovers the demotion
        catalog, so the shard comes back warm instead of empty.
        Returns the replayed dirty-write count.
        """
        try:
            shard = self._shards[shard_name]
        except KeyError:
            raise CacheError(f"unknown shard: {shard_name!r}") from None
        return shard.restart()
