"""Shared cache state and entry-table mechanics for the read/write paths.

:class:`CacheCore` is the hub both pipelines hold: the entry table, the
content store, the replacement/admission/degradation policies, the
topology, the instrumentation bus and the invalidation bus.  It owns
the *mechanics* that several steps share — install and arm (the one
way a version becomes a live entry), drop, evict, content replacement,
event forwarding, and :meth:`CacheCore.emit`, the one way a step
reports a stage event — while the per-step *logic* (verifier gating,
memo consults, fetch/degradation, admission) lives in
:mod:`repro.cache.pipeline` and the public API in
:mod:`repro.cache.manager`.

Everything here charges the virtual clock in exactly the order the
pre-pipeline monolith did; the equivalence tests pin that.
"""

from __future__ import annotations

import typing

from repro.cache.containment import BreakerConfig, BreakerRegistry, BreakerState
from repro.cache.entry import CacheEntry, EntryKey
from repro.cache.instrumentation import InstrumentationBus, StageEvent
from repro.cache.memo import ChainFingerprint, MemoRecord, TransformMemo
from repro.cache.notifiers import InvalidationBus, install_minimum_notifiers
from repro.cache.stats import CacheStats
from repro.content.store import ContentStore
from repro.contract.consistency import Invalidation, InvalidationReason
from repro.contract.verifiers import Verdict
from repro.errors import CacheCapacityError, CacheError
from repro.events.types import EventType
from repro.faults.retry import RetryPolicy
from repro.ids import DocumentId, UserId
from repro.overload.budget import DeadlineBudget
from repro.overload.gate import OverloadGate
from repro.placeless.kernel import PlacelessKernel
from repro.placeless.reference import DocumentReference
from repro.sim.context import SimContext
from repro.sim.scheduler import FlightTable
from repro.sim.topology import CachePlacement, Topology

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.cache.containment import ContainmentGuard
    from repro.cache.manager import WriteMode
    from repro.cache.policies import ConcurrencyPolicy, DegradationPolicy
    from repro.cache.recovery import ConsistencyRecoveryManager
    from repro.cache.replacement import ReplacementPolicy
    from repro.overload.health import HealthTracker
    from repro.storage.tier import L2Tier

__all__ = [
    "CacheCore",
    "NOTIFIER_INSTALL_COST_MS",
    "VERIFIER_INSTALL_COST_MS",
    "ADOPTION_COST_MS",
    "PROBE_COST_MS",
]

#: Simulated cost of creating one notifier property at fill time — part
#: of the small miss overhead Table 1 reports.
NOTIFIER_INSTALL_COST_MS = 0.15
#: Simulated cost of receiving/registering one verifier at fill time.
VERIFIER_INSTALL_COST_MS = 0.05
#: Simulated cost of the metadata exchange that establishes a
#: (document, user) → signature mapping over bytes the cache already
#: holds: charged for a memo serve and an L2 promotion.
ADOPTION_COST_MS = 0.3
#: Simulated cost of probing the repository's current source signature
#: (a metadata-only exchange): the memo step's class-(a) check and the
#: L2 tier's promote-time source gate.
PROBE_COST_MS = 0.2


class CacheCore:
    """Mutable state + shared mechanics behind one ``DocumentCache``.

    Slotted: a core has no instance ``__dict__``, so every attribute
    load on the read path is a fixed-offset slot read however many
    attributes the core carries.  Under CPython 3.11 a dict-backed
    instance past 29 attributes loses its shared-key layout, and every
    attribute load on a cluster shard's core got slower (perfbench
    ``hot_hits`` ``hit_p50_us`` +8 % at the 30th).  A new attribute is
    a new slot name; a test that swaps a method patches the class.
    """

    __slots__ = (
        "kernel", "ctx", "capacity_bytes", "name", "cache_id", "policy",
        "degradation", "quarantine", "instrumentation", "bus", "topology",
        "write_mode", "install_notifiers", "use_verifiers",
        "retry_policy", "stats", "metrics", "store",
        "entries", "entries_by_document", "dirty", "recovery",
        "containment", "memo", "flights", "concurrency", "l2", "overload",
        "health",
    )

    def __init__(
        self,
        kernel: "PlacelessKernel",
        capacity_bytes: int,
        name: str,
        policy: "ReplacementPolicy",
        degradation: "DegradationPolicy",
        bus: InvalidationBus | None,
        placement: "CachePlacement | None",
        write_mode: "WriteMode",
        install_notifiers: bool,
        use_verifiers: bool,
        retry_policy: "RetryPolicy | None",
    ) -> None:
        if capacity_bytes <= 0:
            raise CacheCapacityError(
                f"capacity must be positive: {capacity_bytes}"
            )
        self.kernel = kernel
        self.ctx: "SimContext" = kernel.ctx
        self.capacity_bytes = capacity_bytes
        #: The plain cache name, before id-minting prefixes it — the
        #: target string fault-plan gray windows match against.
        self.name = name
        self.cache_id = self.ctx.ids.cache(name)
        self.policy = policy
        self.degradation = degradation
        threshold = degradation.verifier_quarantine_threshold
        #: The verifier quarantine, the hit's one verifier gate with or
        #: without containment, as circuit breakers keyed by
        #: :func:`~repro.cache.containment.verifier_key`: ``threshold``
        #: consecutive raises trip, and with no probation delay an open
        #: breaker stays open until ``quarantine.reset_all()``.  State,
        #: so per cache — the policy that sets the threshold may be
        #: shared by many.
        self.quarantine = BreakerRegistry(BreakerConfig(
            failure_threshold=threshold if threshold is not None else 1,
            probation_delay_ms=None,
            half_open_successes=1,
        ))
        #: Every stage event of this cache is emitted here.
        self.instrumentation = InstrumentationBus()
        # The invalidation bus, shared or private, counts its deliveries
        # in its own ``stats``; this cache counts what it receives.
        self.bus = bus or InvalidationBus(self.ctx)
        self.topology = (
            self.ctx.topology if placement is None
            else Topology(placement=placement)
        )
        self.write_mode = write_mode
        self.install_notifiers = install_notifiers
        self.use_verifiers = use_verifiers
        self.retry_policy = retry_policy
        self.stats = CacheStats()
        #: The stats object of every wired seam, by name: ``cache``,
        #: ``memo``, ``concurrency``, ``overload``, ``containment``,
        #: ``recovery``, ``storage``.  Each counter in them is written
        #: where its event is decided, not derived from the bus.
        self.metrics: dict[str, typing.Any] = {"cache": self.stats}
        self.store = ContentStore()
        self.entries: dict[EntryKey, CacheEntry] = {}
        #: Secondary index: document → that document's live entries, in
        #: global insertion order.  Invalidation fan-out was O(total
        #: entries) per event without it, which is what made
        #: million-entry tables unusable.
        self.entries_by_document: dict[
            "DocumentId", dict[EntryKey, CacheEntry]
        ] = {}
        self.dirty: dict[EntryKey, tuple["DocumentReference", bytes]] = {}
        #: The consistency-recovery coordinator, installed by the manager
        #: when a recovery policy is configured; ``None`` (the default)
        #: leaves every pipeline seam recovery-free and byte-identical.
        self.recovery: "ConsistencyRecoveryManager | None" = None
        #: This cache's handle on the world's containment guard
        #: (``ctx.containment``), set by the manager when a containment
        #: policy is configured; ``None`` (the default) keeps this
        #: cache's own seams — the memo and single-flight bail-outs — on
        #: the historical unguarded path.
        self.containment: "ContainmentGuard | None" = None
        #: The transform memoization plane, installed by the manager
        #: when a memo policy is configured; ``None`` (the default)
        #: keeps the read pipeline's memo step a strict no-op and the
        #: golden digests byte-identical.
        self.memo: TransformMemo | None = None
        #: In-progress single-flight misses (always constructed, only
        #: ever populated by a ``concurrent`` read under a concurrency
        #: policy whose ``coalesce`` flag is on).
        self.flights = FlightTable()
        #: The concurrency policy, installed by the manager when one is
        #: configured; ``None`` (the default) keeps the single-flight
        #: step a strict no-op.
        self.concurrency: "ConcurrencyPolicy | None" = None
        #: The durable L2 tier, installed by the manager when a storage
        #: policy is configured; ``None`` (the default) keeps the
        #: pipeline's L2 step a strict no-op, evictions purely
        #: destructive and restarts cold.
        self.l2: "L2Tier | None" = None
        #: The overload gate (deadlines + admission control), installed
        #: by the manager when an overload policy is configured;
        #: ``None`` (the default) keeps every read unbudgeted and
        #: unshed — the historical path the golden digests pin.
        self.overload: "OverloadGate | None" = None
        #: The cluster's shard-health tracker, set by the cluster that
        #: owns this shard: each read terminal tells it the read's
        #: latency, and a failed fetch tells it the error.  ``None`` for
        #: a standalone cache.
        self.health: "HealthTracker | None" = None

    # -- instrumentation -----------------------------------------------------

    def emit(
        self,
        stage: str,
        outcome: str,
        key: "EntryKey | Invalidation | None" = None,
        started_ms: float | None = None,
        ended_ms: float | None = None,
        **payload,
    ) -> None:
        """Publish one stage event that ended at *ended_ms* (default:
        now) and started at *started_ms* (default: when it ended).

        Builds a :class:`StageEvent`, and reads the clock, only when
        the bus has a subscriber (the hit's events and ``drop`` ask
        first and skip the call).  Counters are not derived here: the
        caller has already written the ones this event decides.  *key*
        is anything carrying a ``document_id`` and a ``user_id`` (an
        entry key, a delivered :class:`Invalidation`).
        """
        bus = self.instrumentation
        if bus.has_subscribers:
            if ended_ms is None:
                ended_ms = self.ctx.clock.now_ms
            if started_ms is None:
                started_ms = ended_ms
            bus.emit(StageEvent(
                stage, outcome,
                None if key is None else key.document_id,
                None if key is None else key.user_id,
                started_ms, ended_ms, payload,
            ))

    def verifier_executed(
        self, key: EntryKey, started_ms: float, cost_ms: float
    ) -> None:
        """Account one verifier run."""
        stats = self.stats
        stats.verifier_executions += 1
        stats.verifier_cost_ms += cost_ms
        if self.instrumentation.has_subscribers:
            self.emit("verifier", "executed", key, started_ms, cost_ms=cost_ms)

    def hit_served(
        self, disposition: str, key: EntryKey, started_ms: float, size: int
    ) -> float:
        """Account one verified hit (the terminal ``read`` event,
        *disposition* ``hit`` or ``revalidated``); returns the read's
        elapsed virtual milliseconds."""
        now = self.ctx.clock.now_ms
        elapsed = now - started_ms
        stats = self.stats
        stats.hits += 1
        stats.hit_latency_ms += elapsed
        stats.bytes_served_from_cache += size
        if self.health is not None:
            self.health.observe_read(self.name, elapsed, fetched=False)
        if self.instrumentation.has_subscribers:
            self.emit("read", disposition, key, started_ms, now, bytes=size)
        return elapsed

    def verifiers_agree(
        self, key: EntryKey, verifiers, content: bytes,
        faulted: bool = False,
    ) -> bool:
        """Re-run *verifiers* over bytes about to be reused (a memo
        record, a demoted copy): True when every one says VALID.  Each
        runs at the clock after its charge.  *faulted* runs also consult
        the fault plan's verifier seam, as the hit-time gate does — set
        where the bytes would be served as the key's own version (L2
        promotion), not where they are reused for another key
        (DESIGN.md §6)."""
        clock = self.ctx.clock
        faults = self.ctx.faults if faulted else None
        for verifier in verifiers:
            started_ms = clock.now_ms
            clock.charge(verifier.cost_ms)
            self.verifier_executed(key, started_ms, verifier.cost_ms)
            try:
                if faults is not None:
                    faults.check_verifier(
                        verifier.cost_ms, label=type(verifier).__name__
                    )
                result = verifier.run(clock.now_ms, content)
            except Exception:
                return False
            if result.verdict is not Verdict.VALID:
                return False
        return True

    # -- fetch ----------------------------------------------------------------

    def fetch(self, reference: "DocumentReference"):
        """Fetch content + path metadata: the full Placeless read path."""
        outcome = self.kernel.read(reference)
        return outcome.content, outcome.meta

    def fetch_with_retry(
        self,
        reference: "DocumentReference",
        budget: "DeadlineBudget | None" = None,
    ):
        """Fetch under the retry policy, if any.

        A *budget* caps retry backoff at the read's remaining deadline
        (re-evaluated before each sleep) — retries never burn time the
        caller no longer has.  A gray-failing shard (fault-plan window
        targeting this cache's name) charges its slow-fetch penalty
        here, before the fetch proper, which is what the cluster's
        hedge delay races against.

        Fetch work starts only here, so here the ``deadline_violations``
        invariant is observed (never enforced): ``deadline/violated``
        when the first attempt — before the gray penalty, which is the
        fetch being slow, not starting late — or a retry begins with
        *budget* expired.  The fetch gate and backoff cap keep it at 0.
        """

        def observe_start() -> None:
            if budget is not None and budget.expired:
                stats = self.metrics.get("overload")
                if stats is not None:
                    stats.deadline_violations += 1
                self.emit("deadline", "violated")

        observe_start()
        faults = self.ctx.faults
        if faults is not None:
            gray_ms = faults.gray_fetch_delay_ms(self.name)
            if gray_ms > 0.0:
                self.ctx.charge(gray_ms)
                self.emit("fetch", "gray-slow", delay_ms=gray_ms)
        if self.retry_policy is None:
            return self.fetch(reference)

        def on_retry(attempt: int, delay_ms: float, error) -> None:
            self.count_retry(attempt, delay_ms, error)
            observe_start()

        return self.retry_policy.call(
            self.ctx,
            lambda: self.fetch(reference),
            on_retry=on_retry,
            budget_ms=None if budget is None else (lambda: budget.remaining_ms),
        )

    def count_retry(
        self, attempt: int, delay_ms: float, error: BaseException
    ) -> None:
        """Retry-policy callback: account one backoff wait."""
        self.stats.retries += 1
        self.stats.retry_delay_ms += delay_ms
        self.emit("fetch", "retry", delay_ms=delay_ms, attempt=attempt)

    # -- entry-table mechanics -------------------------------------------------

    def fill(
        self, reference: "DocumentReference", content: bytes, meta
    ) -> CacheEntry:
        """Admit fetched *content* as *reference*'s (new) live entry."""
        # ``put`` signs, once: the signature feeds the entry and the
        # transform memo.  ``install`` displaces the superseded version
        # before it makes room, so its bytes never count against the
        # capacity.
        signature = self.store.put(content)
        entry = self.install(
            reference, meta, signature, len(content), meta.verifiers
        )
        # Fill overhead: register the returned verifiers and install the
        # minimum notifier set — Table 1's miss-vs-no-cache delta.
        self.ctx.charge(VERIFIER_INSTALL_COST_MS * len(meta.verifiers))
        self.arm(reference, entry)
        return entry

    def install(
        self, reference: "DocumentReference", facts, signature,
        size: int, verifiers,
    ) -> CacheEntry:
        """Make the version ``signature`` the live entry for *reference*.

        The one place a version's facts become a :class:`CacheEntry`.
        *facts* is whichever record the caller holds — the read path's
        ``PathMeta``, a ``MemoRecord``, an ``L2Record`` — all of which
        spell the §3 metadata the same way: ``cacheability``,
        ``replacement_cost_ms``, ``chain_signature``,
        ``source_signature``, ``pinned``.  The caller already holds the
        store reference the entry takes over (``put_signed``/``adopt``).
        Nothing else writes the entry table or the per-document index.

        Install makes room *before* the entry exists — the one capacity
        rule for every source — so the heap policy never meets, pops and
        orphans the entry being installed.  If room cannot be made the
        handed-over store reference is released and the error propagates:
        a fill that fails leaves the store as it found it.
        """
        key = EntryKey.for_reference(reference)
        self.displace(key)
        try:
            self.evict_to_capacity()
        except CacheError:
            self.store.release(signature)
            raise
        now = self.ctx.clock.now_ms
        entry = CacheEntry(
            key=key,
            signature=signature,
            size=size,
            cacheability=facts.cacheability,
            verifiers=list(verifiers),
            replacement_cost_ms=facts.replacement_cost_ms,
            chain_signature=facts.chain_signature,
            reference_id=reference.reference_id,
            created_at_ms=now,
            last_access_ms=now,
            pinned=facts.pinned,
            source_signature=facts.source_signature,
        )
        self.entries[key] = entry
        bucket = self.entries_by_document.get(key.document_id)
        if bucket is None:
            bucket = self.entries_by_document[key.document_id] = {}
        bucket[key] = entry
        self.policy.on_insert(entry)
        return entry

    def arm(self, reference: "DocumentReference", entry: CacheEntry) -> None:
        """Arm a just-installed entry: the §3 minimum notifier set on
        the reference's path (charged per notifier created), and the
        recovery manager's handle on the reference for resync."""
        if self.install_notifiers:
            installed = install_minimum_notifiers(
                reference, self.bus, self.cache_id
            )
            self.ctx.charge(NOTIFIER_INSTALL_COST_MS * len(installed))
        if self.recovery is not None:
            self.recovery.note_reference(entry.key, reference)

    def displace(self, key: EntryKey) -> None:
        """Forget the entry *key* maps to, if any: it is being
        superseded, not invalidated, so nothing is emitted."""
        existing = self.entries.get(key)
        if existing is not None:
            self.remove_entry(existing)

    def evict_to_capacity(self, protect: EntryKey | None = None) -> None:
        """Evict victims until physical bytes fit the capacity.

        The policy receives the full entry table plus the protected key
        and performs its own pinned/protected filtering — rebuilding a
        filtered candidate dict here cost O(n) per victim, which at
        10^5+ entries turned every capacity overrun into a table scan.
        """
        while self.store.physical_bytes > self.capacity_bytes:
            try:
                victim_key = self.policy.select_victim(
                    self.entries, protect=protect
                )
            except CacheError:
                raise CacheError(
                    "cannot satisfy capacity: nothing evictable"
                ) from None
            victim = self.entries[victim_key]
            if self.l2 is not None and victim.signature in self.store:
                # Demote-on-evict: the victim's bytes + metadata spill
                # to the durable tier before the entry is destroyed.
                self.l2.demote(victim, self.store.get(victim.signature))
            self.drop(victim, InvalidationReason.EVICTED, origin="internal")
            self.stats.evictions += 1
            self.emit("eviction", "evicted", key=victim_key)

    def drop(
        self,
        entry: CacheEntry,
        reason: InvalidationReason,
        origin: str = "internal",
    ) -> None:
        """Invalidate and remove an entry, releasing its content bytes."""
        self.stats.record_invalidation(reason)
        if self.instrumentation.has_subscribers:
            self.emit(
                "invalidation", reason.value, key=entry.key,
                reason=reason, origin=origin,
            )
        if self.l2 is not None and reason is not InvalidationReason.EVICTED:
            # An invalidation (notifier, verifier, explicit, resync)
            # kills the demoted copy too — eviction is the one reason
            # that *feeds* the L2 tier rather than purging it.
            self.l2.drop(entry.key)
        self.remove_entry(entry)

    def invalidate_local(
        self, key: EntryKey, reason: InvalidationReason
    ) -> None:
        """Drop this cache's entry for *key*, if present."""
        entry = self.entries.get(key)
        if entry is not None:
            self.drop(entry, reason, origin="internal")

    def apply_invalidation(self, invalidation: Invalidation) -> None:
        """Sink for the invalidation bus: account one notifier delivery,
        then drop what it covers."""
        self.stats.notifier_deliveries += 1
        self.emit("notifier", "delivered", invalidation)
        self._drop_covered(invalidation)

    def invalidate_document(
        self, document_id: "DocumentId", user_id: "UserId | None" = None
    ) -> int:
        """Explicitly drop entries for a document; returns count dropped."""
        return self._drop_covered(Invalidation(
            reason=InvalidationReason.EXPLICIT,
            document_id=document_id,
            user_id=user_id,
            at_ms=self.ctx.clock.now_ms,
        ))

    def _drop_covered(self, invalidation: Invalidation) -> int:
        """Drop the entries *invalidation* covers; returns how many.

        An invalidation names its document, so only that document's
        bucket (usually none) can match.  Bucket order is global insertion
        order restricted to the document, so drops happen in the relative
        order a full-table scan would produce.
        """
        bucket = self.entries_by_document.get(invalidation.document_id)
        if bucket is None:
            return 0
        scope = invalidation.user_id
        dropped = 0
        for key in list(bucket):
            if scope is None or key.user_id == scope:
                self.drop(
                    self.entries[key], invalidation.reason,
                    origin=invalidation.origin,
                )
                dropped += 1
        return dropped

    def clear(self) -> None:
        """Drop every entry (flushing nothing; dirty buffers survive)."""
        for entry in list(self.entries.values()):
            self.drop(entry, InvalidationReason.EXPLICIT)

    def remove_entry(self, entry: CacheEntry) -> None:
        """Forget an entry and release its content-store reference."""
        if self.entries.get(entry.key) is entry:
            del self.entries[entry.key]
            bucket = self.entries_by_document.get(entry.key.document_id)
            if bucket is not None:
                bucket.pop(entry.key, None)
                if not bucket:
                    del self.entries_by_document[entry.key.document_id]
            self.store.release(entry.signature)
            self.policy.on_remove(entry)

    def replace_content(self, entry: CacheEntry, content: bytes) -> None:
        """Swap an entry's bytes (verifier REVALIDATED patching)."""
        self.store.release(entry.signature)
        entry.signature = self.store.put(content)
        entry.size = len(content)
        self.evict_to_capacity(protect=entry.key)

    # -- transform memoization -------------------------------------------------

    def memo_record_output(
        self,
        fingerprint: ChainFingerprint | None,
        meta,
        entry: CacheEntry,
    ) -> None:
        """Admission hook: memoize a freshly admitted transform output.

        Only called for undegraded, admitted fills; a ``None``
        fingerprint means the memo step never consulted (memo off, or
        the chain was containment-blocked) and nothing is recorded.
        """
        if self.memo is None or fingerprint is None:
            return
        if meta.source_signature is None:
            return
        record = MemoRecord(
            document_id=entry.key.document_id,
            source_signature=meta.source_signature,
            fingerprint=fingerprint,
            output_signature=entry.signature,
            size=entry.size,
            cacheability=entry.cacheability,
            verifiers=tuple(entry.verifiers),
            replacement_cost_ms=entry.replacement_cost_ms,
            chain_signature=entry.chain_signature,
            pinned=entry.pinned,
        )
        evicted = self.memo.record(record)
        if self.l2 is not None:
            self.l2.spill_memo(record)
        stats = self.metrics["memo"]
        stats.records += 1
        self.emit("memo", "recorded", key=entry.key)
        if evicted:
            stats.evictions += evicted
            self.emit("memo", "evicted", records=evicted)

    def memo_purge(self, origin: str) -> int:
        """Drop every memo record (resync/crash/explicit); returns count.

        Silent when the memo is off or already empty; otherwise emits
        one ``memo``/``purged`` event carrying the record count and the
        purge origin.
        """
        if self.memo is None:
            return 0
        purged = self.memo.purge_all()
        if purged:
            self.metrics["memo"].purged += purged
            self.emit("memo", "purged", records=purged, origin=origin)
        return purged

    def note_verifier_failure(self, key: tuple["DocumentId", str]) -> bool:
        """Record one verifier raise; True when this newly quarantines."""
        if self.degradation.verifier_quarantine_threshold is None:
            return False
        return self.quarantine.get(key).record_failure()

    def note_verifier_success(self, key: tuple["DocumentId", str]) -> None:
        """A verifier ran clean; reset its failure streak."""
        breaker = self.quarantine.peek(key)
        if breaker is not None:
            breaker.record_success()

    def is_quarantined(self, key: tuple["DocumentId", str]) -> bool:
        """Is this (document, verifier type) currently quarantined?"""
        breaker = self.quarantine.peek(key)
        return breaker is not None and breaker.state is BreakerState.OPEN

    def note_verifier_caught_lost(self, entry: CacheEntry) -> None:
        """Count a verifier invalidation that covered a lost callback."""
        if self.bus.consume_lost(entry.document_id):
            self.stats.dropped_notifier_detected += 1
            self.emit("bus-loss", "detected", key=entry.key)

    # -- event forwarding -------------------------------------------------------

    def forward_read(self, reference: "DocumentReference") -> None:
        """Forward a cache-served read as READ_FORWARDED events.

        "the cache will forward the operation, but the Placeless system
        will not execute them fully, instead just use them to trigger
        active properties that have registered for these events." (§3)
        """
        for hop in self.topology.notifier_path():
            self.ctx.charge_hop(hop, 0)
        event = reference.make_event(EventType.READ_FORWARDED)
        reference.base.dispatch(event)
        reference.dispatch(event)
        self.stats.forwarded_reads += 1
        self.emit("forward", "read", key=EntryKey.for_reference(reference))

    def forward_write(
        self, reference: "DocumentReference", size: int
    ) -> None:
        """Forward a buffered write as WRITE_FORWARDED events, if wanted."""
        base_wants = reference.base.has_listener(EventType.WRITE_FORWARDED)
        ref_wants = reference.has_listener(EventType.WRITE_FORWARDED)
        if not (base_wants or ref_wants):
            return
        # Stamped before the hops are charged, as the write happened.
        event = reference.make_event(
            EventType.WRITE_FORWARDED, payload={"size": size}
        )
        for hop in self.topology.notifier_path():
            self.ctx.charge_hop(hop, 0)
        if base_wants:
            reference.base.dispatch(event)
        if ref_wants:
            reference.dispatch(event)
        self.stats.forwarded_writes += 1
        self.emit("forward", "write", key=EntryKey.for_reference(reference))
