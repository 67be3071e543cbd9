"""The read and write paths behind :class:`DocumentCache`.

A read is a **hit prefix** and, when that does not answer it, the
**miss steps**, which :meth:`ReadPipeline._iterate` calls in this order:

    prefix: dirty-flush → lookup → verifier gate  (one call: serve)
    miss: _promote → _memo → _coalesce → _fetch → _degrade → _fill

The prefix is :meth:`ReadPipeline.serve`, and for a lone read one plain
method call: a verified hit allocates no :class:`ReadContext`, no
deadline budget and no generator, whatever seams the cache was built
with.  Each miss step is a private :class:`ReadPipeline` method over
the read's :class:`ReadContext`.  Three of them can answer the read —
L2 promotion, memo and the admission fill — and differ only
in how they come to hold the bytes: each hands the version to
:meth:`CacheCore.install` / ``arm`` and ends in
:meth:`ReadPipeline._finish`, the one way a miss ends.  Every read,
hit or miss, returns a :class:`CacheReadOutcome`.  Single-flight may
instead park the read on another read's in-progress flight.  The write
path is :meth:`WritePipeline.write` (through, or into the write-back
buffer) plus :meth:`WritePipeline.flush`, shared by write-back draining
and the prefix's dirty check.

Steps stay synchronous; *scheduling* is externalised.  The miss runs
as a generator: :func:`~repro.sim.scheduler.drive` runs it inline
(reads the prefix did not terminate — operation order, clock charges
and fault-plan consultations exactly as a plain call performs them,
which the golden digests pin), and a
``concurrent`` one yields suspension markers at the verifier and fetch
seams for :func:`~repro.sim.scheduler.run_batch` to interleave, with
single-flight request coalescing (see :meth:`ReadPipeline._coalesce`).

Steps are methods: everything mutable lives in the
:class:`~repro.cache.core.CacheCore` the two pipelines share.  A step
that decides a counter writes it, then reports the stage event through
:meth:`~repro.cache.core.CacheCore.emit`.
"""

from __future__ import annotations

import enum
import typing
from dataclasses import dataclass

from repro.cache.containment import verifier_key
from repro.cache.core import ADOPTION_COST_MS, PROBE_COST_MS, CacheCore
from repro.cache.entry import CacheEntry, EntryKey
from repro.cache.memo import ChainFingerprint
from repro.cache.policies import AdmissionDecision, vote_admission
from repro.contract.cacheability import Cacheability
from repro.contract.consistency import InvalidationReason
from repro.contract.verifiers import Verdict
from repro.errors import CacheError, OverloadShedError
from repro.overload.admission import PRIORITY_NAMES
from repro.overload.budget import DeadlineBudget
from repro.placeless.chain import read_plan
from repro.placeless.document import PathMeta
from repro.placeless.reference import DocumentReference
from repro.sim.scheduler import FETCH_SEAM, VERIFIER_SEAM, Suspension, drive

__all__ = [
    "WriteMode",
    "CacheReadOutcome",
    "ReadContext",
    "ReadPipeline",
    "WritePipeline",
]


class WriteMode(enum.Enum):
    """Write-through vs. write-back (§3, Cache Management)."""

    WRITE_THROUGH = "write-through"
    WRITE_BACK = "write-back"


@dataclass(slots=True)
class CacheReadOutcome:
    """Result of one read through the cache."""

    content: bytes
    hit: bool
    elapsed_ms: float
    #: "hit", "revalidated", "miss", "miss-verifier", "miss-invalidated",
    #: "uncacheable", "miss-oversize", "miss-memoized" (served by the
    #: transform memo: the recorded output's signature, no chain
    #: execution), "miss-promoted" (served by promoting a demoted copy
    #: back from the durable L2 tier — chain-, source-, CRC- and
    #: verifier-gated), or a degraded mode: "stale-on-error" (bounded
    #: stale bytes served because the refetch failed) / "miss-degraded"
    #: (a containment skip left part of the chain unrun).
    disposition: str

    @property
    def degraded(self) -> bool:
        """True when this read was answered in a degradation mode."""
        return self.disposition in ("stale-on-error", "miss-degraded")


@dataclass(slots=True)
class ReadContext:
    """Mutable state threaded through the miss steps for one read."""

    reference: "DocumentReference"
    key: EntryKey
    started_ms: float
    #: Invalidated-but-still-held bytes and their fill time, kept for
    #: bounded serve-stale-on-error.
    stale: tuple[bytes, float] | None = None
    #: Fetched content + path metadata, once the fetch step ran.
    content: bytes | None = None
    meta: "PathMeta | None" = None
    #: The fetch failure awaiting the degradation step's decision.
    fetch_error: BaseException | None = None
    #: The chain fingerprint the memo step computed for this read;
    #: ``None`` when the memo is off or the chain was not consultable
    #: (e.g. containment-blocked), in which case admission records
    #: nothing.
    memo_fingerprint: ChainFingerprint | None = None
    #: The source signature the memo step probed alongside the
    #: fingerprint — together they form the memo-plane coalescing key.
    memo_source: typing.Any = None
    #: May this read yield seams and open or join flights?  True only
    #: for batch members and hedged reads; nested reads — prefetch
    #: drains — always run sequentially.
    concurrent: bool = False
    #: The single-flight this read *leads*, if any; resolved when the
    #: read terminates (landed) or raises (failed → follower promotion).
    flight: typing.Any = None
    #: When the read entered the system (a batch's start instant for
    #: ``read_many``); the admission controller's sojourn signal.
    #: ``None`` means it arrived the moment the pipeline started.
    enqueued_ms: float | None = None
    #: The read's end-to-end deadline budget; ``None`` when the
    #: overload layer is off (the default) or deadlines are disabled.
    budget: "DeadlineBudget | None" = None


class ReadPipeline:
    """Runs the hit prefix, then the miss steps, to a terminal result.

    Two entries over the same steps.  :meth:`read` calls the prefix as
    a plain method and builds a :class:`ReadContext`, a deadline budget
    and a generator only if the prefix did not answer.  :meth:`iterate`
    is the whole read as a generator: ``read_many`` batches and cluster
    fan-outs under :func:`~repro.sim.scheduler.run_batch`, and hedged
    reads.
    """

    def __init__(self, core: CacheCore, writes: "WritePipeline") -> None:
        self.core = core
        self.writes = writes
        self._hit_path = tuple(core.topology.hit_path())

    def read(
        self,
        reference: "DocumentReference",
        enqueued_ms: float | None = None,
    ) -> CacheReadOutcome:
        """Application read: a ``CacheReadOutcome``, the prefix first.

        A lone read has nobody to interleave with, so it yields no
        seams and neither opens nor joins a flight.
        """
        core = self.core
        key = EntryKey.for_reference(reference)
        started_ms = core.ctx.clock.now_ms
        overload = core.overload
        if overload is not None and overload.admission is not None:
            self._admit(reference, key, enqueued_ms)
        result, stale = self.serve(reference, key, started_ms)
        if result is not None:
            return result
        ctx = self._context(
            reference, key, started_ms, concurrent=False,
            enqueued_ms=enqueued_ms,
        )
        ctx.stale = stale
        return drive(self._iterate(ctx, prefix_ran=True))

    def iterate(
        self,
        reference: "DocumentReference",
        *,
        concurrent: bool = False,
        enqueued_ms: float | None = None,
    ):
        """One read as a generator for ``drive`` or ``run_batch``.

        ``concurrent`` says the read may yield seam markers and open or
        join flights — i.e. that whatever drives it can interleave and
        park it.  Nested reads (prefetch drains) leave it off and run
        sequentially.  ``enqueued_ms`` back-dates the read's arrival
        (``read_many`` batches pass their start instant) for the
        admission controller's sojourn signal.
        """
        return self._iterate(self._context(
            reference, EntryKey.for_reference(reference),
            self.core.ctx.clock.now_ms, concurrent, enqueued_ms,
        ))

    def _context(
        self,
        reference: "DocumentReference",
        key: EntryKey,
        started_ms: float,
        concurrent: bool,
        enqueued_ms: float | None,
    ) -> ReadContext:
        budget = None
        if self.core.overload is not None:
            # The budget starts at *enqueue* (else the read's recorded
            # start): queueing delay counts against the deadline, which
            # is what makes sojourn-based shedding protect the reads
            # that are admitted.
            budget = self.core.overload.budget_for(
                reference, started_ms if enqueued_ms is None else enqueued_ms
            )
        return ReadContext(
            reference=reference,
            key=key,
            started_ms=started_ms,
            concurrent=concurrent,
            enqueued_ms=enqueued_ms,
            budget=budget,
        )

    def _admit(
        self,
        reference: "DocumentReference",
        key: EntryKey,
        enqueued_ms: float | None,
    ) -> None:
        """Ask admission control; raises the typed error when shed.
        Called only when the gate has admission control
        (``shedding=True``): without it every read is admitted unasked."""
        core = self.core
        decision = core.overload.admit(reference, enqueued_ms)
        if decision is None:
            return
        priority = PRIORITY_NAMES[decision.priority]
        stats = core.metrics["overload"]
        if not decision.admitted:
            if priority == "bulk":
                stats.shed_bulk += 1
            elif priority == "qos":
                stats.shed_qos += 1
            else:
                stats.shed_critical += 1
            core.emit(
                "overload", "shed", key=key, priority=priority,
                reason=decision.reason, sojourn_ms=decision.sojourn_ms,
            )
            raise OverloadShedError(
                f"read shed by admission control "
                f"({decision.reason}: priority {priority}, sojourn "
                f"{decision.sojourn_ms:.1f}ms, queue depth "
                f"{decision.queue_depth:.0f})"
            )
        stats.admitted += 1
        core.emit(
            "overload", "admitted", key=key, priority=priority,
            sojourn_ms=decision.sojourn_ms,
        )

    def _iterate(self, ctx: ReadContext, prefix_ran: bool = False):
        """The read as a generator: the prefix, then the miss steps in
        the order the module docstring states.  With *prefix_ran* the
        caller already admitted the read and ran the prefix as a plain
        call (it missed), so the first pass starts at the miss steps.
        The loop is a follower's re-entry from the top after its wait."""
        core = self.core
        try:
            overload = core.overload
            if (
                not prefix_ran and overload is not None
                and overload.admission is not None
            ):
                self._admit(ctx.reference, ctx.key, ctx.enqueued_ms)
            while True:
                if not prefix_ran:
                    entry = self._lookup(ctx.reference, ctx.key)
                    if ctx.concurrent:
                        # The two places a concurrent read may switch to
                        # another read: here, before the verifiers, and
                        # before the fetch.
                        yield VERIFIER_SEAM
                        if entry is not None:
                            # An interleaved read may have dropped (or
                            # replaced) the entry while this one was
                            # suspended: re-anchor on the live table.
                            entry = core.entries.get(ctx.key)
                    if entry is not None:
                        result, ctx.stale = self.serve(
                            ctx.reference, ctx.key, ctx.started_ms, entry,
                        )
                        if result is not None:
                            break
                prefix_ran = False
                result = self._promote(ctx) or self._memo(ctx)
                if result is not None:
                    break
                suspension = self._coalesce(ctx)
                if suspension is not None:
                    # Park on the leader's flight; on wake, re-enter from
                    # the top, where the leader's fill (or memo record)
                    # answers this read.
                    self._resume_follower(ctx, (yield suspension))
                    continue
                if ctx.concurrent:
                    yield FETCH_SEAM
                self._fetch(ctx)
                result = self._degrade(ctx) or self._fill(ctx)
                break
            if ctx.flight is not None:
                core.flights.close(ctx.flight, ("landed", result.disposition))
                ctx.flight = None
            return result
        except BaseException as error:
            if ctx.flight is not None:
                # Leader failure: deregister first, then wake followers —
                # the first to resume finds no flight and promotes
                # itself to lead its own fetch.
                core.flights.close(ctx.flight, ("failed", error))
                ctx.flight = None
            raise

    def _resume_follower(self, ctx: ReadContext, payload) -> None:
        """Reset per-attempt state after a flight wait; keep started_ms.

        The follower's latency deliberately includes the wait: its read
        began when it began, and the leader's remaining work is the
        price of coalescing.
        """
        ctx.stale = None
        ctx.content = None
        ctx.meta = None
        ctx.fetch_error = None
        ctx.memo_fingerprint = None
        ctx.memo_source = None
        if payload is not None and payload[0] == "failed":
            self.core.metrics["concurrency"].promotions += 1
            self.core.emit("coalesce", "promoted", key=ctx.key)

    # -- the hit prefix -------------------------------------------------------

    def _lookup(self, reference: "DocumentReference", key: EntryKey):
        """Flush the reader's own dirty write, then find the live entry."""
        core = self.core
        if key in core.dirty:
            self.writes.flush(reference)
        return core.entries.get(key)

    def serve(
        self,
        reference: "DocumentReference",
        key: EntryKey,
        started_ms: float,
        entry: CacheEntry | None = None,
    ):
        """The hit prefix, §3's hit-time check: dirty check → lookup →
        verifier gate → touch → outcome, as ``(result, stale)``.

        A write-back user reading their own dirty document must see
        their buffered write, so it is flushed through the full path
        first; then the live entry for the (document, user) key is
        served if its verifiers agree.  ``result`` is the terminal
        :class:`CacheReadOutcome`, or ``None`` when the miss steps must
        continue — then ``stale`` is the invalidated ``(bytes,
        filled-at)`` pair, if a verifier, a quarantine or an open
        breaker dropped the entry, for bounded serve-stale.  *entry* is
        :meth:`_lookup`'s result when the generator split the prefix at
        the verifier seam.
        """
        core = self.core
        if entry is None:  # _lookup(), inlined: a frame is ~1.5 % of a hit
            if key in core.dirty:
                self.writes.flush(reference)
            entry = core.entries.get(key)
            if entry is None:
                return None, None
        sim = core.ctx
        clock = sim.clock
        content = core.store.get(entry.signature)
        disposition = "hit"
        # "cache hit" latency: the local (or app→server) hop only.
        for hop in self._hit_path:
            sim.charge_hop(hop, entry.size)

        if core.use_verifiers:
            guard = core.containment
            # A breaker registry — the guard's or the legacy quarantine —
            # has a breaker only once some verifier has raised; until
            # then there is nothing to consult or to reset, per hit or
            # per verifier, and no breaker key is built.
            breakers = None if guard is None else guard.verifiers.breakers
            quarantine = guard is None and bool(core.quarantine.breakers)
            if guard is not None:
                if breakers and guard.verifier_blocked(entry):
                    # A breaker is open on one of the entry's verifiers:
                    # the entry cannot be trusted and the verifier cannot
                    # be afforded — force a miss.  Unlike the legacy
                    # quarantine this heals itself: after the probation
                    # delay the breaker admits a probe.
                    core.drop(entry, InvalidationReason.VERIFIER_FAILED,
                              origin="containment")
                    return None, (content, entry.created_at_ms)
            elif quarantine and self._entry_quarantined(entry):
                # A repeatedly-failing verifier guards this entry: the
                # entry cannot be trusted and the verifier cannot be
                # afforded — force a miss instead of verifying.
                core.drop(entry, InvalidationReason.VERIFIER_FAILED,
                          origin="quarantine")
                core.stats.quarantine_forced_misses += 1
                core.emit("quarantine", "forced-miss", key=key)
                return None, (content, entry.created_at_ms)
            for verifier in entry.verifiers:
                began = clock.now_ms
                clock.charge(verifier.cost_ms)
                core.verifier_executed(key, began, verifier.cost_ms)
                try:
                    if guard is not None and guard.budget is not None:
                        guard.check_verifier_budget(entry, verifier)
                    if sim.faults is not None:
                        sim.faults.check_verifier(
                            verifier.cost_ms,
                            label=type(verifier).__name__,
                        )
                    result = verifier.run(clock.now_ms, content)
                except Exception:
                    if guard is not None:
                        guard.note_verifier_failure(entry, verifier)
                    else:
                        self._note_failure(entry, verifier)
                    core.drop(entry, InvalidationReason.VERIFIER_FAILED,
                              origin="verifier")
                    core.stats.verifier_invalidations += 1
                    core.emit("verifier", "invalidated", key=key)
                    core.note_verifier_caught_lost(entry)
                    return None, (content, entry.created_at_ms)
                if guard is not None:
                    if breakers:
                        guard.note_verifier_success(entry, verifier)
                elif quarantine:
                    core.note_verifier_success(verifier_key(entry, verifier))
                if result.verdict is Verdict.INVALID:
                    reason = (
                        InvalidationReason.SOURCE_UPDATED_OUT_OF_BAND
                        if verifier.invalidation_label == "source"
                        else InvalidationReason.EXTERNAL_CHANGED
                    )
                    core.drop(entry, reason, origin="verifier")
                    core.stats.verifier_invalidations += 1
                    core.emit("verifier", "invalidated", key=key)
                    core.note_verifier_caught_lost(entry)
                    return None, (content, entry.created_at_ms)
                if result.verdict is Verdict.REVALIDATED:
                    content = result.patched_content
                    core.replace_content(entry, content)
                    core.stats.verifier_revalidations += 1
                    core.emit("verifier", "revalidated", key=key)
                    disposition = "revalidated"

        if entry.cacheability is Cacheability.CACHEABLE_WITH_EVENTS:
            core.forward_read(reference)

        entry.touch(clock.now_ms)
        core.policy.on_access(entry)
        if core.track_staleness and core.is_stale(reference, entry):
            core.stats.stale_hits += 1
            core.emit("staleness", "stale-hit", key=key)
        elapsed = core.hit_served(disposition, key, started_ms, len(content))
        if entry.prefetched:
            core.stats.prefetched_hits += 1
            core.emit("prefetch", "hit", key=key)
            entry.prefetched = False
        return CacheReadOutcome(content, True, elapsed, disposition), None

    def _entry_quarantined(self, entry: CacheEntry) -> bool:
        core = self.core
        return any(
            core.is_quarantined(verifier_key(entry, verifier))
            for verifier in entry.verifiers
        )

    def _note_failure(self, entry: CacheEntry, verifier) -> None:
        core = self.core
        if core.note_verifier_failure(verifier_key(entry, verifier)):
            core.stats.quarantined_verifiers += 1
            core.emit("quarantine", "added", key=entry.key)

    # -- the miss steps -------------------------------------------------------

    def _exchange_metadata(self) -> None:
        """Charge establishing a (document, user) → signature mapping
        over bytes that are already local: the cache-side hop with no
        content moving, plus the mapping handshake."""
        core = self.core
        for hop in core.topology.hit_path():
            core.ctx.charge_hop(hop, 0)
        core.ctx.charge(ADOPTION_COST_MS)

    def _finish(
        self, ctx: ReadContext, disposition: str, content: bytes,
    ) -> CacheReadOutcome:
        """The miss terminal: account the read and build its outcome."""
        core = self.core
        elapsed = core.ctx.clock.now_ms - ctx.started_ms
        core.stats.misses += 1
        core.stats.miss_latency_ms += elapsed
        if core.health is not None:
            core.health.observe_read(
                core.name, elapsed,
                fetched=disposition not in ("miss-memoized", "miss-promoted"),
            )
        core.emit("read", disposition, key=ctx.key, started_ms=ctx.started_ms)
        return CacheReadOutcome(content, False, elapsed, disposition)

    def _promote(self, ctx: ReadContext):
        """Durable-tier promotion: answer a miss from the on-disk L2 tier.

        First of the miss steps: the L2 tier remembers entries this cache
        itself evicted — including across a crash/restart, which is the
        whole point.  :meth:`~repro.storage.tier.L2Tier.promote` re-gates
        the demoted copy on the reference's current chain signature, a
        charged source-signature probe, the record's CRC/digest and (for
        recovered records, unconditionally) its verifiers; a copy that
        survives is installed like any other version and served as a
        ``miss-promoted`` read.  A no-op without a storage policy, and
        while the storage breaker is open — the L1-only fallback.
        """
        core = self.core
        l2 = core.l2
        if l2 is None:
            return None
        if ctx.budget is not None and ctx.budget.expired:
            # An expired read skips the disk probe and CRC work: the
            # fetch gate downstream fails it into the degradation
            # ladder without spending more of anyone's time.
            core.metrics["overload"].deadline_skips += 1
            core.emit("deadline", "skipped", key=ctx.key, seam="l2")
            return None
        survivor = l2.promote(ctx.key, ctx.reference)
        if survivor is None:
            return None
        record, content, verifiers = survivor
        self._exchange_metadata()
        # Leaves exactly the one store reference the entry takes over.
        core.store.put_signed(content, record.signature)
        entry = core.install(
            ctx.reference, record, record.signature, record.size, verifiers
        )
        core.arm(ctx.reference, entry)
        l2.retire(record)
        if entry.cacheability.requires_event_forwarding:
            # Served without a kernel read, like a hit: the properties
            # that asked to see every read (an audit trail) hear it.
            core.forward_read(ctx.reference)
        core.emit("storage", "promoted", key=ctx.key, bytes=record.size)
        return self._finish(ctx, "miss-promoted", content)

    def _memo(self, ctx: ReadContext):
        """Transform memoization: answer a miss from the
        ``(source signature, chain fingerprint) → output signature`` memo.

        Between L2 promotion and fetch, and the one way a miss is
        answered with bytes another user's read produced (§3's sharing
        of identical transformed content): the memo remembers what an
        identical chain produced from identical source bytes, for any
        user, even after every entry for it is gone.  A memo serve is a
        metadata-only exchange — one source-signature probe, the local
        hop, a :meth:`~repro.content.store.ContentStore.adopt` — with no
        provider fetch and no property-chain execution.  A no-op without
        a memo policy, and for a chain that is not
        :attr:`~repro.placeless.chain.ReadPlan.shareable` (a property on
        it handles read events — an access check, an audit trail — and
        must see this read).  Consults participate in all four §3
        invalidation classes (see :mod:`repro.cache.memo`) and respect
        the containment layer: an open breaker on any chain property
        bypasses the memo, because the recorded output was produced by
        code that is currently quarantined.
        """
        core = self.core
        memo = core.memo
        if memo is None:
            return None
        plan = read_plan(ctx.reference)
        if not plan.shareable:
            # Nothing consulted, nothing recorded, no memo-plane flight.
            return None
        if ctx.budget is not None and ctx.budget.expired:
            # Same fast-fail as the L2 step: no probe charge for a
            # read whose deadline already passed.
            core.metrics["overload"].deadline_skips += 1
            core.emit("deadline", "skipped", key=ctx.key, seam="memo")
            return None
        guard = core.containment
        if guard is not None and guard.chain_blocked(
            ctx.key.document_id, plan.chain
        ):
            core.metrics["memo"].contained_bypasses += 1
            core.emit("memo", "bypass-contained", key=ctx.key)
            return None
        fingerprint = plan.fingerprint
        # Admission records under this fingerprint if the miss proceeds.
        ctx.memo_fingerprint = fingerprint
        # Metadata-only probe of the repository's current source
        # signature — invalidation class (a): a changed source never
        # matches a stale record.
        core.ctx.charge(PROBE_COST_MS)
        source_signature = ctx.reference.base.provider.peek_signature()
        # The probed pair doubles as the memo-plane coalescing key for
        # the single-flight step downstream.
        ctx.memo_source = source_signature
        stats = core.metrics["memo"]
        record = memo.lookup(source_signature, fingerprint)
        if record is None:
            stats.misses += 1
            core.emit("memo", "missed", key=ctx.key)
            return None
        imported = False
        if record.output_signature in core.store:
            content = core.store.get(record.output_signature)
        else:
            # The output bytes left this store with the last referencing
            # entry.  A shared memo view may still recover them from a
            # sibling store (one ``put_signed`` reference the serving
            # entry takes over); the strictly local base memo returns
            # ``None`` and the record is pruned as dead.
            materialized = memo.materialize(record, core)
            if materialized is None:
                memo.discard(record)
                stats.dead_drops += 1
                core.emit("memo", "dropped-dead", key=ctx.key)
                return None
            content = materialized
            imported = True
        if core.use_verifiers and not core.verifiers_agree(
            ctx.key, record.verifiers, content
        ):
            # Class (d): an external condition gated this record and no
            # longer holds — the memo must not serve it.
            if imported:
                core.store.release(record.output_signature)
            memo.discard(record)
            stats.verifier_drops += 1
            core.emit("memo", "dropped-verifier", key=ctx.key)
            return None
        self._exchange_metadata()
        if not imported:
            # An import already holds the one store reference taken by
            # ``materialize``'s ``put_signed``; the entry takes it over.
            core.store.adopt(record.output_signature)
        entry = core.install(
            ctx.reference, record, record.output_signature, record.size,
            record.verifiers,
        )
        core.arm(ctx.reference, entry)
        stats.adoptions += 1
        if imported:
            stats.imports += 1
            core.emit("memo", "adopted", key=ctx.key, imported=True)
        else:
            core.emit("memo", "adopted", key=ctx.key)
        return self._finish(ctx, "miss-memoized", content)

    def _coalesce(self, ctx: ReadContext) -> Suspension | None:
        """Single-flight: coalesce concurrent misses into one fetch + one
        chain execution, or return the :class:`Suspension` that parks
        this read on the flight it follows.

        The last gate before the fetch.  On a ``concurrent`` read with a
        :class:`~repro.cache.policies.ConcurrencyPolicy` whose
        ``coalesce`` flag is on, a miss probes the core's
        :class:`~repro.sim.scheduler.FlightTable` under two keys:

        * the ``(document, user)`` entry key — N concurrent reads of one
          reference share one fill;
        * via the A15 memo plane, the ``(source signature, chain
          fingerprint)`` pair — concurrent cold misses by *different*
          users whose chains would produce identical bytes share one
          chain execution, with followers answered by the leader's memo
          record.

        When the leader lands, a follower re-enters from the top, where
        the leader's fill answers it as a verifier-gated hit (same key)
        or a signature-only memo serve (memo-plane key) — built on
        :meth:`~repro.content.store.ContentStore.put_signed` having
        already placed the leader's bytes in the store.  A leader that
        *fails* resolves the flight with its error: the first follower
        to wake finds the table empty and promotes itself to leader; the
        rest re-follow the promoted read.  An open breaker on any chain
        property bypasses the flight table entirely (a quarantined
        chain's output must not fan out to N followers).  A no-op
        without a concurrency policy or on a read that is not
        ``concurrent`` (the default), so golden digests are untouched.
        """
        core = self.core
        policy = core.concurrency
        if policy is None or not policy.coalesce or not ctx.concurrent:
            return None
        if ctx.budget is not None and ctx.budget.expired:
            # An expired read neither follows (it cannot afford the
            # wait) nor leads (its fetch gate will refuse, stranding
            # followers on a doomed flight) — it falls straight through
            # to the fetch gate and the degradation ladder.
            core.metrics["overload"].deadline_skips += 1
            core.emit("deadline", "skipped", key=ctx.key, seam="flight")
            return None
        guard = core.containment
        if guard is not None and guard.chain_blocked(
            ctx.key.document_id, read_plan(ctx.reference).chain
        ):
            core.metrics["concurrency"].bailed_contained += 1
            core.emit("coalesce", "bailed-contained", key=ctx.key)
            return None
        keys: tuple = (("entry", ctx.key),)
        if ctx.memo_source is not None and ctx.memo_fingerprint is not None:
            keys += (("memo", ctx.memo_source, ctx.memo_fingerprint),)
        for key in keys:
            flight = core.flights.lookup(key)
            if flight is None:
                continue
            core.metrics["concurrency"].follows += 1
            core.emit("coalesce", "followed", key=ctx.key)
            return Suspension("flight", flight)
        ctx.flight = core.flights.open(keys)
        core.metrics["concurrency"].flights_led += 1
        core.emit("coalesce", "led", key=ctx.key)
        return None

    def _fetch(self, ctx: ReadContext) -> None:
        """Full read through the kernel, under the retry policy; a
        failure is trapped for :meth:`_degrade`."""
        core = self.core
        budget = ctx.budget
        if budget is not None and budget.expired:
            # The deadline ran out before the expensive part began:
            # don't start a fetch whose result nobody will wait for.
            # The degradation step may still answer with acceptable
            # stale bytes before the error surfaces.
            core.metrics["overload"].deadline_exceeded += 1
            core.emit("deadline", "exceeded", key=ctx.key, seam="fetch")
            ctx.fetch_error = budget.exceeded("fetch")
            return
        try:
            ctx.content, ctx.meta = core.fetch_with_retry(
                ctx.reference, budget=budget
            )
        except CacheError:
            raise
        except Exception as error:
            core.stats.fetch_failures += 1
            if core.health is not None:
                core.health.observe_error(core.name)
            core.emit("fetch", "failed", key=ctx.key)
            ctx.fetch_error = error
            return
        if budget is not None and budget.expired:
            # The fetch itself overran the deadline.  The bytes are
            # fresh and already paid for, so they are served — "late",
            # not a violation (a violation is starting work past the
            # deadline, which the gate above rules out).
            core.metrics["overload"].deadline_late += 1
            core.emit("deadline", "late", key=ctx.key, seam="fetch")

    def _degrade(self, ctx: ReadContext) -> CacheReadOutcome | None:
        """The fetch-failure ladder: bounded stale bytes, or the read
        fails with the fetch's error."""
        error = ctx.fetch_error
        if error is None:
            return None
        core = self.core
        policy = core.degradation
        if policy.serve_stale_on_error and ctx.stale is not None:
            content, filled_at_ms = ctx.stale
            if policy.stale_age_acceptable(
                core.ctx.clock.now_ms - filled_at_ms
            ):
                core.stats.stale_served_on_error += 1
                core.emit("degradation", "stale-served", key=ctx.key)
                return self._finish(ctx, "stale-on-error", content)
            core.stats.stale_serve_rejected += 1
            core.emit("degradation", "stale-rejected", key=ctx.key)
        raise error

    def _fill(self, ctx: ReadContext):
        """Admission, the last step: take the §3 vote, fill, account.

        The returned cacheability vote decides whether/how to fill (§3);
        content larger than the whole cache is served but never admitted.
        """
        core = self.core
        content, meta = ctx.content, ctx.meta
        assert content is not None and meta is not None
        # A containment skip anywhere on the path degrades the serve.
        degraded = bool(meta.contained_skips or meta.contained_required)
        disposition = "miss-degraded" if degraded else "miss"
        if meta.contained_required:
            # A *required* transformer was skipped by the containment
            # layer: the untransformed bytes may be served (degraded)
            # but never admitted, so every access misses to the kernel
            # until the breaker closes.
            core.emit("admission", "contained", key=ctx.key)
            return self._finish(ctx, disposition, content)
        decision = vote_admission(content, meta, core.capacity_bytes)
        if decision is AdmissionDecision.UNCACHEABLE:
            core.stats.uncacheable_reads += 1
            core.emit("admission", "uncacheable", key=ctx.key)
            disposition = "uncacheable"
        elif decision is AdmissionDecision.OVERSIZE:
            core.emit("admission", "oversize", key=ctx.key)
            disposition = "miss-oversize"
        else:
            entry = core.fill(ctx.reference, content, meta)
            core.stats.bytes_filled += len(content)
            core.emit("admission", "filled", key=ctx.key, bytes=len(content))
            if not degraded:
                # A degraded fill ran a partial chain — its output must
                # not be memoized.
                core.memo_record_output(ctx.memo_fingerprint, meta, entry)
        return self._finish(ctx, disposition, content)


class WritePipeline:
    """Interposes on writes (§4) and drains the write-back buffer.

    A write goes straight through (invalidating locally) or, in
    write-back mode, into the dirty buffer paying only the local hop;
    :meth:`flush` later pushes a buffered write through the full path.
    """

    def __init__(self, core: CacheCore) -> None:
        self.core = core

    def write(self, reference: "DocumentReference", content: bytes) -> float:
        """Write through (or into) the cache; returns elapsed virtual ms.

        A plain call: a write is a short critical section over shared
        state, so it never suspends.
        """
        core = self.core
        key = EntryKey.for_reference(reference)
        started_ms = core.ctx.clock.now_ms
        if core.write_mode is WriteMode.WRITE_THROUGH:
            core.kernel.write(reference, content)
            core.stats.writes_through += 1
            core.emit("write", "write-through", key=key)
            core.invalidate_local(key, InvalidationReason.LOCAL_WRITE)
        else:
            for hop in core.topology.hit_path():
                core.ctx.charge_hop(hop, len(content))
            core.dirty[key] = (reference, bytes(content))
            if core.recovery is not None:
                # Journal before acknowledging: once write() returns, a
                # crash must not be able to lose these bytes.
                core.recovery.journal_append(key, reference, content)
            # The cached read entry (if any) no longer reflects what
            # this user would read — their buffered write supersedes it.
            core.invalidate_local(key, InvalidationReason.LOCAL_WRITE)
            core.stats.writes_backed += 1
            core.emit("write", "write-back", key=key)
            # WRITE_FORWARDED to the properties that asked for it.
            core.forward_write(reference, len(content))
        return core.ctx.clock.now_ms - started_ms

    def flush(self, reference: "DocumentReference") -> bool:
        """Push one buffered write-back through the full write path
        (False when nothing is dirty).

        Runs under the retry policy, if one is configured.  A flush that
        still fails keeps the dirty buffer (the write is not lost; a
        later flush can retry) and re-raises.
        """
        core = self.core
        key = EntryKey.for_reference(reference)
        buffered = core.dirty.pop(key, None)
        if buffered is None:
            return False
        dirty_reference, content = buffered
        try:
            if core.retry_policy is None:
                core.kernel.write(dirty_reference, content)
            else:
                core.retry_policy.call(
                    core.ctx,
                    lambda: core.kernel.write(dirty_reference, content),
                    on_retry=core.count_retry,
                )
        except Exception:
            core.dirty[key] = buffered
            core.stats.flush_failures += 1
            core.emit("flush", "failed", key=key)
            raise
        core.stats.flushes += 1
        core.emit("flush", "flushed", key=key)
        if core.recovery is not None:
            core.recovery.journal_mark_flushed(key)
        return True

    def flush_all(self) -> int:
        """Flush every buffered write-back; returns how many flushed."""
        flushed = 0
        for key in list(self.core.dirty):
            dirty_reference, _ = self.core.dirty[key]
            if self.flush(dirty_reference):
                flushed += 1
        return flushed
