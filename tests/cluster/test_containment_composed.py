"""Containment composed with the cluster, the memo and single-flight.

The containment guard fences the *kernel's* property code, so it is one
object per simulation context however many caches stand on it.  These
tests hold that against the things that used to break it — N shards
each building a guard, ``add_shard``/``lose_shard`` replacing or
orphaning it, a second cache with another tuning — and then run one op
stream through every containment × memo × concurrency × shard-count
combination under the invariants a seam matrix exists to check.
"""

from __future__ import annotations

import itertools
import os

import pytest

from repro.cache.manager import DocumentCache
from repro.cache.policies import (
    ConcurrencyPolicy,
    ContainmentPolicy,
    MemoPolicy,
    RecoveryPolicy,
)
from repro.cluster import CacheCluster, ClusterPolicy
from repro.contract.verifiers import Verifier
from repro.errors import (
    CacheError,
    ContainmentError,
    PropertyError,
    StreamError,
)
from repro.events.types import EventType
from repro.faults.plan import FaultPlan
from repro.placeless.kernel import PlacelessKernel
from repro.placeless.properties import ActiveProperty
from repro.properties.translate import TranslationProperty
from repro.providers.memory import MemoryProvider
from repro.sim.context import SimContext
from repro.workload.documents import CorpusSpec, build_corpus, generate_text
from repro.workload.trace import TraceEventKind, TraceSpec, generate_trace
from repro.workload.users import build_population

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "77"))
POLICY = ContainmentPolicy(failure_threshold=2, probation_delay_ms=500.0)


class Flaky(ActiveProperty):
    """A required transformer that raises until told to behave."""

    transforms_reads = True

    def __init__(self):
        super().__init__("flaky")
        self.misbehave = True

    def events_of_interest(self):
        return {EventType.GET_INPUT_STREAM}

    def wrap_input(self, stream, event):
        if self.misbehave:
            raise RuntimeError("property exploded")
        return stream


class _AlwaysRaises(Verifier):
    def verify(self, now_ms, content):
        raise RuntimeError("verifier exploded")


class _RaisingVerifierProvider(MemoryProvider):
    def make_verifier(self):
        return _AlwaysRaises()


def _cluster():
    kernel = PlacelessKernel()
    cluster = CacheCluster(
        kernel, 4, capacity_bytes=1 << 20,
        memo_policy=MemoPolicy(),
        concurrency_policy=ConcurrencyPolicy(),
        recovery_policy=RecoveryPolicy(),
        shard_kwargs={"containment_policy": POLICY},
    )
    return kernel, cluster


def _reference_owned_by(kernel, cluster, shard_name):
    """A fresh document whose key places on *shard_name*."""
    user = kernel.create_user(f"reader-of-{shard_name}")
    for n in itertools.count():
        document = kernel.create_document(
            user, MemoryProvider(kernel.ctx, b"body %d" % n), f"doc-{n}"
        )
        reference = kernel.space(user).add_reference(document)
        if cluster.shard_for(reference).core.name == shard_name:
            return reference


def _tripped(kernel, cluster, shard_name):
    """A reference on *shard_name* whose flaky transformer has just
    tripped its breaker (``failure_threshold`` degraded reads)."""
    reference = _reference_owned_by(kernel, cluster, shard_name)
    prop = Flaky()
    reference.attach(prop)
    for _ in range(POLICY.failure_threshold):
        assert cluster.read(reference).degraded
    return reference, prop


class TestOneGuardPerWorld:
    def test_the_owning_shard_sees_its_documents_breaker(self):
        kernel, cluster = _cluster()
        names = list(cluster.shards)
        owner = cluster.shards[names[1]]  # not the last built
        reference, _ = _tripped(kernel, cluster, names[1])
        guard = kernel.ctx.containment
        assert all(
            shard.containment is guard for shard in cluster.shards.values()
        )
        assert len(guard.wrappers.open_keys()) == 1
        assert cluster.containment_stats is guard.stats
        assert cluster.containment_stats.trips == 1

        # A quarantined chain's output must not fan out: the owning
        # shard's memo and flight table both stand aside.
        assert cluster.read(reference).degraded
        assert owner.memo_stats.contained_bypasses == 1
        batch = cluster.read_many([reference] * 4)
        assert all(outcome.degraded for outcome in batch)
        flights = owner.concurrency_stats
        assert (
            flights.flights_led, flights.follows, flights.promotions,
            flights.bailed_contained,
        ) == (0, 0, 0, 4)
        assert cluster.containment_stats.trips == 1
        assert cluster.containment_stats.forced_misses == (
            POLICY.failure_threshold + 5
        )

    def test_breakers_and_counters_outlive_topology_changes(self):
        kernel, cluster = _cluster()
        names = list(cluster.shards)
        reference, prop = _tripped(kernel, cluster, names[1])
        guard, stats = kernel.ctx.containment, cluster.containment_stats
        open_keys = guard.wrappers.open_keys()
        assert len(open_keys) == 1

        def unchanged():
            return (
                kernel.ctx.containment is guard
                and cluster.containment_stats is stats
                and stats.trips == 1
                and guard.wrappers.open_keys() == open_keys
                and all(
                    shard.containment is guard
                    for shard in cluster.shards.values()
                )
            )

        added = cluster.add_shard()
        assert unchanged()
        cluster.lose_shard(names[0])   # the shard that built the guard
        assert unchanged()
        cluster.lose_shard(added)      # the shard built last
        assert unchanged()
        cluster.crash_shard(names[1])
        cluster.restart_shard(names[1])
        assert unchanged()

        # Probation still heals: one clean probe re-closes the circuit.
        prop.misbehave = False
        kernel.ctx.clock.advance(POLICY.probation_delay_ms)
        assert not cluster.read(reference).degraded
        assert not guard.wrappers.open_keys()
        assert (stats.probes, stats.closes, stats.trips) == (1, 1, 1)

    def test_a_different_policy_on_the_same_kernel_is_refused(self):
        kernel = PlacelessKernel()
        first = DocumentCache(kernel, 1 << 20, containment_policy=POLICY)
        equal = DocumentCache(
            kernel, 1 << 20, name="equal",
            containment_policy=ContainmentPolicy(
                failure_threshold=2, probation_delay_ms=500.0
            ),
        )
        assert equal.containment is first.containment
        assert equal.containment_stats is first.containment_stats
        with pytest.raises(CacheError, match="already contained"):
            DocumentCache(
                kernel, 1 << 20, name="other",
                containment_policy=ContainmentPolicy(failure_threshold=5),
            )
        assert kernel.ctx.containment is first.containment

    def test_a_policy_less_cache_keeps_its_own_seams_unguarded(self):
        kernel = PlacelessKernel()
        contained = DocumentCache(kernel, 1 << 20, containment_policy=POLICY)
        bare = DocumentCache(kernel, 1 << 20, name="bare")
        guard = kernel.ctx.containment
        assert bare.containment is None
        assert bare.containment_stats is None
        assert "containment" not in bare.core.metrics

        user = kernel.create_user("u")
        provider = _RaisingVerifierProvider(kernel.ctx, b"body")
        reference = kernel.space(user).add_reference(
            kernel.create_document(user, provider, "doc")
        )
        # Its verifier gate is the historical one: a raising verifier
        # invalidates, and no breaker of the world's guard hears of it.
        for _ in range(POLICY.failure_threshold + 1):
            assert not bare.read(reference).hit
        assert len(guard.verifiers) == 0
        # The contained neighbour's gate trips on the same verifier.
        for _ in range(POLICY.failure_threshold + 1):
            contained.read(reference)
        assert len(guard.verifiers.open_keys()) == 1

        # Its kernel reads still run where the guard stands.
        reference.attach(Flaky())
        assert bare.read(reference).degraded
        assert guard.stats.failures_contained == 1


# -- the seam matrix ----------------------------------------------------------

_SPEC = TraceSpec(
    n_events=240, n_documents=8, n_users=3,
    p_write=0.08, p_property_change=0.04, p_property_reorder=0.02,
    mean_think_time_ms=120.0, seed=CHAOS_SEED,
)
_FAILURES = (PropertyError, StreamError, ContainmentError)


def _run_matrix_cell(contained, memo, concurrent, shard_count):
    """The misbehave tier's op stream (tests/faults/test_misbehave.py:
    writes and property toggles among Zipf reads, plus chain reorders)
    through one configuration; runs of consecutive reads go out as one
    ``read_many`` so the same stream exercises both read drivers.

    The plan carries the scenario's property misbehaviour only, and the
    trace no out-of-band updates: a lossy bus and TTL-bounded sources
    make stale serves legitimate, which is the recovery tier's subject
    and would leave the byte oracle nothing to say.
    """
    ctx = SimContext()
    ctx.faults = FaultPlan(
        ctx.clock, seed=CHAOS_SEED, property_failure_probability=0.10
    )
    kernel = PlacelessKernel(ctx)
    owner = kernel.create_user("owner")
    corpus = build_corpus(
        kernel, owner,
        CorpusSpec(n_documents=_SPEC.n_documents, seed=CHAOS_SEED),
    )
    references = build_population(
        kernel, corpus, _SPEC.n_users, personalized_fraction=0.5,
        seed=CHAOS_SEED,
    ).references
    # Tight, so that every shard evicts in every cell — including the
    # memo × 4-shard ones, where cross-shard imports install under
    # pressure (the path that used to orphan its own entry).
    total = sum(d.size_bytes for d in corpus)
    cluster = CacheCluster(
        kernel, shard_count,
        capacity_bytes=total // 2,
        cluster_policy=ClusterPolicy() if memo else None,
        memo_policy=MemoPolicy() if memo else None,
        concurrency_policy=ConcurrencyPolicy() if concurrent else None,
        shard_kwargs={
            "containment_policy": ContainmentPolicy(
                failure_threshold=1, probation_delay_ms=2_000.0,
                max_cost_ms=5.0,
            ),
        } if contained else {},
    )

    def fresh(reference):
        """What the kernel serves with nothing injected or fenced."""
        plan, guard = ctx.faults, ctx.containment
        ctx.faults = ctx.containment = None
        try:
            return kernel.read(reference).content
        finally:
            ctx.faults, ctx.containment = plan, guard

    answered = failed = 0

    def flush(batch):
        nonlocal answered, failed
        for reference, outcome in zip(
            batch, cluster.read_many(batch, return_exceptions=True)
        ):
            if isinstance(outcome, Exception):
                # Typed, and with a guard only what no firewall can
                # take back: a stream that broke after it was handed on.
                assert isinstance(outcome, _FAILURES), outcome
                assert not contained or isinstance(outcome, StreamError)
                failed += 1
                continue
            answered += 1
            if not outcome.degraded:
                assert outcome.content == fresh(reference)
        batch.clear()

    batch: list = []
    for event in generate_trace(_SPEC):
        ctx.clock.advance(event.think_time_ms)
        reference = references[event.user_index][event.document_index]
        if event.kind is TraceEventKind.READ:
            batch.append(reference)
            continue
        flush(batch)
        if event.kind is TraceEventKind.WRITE:
            try:
                cluster.write(reference, generate_text(
                    corpus[event.document_index].size_bytes, seed=event.detail
                ))
            except _FAILURES:
                pass
        elif event.kind is TraceEventKind.PROPERTY_CHANGE:
            if reference.has_property("matrix-toggle"):
                reference.detach_by_name("matrix-toggle")
            else:
                reference.attach(TranslationProperty(name="matrix-toggle"))
        elif event.kind is TraceEventKind.PROPERTY_REORDER:
            ids = [p.property_id for p in reference.active_properties()]
            reference.reorder(ids[1:] + ids[:1])
    flush(batch)
    return kernel, cluster, answered, failed


@pytest.mark.parametrize(
    "contained, memo, concurrent, shard_count",
    list(itertools.product((False, True), (False, True), (False, True), (1, 4))),
)
def test_seam_matrix(contained, memo, concurrent, shard_count):
    kernel, cluster, answered, failed = _run_matrix_cell(
        contained, memo, concurrent, shard_count
    )
    assert answered > failed
    assert kernel.ctx.faults.stats.properties_raised  # the scenario engaged
    # Every read is a hit, a miss or a typed failure.
    totals = cluster.aggregate_stats()
    assert totals.hits + totals.misses == answered

    if memo:
        assert cluster.memo_stats.adoptions
    if concurrent:
        assert cluster.concurrency_stats.flights_led

    guard = kernel.ctx.containment
    assert (guard is not None) == contained
    assert not contained or cluster.containment_stats.total
    for shard in cluster.shards.values():
        assert shard.containment is guard
        naming: dict = {}
        for entry in shard.entries():
            naming[entry.signature] = naming.get(entry.signature, 0) + 1
        assert len(shard.store) == len(naming)
        for signature, count in naming.items():
            assert shard.store.refcount(signature) == count
    cluster.clear()
    for shard in cluster.shards.values():
        assert len(shard.store) == 0 and shard.used_bytes == 0
