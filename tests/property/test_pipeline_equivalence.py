"""Pipeline-equivalence tests: the staged read/write pipeline must be
behaviourally indistinguishable from the pre-refactor monolithic cache.

Two layers of protection:

* **Golden digests** — seeded workloads whose final ``CacheStats``,
  virtual-clock reading and fault-injection traces were captured from the
  pre-refactor ``DocumentCache`` (commit a70192e).  The refactored cache
  must reproduce them byte-for-byte: same counters, same clock, same
  injected faults in the same order.
* **Property-based determinism** — for arbitrary seeds, running the same
  workload twice produces identical snapshots (hypothesis generates the
  seeds; the pipeline must be free of hidden nondeterminism), and the
  instrumentation-bus projection must agree with the stats the run
  reports.
"""

from __future__ import annotations

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.manager import DocumentCache, WriteMode
from repro.cache.policies import DegradationPolicy, MemoPolicy
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.placeless.kernel import PlacelessKernel
from repro.workload.documents import CorpusSpec, build_corpus
from repro.workload.runner import TraceRunner
from repro.workload.trace import TraceSpec, generate_trace
from repro.workload.users import build_population


def run_seeded_workload(
    seed: int,
    *,
    write_mode: WriteMode = WriteMode.WRITE_THROUGH,
    memo_policy=None,
    capacity_factor: float = 2.0,
    chaos: bool = False,
    overload_policy=None,
    wire=None,
) -> dict:
    """One deterministic deployment + trace; returns a comparable snapshot.

    The exact construction order here is load-bearing: it pins down the
    sequence of RNG draws, virtual-clock charges and fault-plan
    consultations that the golden digests were captured against.  Do not
    reorder without recapturing the goldens.
    """
    kernel = PlacelessKernel()
    if chaos:
        kernel.ctx.faults = FaultPlan(
            kernel.ctx.clock,
            seed=seed,
            fetch_failure_probability=0.05,
            notifier_loss_probability=0.10,
            notifier_delay_probability=0.10,
            notifier_delay_ms=150.0,
            verifier_failure_probability=0.02,
        )
    owner = kernel.create_user("owner")
    corpus = build_corpus(
        kernel, owner,
        CorpusSpec(n_documents=10, ttl_ms=4_000.0, seed=seed),
    )
    population = build_population(
        kernel, corpus, n_users=3, personalized_fraction=0.4, seed=seed
    )
    cache = DocumentCache(
        kernel,
        capacity_bytes=max(
            1024, int(capacity_factor * sum(d.size_bytes for d in corpus))
        ),
        write_mode=write_mode,
        memo_policy=memo_policy,
        retry_policy=(
            RetryPolicy(
                max_attempts=3, base_delay_ms=50.0, multiplier=2.0,
                max_delay_ms=400.0,
            )
            if chaos
            else None
        ),
        degradation_policy=DegradationPolicy(
            serve_stale_on_error=chaos,
            stale_serve_max_age_ms=30_000.0 if chaos else None,
            verifier_quarantine_threshold=4 if chaos else None,
        ),
        overload_policy=overload_policy,
        name=f"equiv-{seed}",
    )
    if wire is not None:
        # Late wiring (an extra bus subscriber, a handle for the
        # caller) after construction and before the first access.
        wire(cache)
    runner = TraceRunner(
        kernel, corpus, population.references, caches=cache,
        writes_via_cache=(write_mode is WriteMode.WRITE_BACK),
    )
    report = runner.execute(
        generate_trace(
            TraceSpec(
                n_events=400, n_documents=10, n_users=3,
                p_write=0.10, p_out_of_band=0.05,
                p_property_change=0.02,
                mean_think_time_ms=20.0,
                seed=seed,
            )
        )
    )
    return snapshot_run(cache, report)


def snapshot_run(cache: DocumentCache, report) -> dict:
    """Everything observable about a finished run, JSON-serialisable."""
    stats = dict(vars(cache.stats))
    stats["invalidations"] = {
        str(reason): count
        for reason, count in sorted(
            stats["invalidations"].items(), key=lambda item: str(item[0])
        )
    }
    plan = cache.ctx.faults
    fault_trace = (
        [
            [record.at_ms, record.site, record.action, record.target]
            for record in plan.injection_trace()
        ]
        if plan is not None
        else []
    )
    return {
        "stats": stats,
        "clock_ms": cache.ctx.clock.now_ms,
        "entries": len(cache),
        "used_bytes": cache.used_bytes,
        "dirty": cache.dirty_count,
        "fault_trace": fault_trace,
        "reads": report.reads,
        "hits": report.hits,
        "read_latency_ms": report.read_latency_ms,
        "availability": report.availability,
    }


def digest(snapshot: dict) -> str:
    """Stable short digest of a snapshot."""
    canonical = json.dumps(snapshot, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


#: Captured from the pre-refactor monolithic DocumentCache.  A digest
#: change here means observable behaviour changed — stats, virtual
#: timing, or the fault-injection trace.
GOLDEN_DIGESTS = {
    "writethrough": "c31da4020175139a",
    "writethrough-memo": "0b66ee3bd843c2d2",
    "writeback": "8e4a1c3290a91480",
    "small-cache": "66b7936b696d7400",
    "chaos": "28a3c6447103ada7",
}

_CONFIGS = {
    "writethrough": dict(seed=11),
    "writethrough-memo": dict(seed=11, memo_policy=MemoPolicy()),
    "writeback": dict(seed=23, write_mode=WriteMode.WRITE_BACK),
    "small-cache": dict(seed=37, capacity_factor=0.25),
    "chaos": dict(seed=7, chaos=True),
}


class TestGoldenEquivalence:
    """Same seed → byte-identical stats/clock/fault-trace vs. pre-refactor."""

    def test_writethrough(self):
        snap = run_seeded_workload(**_CONFIGS["writethrough"])
        assert digest(snap) == GOLDEN_DIGESTS["writethrough"]

    def test_writethrough_sharing(self):
        # §3's sharing across users, through the transform memo.
        caches = []
        snap = run_seeded_workload(
            **_CONFIGS["writethrough-memo"], wire=caches.append
        )
        assert caches[0].memo_stats.adoptions > 0
        assert digest(snap) == GOLDEN_DIGESTS["writethrough-memo"]

    def test_writeback(self):
        snap = run_seeded_workload(**_CONFIGS["writeback"])
        assert digest(snap) == GOLDEN_DIGESTS["writeback"]

    def test_small_cache_evictions(self):
        snap = run_seeded_workload(**_CONFIGS["small-cache"])
        assert snap["stats"]["evictions"] > 0  # the config exercises eviction
        assert digest(snap) == GOLDEN_DIGESTS["small-cache"]

    def test_chaos(self):
        snap = run_seeded_workload(**_CONFIGS["chaos"])
        assert snap["fault_trace"]  # faults were actually injected
        assert digest(snap) == GOLDEN_DIGESTS["chaos"]


class TestSeededDeterminism:
    """Arbitrary seeds: two identical runs → identical snapshots."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_healthy_runs_repeat(self, seed):
        first = run_seeded_workload(seed)
        second = run_seeded_workload(seed)
        assert first == second

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_chaos_runs_repeat(self, seed):
        first = run_seeded_workload(seed, chaos=True)
        second = run_seeded_workload(seed, chaos=True)
        assert first == second
        assert first["fault_trace"] == second["fault_trace"]
