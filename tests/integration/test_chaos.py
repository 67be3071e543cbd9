"""Chaos test: everything at once, invariants must survive.

A long mixed trace (reads, in-band writes, out-of-band mutations,
property churn, reorders) runs against a deployment that also has
timer-driven replication, versioning, audit trails and a tight cache.
After every burst the suite asserts the global invariants: cache
transparency (cached reads equal fresh reads), capacity, store refcount
bookkeeping, audit completeness, and replica convergence.
"""

from __future__ import annotations

import os

import pytest

from repro.cache.entry import EntryKey
from repro.cache.manager import DocumentCache
from repro.cache.policies import DegradationPolicy
from repro.cache.stats import CacheStats
from repro.contract.verifiers import TTLVerifier
from repro.faults.plan import FaultPlan, OutageWindow
from repro.faults.retry import RetryPolicy
from repro.placeless.kernel import PlacelessKernel
from repro.properties.audit import ReadAuditTrailProperty
from repro.properties.replication import ReplicationProperty
from repro.properties.versioning import VersioningProperty
from repro.providers.simfs import SimulatedFileSystem
from repro.workload.documents import CorpusSpec, build_corpus
from repro.workload.runner import TraceRunner
from repro.workload.trace import TraceSpec, generate_trace
from repro.workload.users import build_population

#: CI runs this tier across several seeds; locally it defaults to the
#: historical seed 77 so golden expectations stay easy to reproduce.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "77"))

#: ``stale hits / hits`` of the storm at each seed CI runs.  The trace is
#: seed-determined, so these are pins; any other seed gets the 0.25
#: alarm.  Seed 202 sits above it on one document: 59 of its 60 stale
#: hits are in-window reads of hot web document doc-0001, which GDS
#: (rightly) never evicts, after out-of-band changes to it.
_PINNED_STALENESS = {77: 1 / 91, 101: 9 / 133, 202: 60 / 234}


@pytest.fixture(scope="module")
def chaos_run():
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    corpus = build_corpus(
        kernel, owner,
        CorpusSpec(n_documents=10, ttl_ms=60_000.0, seed=CHAOS_SEED),
    )
    population = build_population(
        kernel, corpus, n_users=3, personalized_fraction=0.4,
        seed=CHAOS_SEED,
    )
    # Extra machinery on some documents.
    replica_fs = SimulatedFileSystem(kernel.ctx.clock)
    versioning = VersioningProperty()
    corpus[0].reference.base.attach(versioning)
    replication = ReplicationProperty(
        kernel.timers, replica_fs, "/replica/doc0", period_ms=2_000.0
    )
    population.reference(0, 0).attach(replication)
    audit = ReadAuditTrailProperty()
    population.reference(1, 1).attach(audit)

    cache = DocumentCache(
        kernel,
        capacity_bytes=max(
            2048, sum(d.size_bytes for d in corpus) // 4
        ),
        track_staleness=True,
        name="chaos",
    )
    # Ground-truth stale hits no declared window explains: the entry
    # served carried no TTL verifier (a pure observer of the bus).
    unexplained_stale: list = []

    def audit_stale_hit(event) -> None:
        if event.stage != "staleness":
            return
        entry = cache.core.entries[EntryKey(event.document_id, event.user_id)]
        if not any(isinstance(v, TTLVerifier) for v in entry.verifiers):
            unexplained_stale.append(entry.key)

    cache.instrumentation.subscribe(audit_stale_hit)
    runner = TraceRunner(
        kernel, corpus, population.references, caches=cache,
        writes_via_cache=False,
    )
    spec = TraceSpec(
        n_events=1200, n_documents=10, n_users=3,
        p_write=0.06, p_out_of_band=0.06,
        p_property_change=0.04, p_property_reorder=0.02,
        p_external_change=0.02,
        mean_think_time_ms=120.0,
        seed=CHAOS_SEED,
    )
    report = runner.execute(generate_trace(spec))
    return kernel, corpus, population, cache, report, {
        "versioning": versioning,
        "replication": replication,
        "audit": audit,
        "replica_fs": replica_fs,
        "unexplained_stale": unexplained_stale,
    }


class TestChaosInvariants:
    def test_trace_completed(self, chaos_run):
        _, _, _, _, report, _ = chaos_run
        assert report.events == 1200
        assert report.reads > 800

    def test_capacity_never_exceeded(self, chaos_run):
        _, _, _, cache, _, _ = chaos_run
        assert cache.used_bytes <= cache.capacity_bytes

    def test_store_refcounts_consistent(self, chaos_run):
        _, _, _, cache, _, _ = chaos_run
        by_signature: dict = {}
        for entry in cache.entries():
            by_signature[entry.signature] = (
                by_signature.get(entry.signature, 0) + 1
            )
        assert len(cache.store) == len(by_signature)
        for signature, count in by_signature.items():
            assert cache.store.refcount(signature) == count

    def test_cache_transparent_after_the_storm(self, chaos_run):
        kernel, corpus, population, cache, _, _ = chaos_run
        for user_index in range(3):
            for document_index in range(10):
                reference = population.reference(user_index, document_index)
                cached = cache.read(reference).content
                fresh = kernel.read(reference).content
                assert cached == fresh, (user_index, document_index)

    def test_versioning_archived_every_in_band_write_of_doc0(self, chaos_run):
        kernel, corpus, _, _, report, extras = chaos_run
        versioning = extras["versioning"]
        # Every in-band write to doc 0 passed through getOutputStream at
        # the base, so the version count equals those writes.
        writes_to_doc0 = corpus[0].provider.store_count
        assert versioning.version_count == writes_to_doc0

    def test_replication_converged(self, chaos_run):
        kernel, corpus, _, _, _, extras = chaos_run
        kernel.ctx.clock.advance(2_500.0)  # one more replication period
        assert (
            extras["replication"].replica_content
            == corpus[0].provider.peek()
        )

    def test_audit_saw_every_read_of_its_document(self, chaos_run):
        _, _, _, cache, _, extras = chaos_run
        audit = extras["audit"]
        # Audit records = direct reads + forwarded cache hits; at minimum
        # it must never have *missed* one: forwarded + direct >= hits
        # observed for that (doc, user) key.  We check internal
        # consistency: every forwarded record is flagged.
        assert all(
            record.via_cache in (True, False) for record in audit.trail
        )
        assert audit.reads_observed == len(audit.trail)

    def test_staleness_bounded(self, chaos_run):
        _, _, _, cache, _, extras = chaos_run
        # Notifiers + verifiers together: staleness is possible only
        # inside a TTL window (an out-of-band change to a web document
        # its TTL verifier has not yet expired on); anything else is a
        # bug, and so is runaway staleness.
        assert extras["unexplained_stale"] == []
        ratio = cache.stats.staleness_ratio
        if CHAOS_SEED in _PINNED_STALENESS:
            assert ratio == pytest.approx(
                _PINNED_STALENESS[CHAOS_SEED], abs=0.005
            )
        else:
            assert ratio < 0.25

    def test_stats_merge_roundtrip(self, chaos_run):
        _, _, _, cache, _, _ = chaos_run
        merged = CacheStats.merged([cache.stats])
        assert merged.hits == cache.stats.hits
        assert merged.invalidations == cache.stats.invalidations


# -- chaos under an active fault plan ----------------------------------------

#: The faulted trace spans ~36 s of virtual time (300 events × 120 ms);
#: both outage windows sit inside it.
_FAULT_OUTAGE = OutageWindow(8_000.0, 12_000.0)
_FAULT_LINK_OUTAGE = OutageWindow(20_000.0, 24_000.0, target="reference-to-base")


def _run_faulted_chaos(seed: int, n_events: int = 300):
    """One mixed trace under outages + a lossy notifier bus."""
    kernel = PlacelessKernel()
    kernel.ctx.faults = FaultPlan(
        kernel.ctx.clock,
        seed=seed,
        outages=(_FAULT_OUTAGE,),
        link_outages=(_FAULT_LINK_OUTAGE,),
        fetch_failure_probability=0.03,
        notifier_loss_probability=0.10,
        notifier_delay_probability=0.10,
        notifier_delay_ms=300.0,
    )
    owner = kernel.create_user("owner")
    corpus = build_corpus(
        kernel, owner,
        CorpusSpec(n_documents=8, ttl_ms=5_000.0, seed=seed),
    )
    population = build_population(
        kernel, corpus, n_users=3, personalized_fraction=0.3, seed=seed
    )
    cache = DocumentCache(
        kernel,
        capacity_bytes=2 * sum(d.size_bytes for d in corpus),
        retry_policy=RetryPolicy(max_attempts=3, base_delay_ms=50.0),
        degradation_policy=DegradationPolicy(
            serve_stale_on_error=True,
            stale_serve_max_age_ms=60_000.0,
            verifier_quarantine_threshold=5,
        ),
        name="faulted-chaos",
    )
    runner = TraceRunner(
        kernel, corpus, population.references, caches=cache,
        writes_via_cache=False,
    )
    spec = TraceSpec(
        n_events=n_events, n_documents=8, n_users=3,
        p_write=0.06, p_out_of_band=0.06,
        mean_think_time_ms=120.0,
        seed=seed,
    )
    report = runner.execute(generate_trace(spec))
    # The plan is returned separately: the recovery test detaches it
    # from the context, but later tests still inspect its stats.
    return kernel, corpus, population, cache, report, kernel.ctx.faults


@pytest.fixture(scope="module")
def faulted_chaos_run():
    return _run_faulted_chaos(seed=CHAOS_SEED)


class TestFaultedChaosInvariants:
    """The chaos invariants must survive an actively hostile world."""

    def test_trace_completed_despite_faults(self, faulted_chaos_run):
        _, _, _, _, report, plan = faulted_chaos_run
        assert report.events == 300
        assert plan.stats.total > 0  # faults actually fired

    def test_availability_stayed_high(self, faulted_chaos_run):
        _, _, _, _, report, _ = faulted_chaos_run
        # Retries + degradation absorb most injected failures.
        assert report.availability >= 0.9

    def test_capacity_never_exceeded(self, faulted_chaos_run):
        _, _, _, cache, _, _ = faulted_chaos_run
        assert cache.used_bytes <= cache.capacity_bytes

    def test_store_refcounts_consistent(self, faulted_chaos_run):
        _, _, _, cache, _, _ = faulted_chaos_run
        by_signature: dict = {}
        for entry in cache.entries():
            by_signature[entry.signature] = (
                by_signature.get(entry.signature, 0) + 1
            )
        assert len(cache.store) == len(by_signature)
        for signature, count in by_signature.items():
            assert cache.store.refcount(signature) == count

    def test_transparency_restored_after_recovery(self, faulted_chaos_run):
        kernel, corpus, population, cache, _, _ = faulted_chaos_run
        # Repair the world: past every window, faults off, quarantines
        # lifted, pending delayed deliveries drained.
        kernel.ctx.clock.advance(5_000.0)
        kernel.ctx.faults = None
        cache.core.quarantine.reset_all()
        for user_index in range(3):
            for document_index in range(8):
                reference = population.reference(user_index, document_index)
                cached = cache.read(reference).content
                fresh = kernel.read(reference).content
                assert cached == fresh, (user_index, document_index)

    def test_lost_callbacks_were_injected_and_some_caught(
        self, faulted_chaos_run
    ):
        _, _, _, cache, _, plan = faulted_chaos_run
        assert plan.stats.notifications_lost > 0
        assert cache.bus.stats.lost > 0
        # Detection is workload-dependent; it must never exceed losses.
        assert (
            cache.stats.dropped_notifier_detected <= cache.bus.stats.lost
        )

    def test_same_seed_reproduces_the_run_exactly(self):
        _, _, _, first_cache, first_report, first_plan = _run_faulted_chaos(
            seed=123, n_events=150
        )
        _, _, _, second_cache, second_report, second_plan = _run_faulted_chaos(
            seed=123, n_events=150
        )
        assert first_plan.injection_trace() == second_plan.injection_trace()
        assert first_report.availability == second_report.availability
        assert vars(first_cache.stats) == vars(second_cache.stats)
