"""Smoke tests: every bench runs (at reduced scale) and its shape holds.

These are the assertions behind EXPERIMENTS.md — each experiment's
qualitative claim is checked mechanically, so a regression that flips a
conclusion fails the suite, not just the benchmark report.
"""

from __future__ import annotations

import importlib

import pytest

from repro.bench import harness
from repro.bench.cacheability import run_cacheability
from repro.bench.chains import run_chain_latency
from repro.bench.containment import run_availability, run_recovery
from repro.bench.collections import run_collections
from repro.bench.external import run_external_placement
from repro.bench.memo import run_memo
from repro.bench.notifier_verifier import run_notifier_verifier
from repro.bench.placement import run_placement
from repro.bench.qos import run_qos
from repro.bench.replacement import run_capacity_sweep, run_replacement
from repro.bench.sharing import run_sharing
from repro.bench.table1 import format_table1, run_table1
from repro.bench.writes import run_write_modes
from tests.integration import snapshot


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_table1(repeats=3)

    def test_three_documents_with_paper_sizes(self, rows):
        assert [r.size_bytes for r in rows] == [1915, 10_883, 1104]

    def test_hit_is_orders_of_magnitude_faster(self, rows):
        for row in rows:
            assert row.hit_speedup > 50

    def test_miss_overhead_is_small(self, rows):
        # "the overhead to create a minimum set of notifiers ... and the
        # returning of one TTL-based verifier is small" — under 5%.
        for row in rows:
            assert 0 <= row.miss_overhead_fraction < 0.05

    def test_www_documents_slower_than_parcweb(self, rows):
        parcweb = rows[0]
        for www_row in rows[1:]:
            assert www_row.no_cache_ms > parcweb.no_cache_ms

    def test_formatting_matches_paper_layout(self, rows):
        text = format_table1(rows)
        assert "parcweb (1915 bytes)" in text
        assert "www (10883 bytes)" in text
        assert "no cache" in text and "cache miss" in text


class TestA1NotifierVerifier:
    @pytest.fixture(scope="class")
    def rows(self):
        results = run_notifier_verifier(n_documents=20, n_events=500)
        return {r.config: r for r in results}

    def test_both_is_least_stale(self, rows):
        assert rows["both"].staleness_ratio <= rows["notifiers-only"].staleness_ratio
        assert rows["both"].staleness_ratio <= rows["verifiers-only"].staleness_ratio
        assert rows["both"].staleness_ratio < rows["none"].staleness_ratio

    def test_verifiers_cost_hit_latency(self, rows):
        assert (
            rows["verifiers-only"].mean_hit_latency_ms
            > rows["notifiers-only"].mean_hit_latency_ms
        )

    def test_notifiers_cost_system_load(self, rows):
        assert rows["notifiers-only"].notifier_deliveries > 0
        assert rows["verifiers-only"].notifier_deliveries == 0

    def test_none_is_most_stale(self, rows):
        assert rows["none"].staleness_ratio >= rows["notifiers-only"].staleness_ratio


class TestA2Replacement:
    @pytest.fixture(scope="class")
    def rows(self):
        results = run_replacement(
            policies=("gds", "gdsf", "lru", "fifo", "random"),
            n_documents=60,
            n_reads=800,
        )
        return {r.policy: r for r in results}

    def test_cost_aware_beats_recency_on_latency(self, rows):
        best_gds = min(rows["gds"].total_latency_ms, rows["gdsf"].total_latency_ms)
        assert best_gds < rows["lru"].total_latency_ms
        assert best_gds < rows["fifo"].total_latency_ms
        assert best_gds < rows["random"].total_latency_ms

    def test_all_policies_get_some_hits(self, rows):
        assert all(r.hit_ratio > 0.05 for r in rows.values())

    def test_cost_aware_leads_lru_at_every_cache_size(self):
        # A2b, the Greedy-Dual-Size paper's capacity series.
        sweep = run_capacity_sweep(
            policies=("gds", "lru"), fractions=(0.05, 0.25),
            n_documents=60, n_reads=600,
        )
        for fraction, results in sweep.items():
            by_name = {r.policy: r for r in results}
            assert (
                by_name["gds"].mean_latency_ms
                <= by_name["lru"].mean_latency_ms
            ), fraction


class TestA3Sharing:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_sharing(fractions=(0.0, 0.5, 1.0), n_documents=8, n_users=8)

    def test_zero_personalization_shares_fully(self, rows):
        assert rows[0].dedup_factor == pytest.approx(8.0)
        assert rows[0].distinct_contents == 8

    def test_dedup_decreases_with_personalization(self, rows):
        assert rows[0].dedup_factor > rows[1].dedup_factor

    def test_sharing_never_below_one(self, rows):
        assert all(r.dedup_factor >= 1.0 for r in rows)

    def test_entry_count_constant(self, rows):
        assert all(r.n_entries == 64 for r in rows)


class TestA4Cacheability:
    @pytest.fixture(scope="class")
    def rows(self):
        results = run_cacheability(n_documents=10, n_reads=300)
        return {r.config: r for r in results}

    def test_with_events_audit_complete(self, rows):
        assert rows["with-events"].audit_complete
        assert rows["uncacheable"].audit_complete

    def test_with_events_much_faster_than_uncacheable(self, rows):
        assert (
            rows["with-events"].mean_latency_ms
            < rows["uncacheable"].mean_latency_ms / 3
        )

    def test_uncacheable_never_hits(self, rows):
        assert rows["uncacheable"].hit_ratio == 0.0

    def test_forwarding_only_in_with_events(self, rows):
        assert rows["with-events"].forwarded_reads > 0
        assert rows["unrestricted"].forwarded_reads == 0


class TestA6QoS:
    @pytest.fixture(scope="class")
    def rows(self):
        results = run_qos(n_documents=60, n_qos=6, n_reads=1200)
        return {r.config: r for r in results}

    def test_inflation_improves_compliance(self, rows):
        assert (
            rows["inflated"].qos_compliance
            > rows["no-inflation"].qos_compliance
        )

    def test_inflation_lowers_qos_latency(self, rows):
        assert (
            rows["inflated"].qos_mean_latency_ms
            < rows["no-inflation"].qos_mean_latency_ms
        )


class TestA7Chains:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_chain_latency(lengths=(0, 2, 4), repeats=3)

    def test_uncached_latency_grows_with_chain(self, rows):
        latencies = [r.uncached_ms for r in rows]
        assert latencies == sorted(latencies)
        assert latencies[-1] > latencies[0]

    def test_hit_latency_stays_flat(self, rows):
        hits = [r.hit_ms for r in rows]
        assert max(hits) - min(hits) < 0.1
        # ... so the longer the chain, the more a hit saves.
        assert rows[-1].speedup > rows[0].speedup

    def test_replacement_cost_grows_with_chain(self, rows):
        costs = [r.replacement_cost_ms for r in rows]
        assert costs == sorted(costs)


class TestA8Placement:
    @pytest.fixture(scope="class")
    def rows(self):
        results = run_placement(n_documents=25, n_users=4, n_events=800)
        return {r.deployment: r for r in results}

    def test_app_level_hits_are_cheapest_per_hit(self, rows):
        assert (
            rows["app-level"].mean_latency_ms < rows["server"].mean_latency_ms
        )

    def test_shared_server_cache_saves_memory(self, rows):
        assert rows["server"].bytes_cached < rows["app-level"].bytes_cached

    def test_adoption_collapses_kernel_reads(self, rows):
        # A memo serve adopts another user's output signature: each
        # document's chain runs once, whoever reads it first.
        assert (
            rows["server+memo"].kernel_reads < rows["server"].kernel_reads
        )
        assert rows["server+memo"].kernel_reads == 25
        assert rows["app+memo"].kernel_reads == 25

    def test_app_caches_on_one_memo_plane_win(self, rows):
        # Local hits, and a sibling's bytes imported instead of a chain
        # run: the fastest arm, caching what plain app-level caches do.
        best = min(rows.values(), key=lambda r: r.mean_latency_ms)
        assert best.deployment == "app+memo"
        assert rows["app+memo"].bytes_cached == rows["app-level"].bytes_cached


class TestA9Collections:
    @pytest.fixture(scope="class")
    def rows(self):
        results = run_collections(
            n_collections=8, collection_size=5, n_bursts=60
        )
        return {r.config: r for r in results}

    def test_prefetch_accelerates_follow_reads(self, rows):
        assert (
            rows["prefetch"].mean_follow_latency_ms
            < rows["no-prefetch"].mean_follow_latency_ms / 2
        )

    def test_prefetch_costs_speculative_fills(self, rows):
        assert rows["prefetch"].prefetch_fills > 0
        assert rows["no-prefetch"].prefetch_fills == 0
        assert rows["prefetch"].hit_ratio >= rows["no-prefetch"].hit_ratio


class TestA10ExternalPlacement:
    @pytest.fixture(scope="class")
    def rows(self):
        results = run_external_placement(n_reads=300)
        return {r.placement: r for r in results}

    def test_verifier_placement_never_stale(self, rows):
        assert rows["verifier"].stale_ratio == 0.0

    def test_verifier_placement_pays_hit_latency(self, rows):
        assert (
            rows["verifier"].mean_hit_latency_ms
            > rows["notifier-fast"].mean_hit_latency_ms * 2
        )

    def test_polling_period_controls_staleness_and_load(self, rows):
        fast, slow = rows["notifier-fast"], rows["notifier-slow"]
        assert fast.stale_ratio < slow.stale_ratio
        assert fast.samples_taken > slow.samples_taken


class TestA11WriteModes:
    @pytest.fixture(scope="class")
    def rows(self):
        results = run_write_modes(n_saves=40, saves_per_flush=5)
        return {r.mode: r for r in results}

    def test_write_back_saves_are_cheaper_and_commit_less(self, rows):
        through, back = rows["write-through"], rows["write-back"]
        assert back.mean_save_latency_ms < through.mean_save_latency_ms / 2
        assert back.repository_commits < through.repository_commits / 2

    def test_write_back_pays_with_a_visibility_window(self, rows):
        assert rows["write-through"].reviewer_staleness == 0.0
        assert rows["write-back"].reviewer_staleness > 0.5

    def test_write_path_properties_observe_every_buffered_save(self, rows):
        # Via WRITE_FORWARDED, not just the flushes.
        back = rows["write-back"]
        assert back.versions_observed >= back.saves


class TestA14Containment:
    @pytest.fixture(scope="class")
    def cells(self):
        results = {}
        for rate in (0.0, 0.10):
            for contained in (False, True):
                results[(rate, contained)] = run_availability(
                    rate, contained, rounds=12, n_documents=6
                )
        return results

    def test_fault_free_runs_are_identical_either_way(self, cells):
        bare, contained = cells[(0.0, False)], cells[(0.0, True)]
        assert bare.failures == contained.failures == 0
        assert bare.availability == contained.availability == 1.0
        assert contained.trips == 0

    def test_containment_keeps_availability_near_baseline(self, cells):
        baseline = cells[(0.0, False)].availability
        contained = cells[(0.10, True)].availability
        uncontained = cells[(0.10, False)].availability
        assert baseline - contained <= 0.05
        assert baseline - uncontained > 0.05

    def test_containment_collapses_the_latency_tail(self, cells):
        assert (
            cells[(0.10, True)].p99_latency_ms
            < cells[(0.10, False)].p99_latency_ms
        )

    def test_containment_machinery_actually_engaged(self, cells):
        r = cells[(0.10, True)]
        assert r.trips > 0
        assert r.contained_raises + r.budget_overruns + r.escapes > 0

    def test_breakers_close_within_one_probation_window(self):
        r = run_recovery(rounds=12, n_documents=6)
        assert r.open_after_faults > 0
        assert r.open_after_recovery == 0
        assert r.closes == r.open_after_faults
        assert r.recovered_degraded_reads == 0
        assert r.recovered_failures == 0


class TestMemoization:
    """A15: chain executions avoided once users share a chain."""

    @pytest.fixture(scope="class")
    def cells(self):
        return {
            memo: run_memo(8, memo, n_documents=4)
            for memo in (False, True)
        }

    def test_memo_off_executes_every_chain(self, cells):
        baseline = cells[False]
        assert baseline.chain_executions == baseline.reads
        assert baseline.chain_executions_avoided == 0

    def test_memo_on_executes_once_per_distinct_pair(self, cells):
        memoized = cells[True]
        assert memoized.chain_executions == memoized.n_documents
        assert memoized.avoided_pct == pytest.approx(1 - 1 / 8)
        assert memoized.memo_adoptions == memoized.chain_executions_avoided

    def test_memoized_misses_are_cheaper(self, cells):
        assert cells[True].mean_ms < cells[False].mean_ms
        assert cells[True].p50_ms < cells[False].p50_ms


def _moved(directory, experiment_id: str) -> list[str]:
    """Every key of *experiment_id*'s artifact that departs from the
    golden metrics, prefixed with the experiment id."""
    return snapshot.differences(
        {experiment_id: snapshot.load("bench_smoke")[experiment_id]},
        {experiment_id: snapshot.artifacts(directory)[experiment_id]},
    )


class TestGoldenMetrics:
    """Table 1–A19 are virtual-clock: a smoke run's artifact is a pure
    function of the seed, pinned in ``golden/bench_smoke.json``.  Tier-1
    re-runs the cheapest seam experiments (~0.3 s together); CI's
    ``benchmarks`` job compares all 21 with the same function."""

    @pytest.fixture
    def artifact_dir(self, tmp_path, monkeypatch):
        # Outside a git checkout the artifact lands in the working
        # directory: keep the repo root's BENCH files out of it.
        monkeypatch.setattr(harness, "_git", lambda *argv: None)
        monkeypatch.chdir(tmp_path)
        return tmp_path

    @pytest.mark.parametrize(
        "experiment_id, module_name",
        [
            ("A13", "recovery"),
            ("A15", "memo"),
            ("A16", "stampede"),
            ("A17", "cluster"),
            ("A18", "persistence"),
        ],
    )
    def test_smoke_artifact_equals_the_golden(
        self, experiment_id, module_name, artifact_dir, capsys
    ):
        importlib.import_module(f"repro.bench.{module_name}").main(smoke=True)
        assert f"wrote BENCH_{experiment_id}.json" in capsys.readouterr().out
        assert _moved(artifact_dir, experiment_id) == []

    def test_a_moved_metric_is_reported_by_path(self, artifact_dir):
        harness.write_artifact("a16", {"smoke": True, "sweep": []}, seed=47)
        lines = _moved(artifact_dir, "A16")
        assert "A16.metrics.sweep: 2 rows -> 0 rows" in lines
        assert any(line.startswith("A16.metrics.headline: ") for line in lines)
