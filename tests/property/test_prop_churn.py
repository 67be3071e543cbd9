"""Churn-workload properties: determinism, popularity, lifecycle.

The churn generator feeds the A20 scale bench, so its guarantees are
load-bearing for reproducibility claims:

* same :class:`ChurnSpec` → the identical event stream, twice;
* Zipf popularity is monotone in rank — low ranks of the live set are
  read more often than high ranks;
* no document is read or written before its PUBLISH or after its
  PERISH — the trace only touches live documents;
* publishes mint each catalog index at most once, in index order.

The seed strategy honours ``REPRO_CHAOS_SEED`` (77/101/202 in CI) the
same way the chaos tiers do, so each matrix leg explores a different
corner of spec space.
"""

from __future__ import annotations

import os
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.churn import (
    ChurnCatalog,
    ChurnEventKind,
    ChurnSpec,
    ZipfSampler,
    generate_churn,
)
from repro.workload.documents import CorpusSpec
from repro.placeless.kernel import PlacelessKernel

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "77"))


def spec_from(seed: int, **overrides) -> ChurnSpec:
    base = dict(
        n_events=1500,
        n_documents=300,
        n_live_start=120,
        n_users=3,
        zipf_alpha=0.9,
        p_write=0.05,
        p_publish=0.02,
        p_perish=0.01,
        p_flash=0.002,
        flash_duration=50,
        cycle_period=200,
        mean_think_time_ms=1.0,
        seed=seed,
    )
    base.update(overrides)
    return ChurnSpec(**base)


seeds = st.integers(min_value=0, max_value=2**16).map(
    lambda s: s ^ CHAOS_SEED
)


class TestChurnDeterminism:
    @settings(max_examples=15, deadline=None)
    @given(seed=seeds)
    def test_same_spec_same_stream(self, seed):
        spec = spec_from(seed)
        first = list(generate_churn(spec))
        second = list(generate_churn(spec))
        assert first == second
        assert len(first) >= spec.n_events  # publishes/perishes ride along


class TestChurnLifecycle:
    @settings(max_examples=15, deadline=None)
    @given(seed=seeds)
    def test_no_touch_outside_lifetime(self, seed):
        spec = spec_from(seed)
        live = set(range(spec.n_live_start))
        for event in generate_churn(spec):
            if event.kind is ChurnEventKind.PUBLISH:
                assert event.document_index not in live
                live.add(event.document_index)
            elif event.kind is ChurnEventKind.PERISH:
                assert event.document_index in live
                live.remove(event.document_index)
            else:
                assert event.document_index in live
            assert 0 <= event.user_index < spec.n_users
            assert event.think_time_ms >= 0.0

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_publishes_unique_and_in_order(self, seed):
        spec = spec_from(seed, p_publish=0.05)
        published = [
            event.document_index
            for event in generate_churn(spec)
            if event.kind is ChurnEventKind.PUBLISH
        ]
        assert len(published) == len(set(published))
        assert published == sorted(published)
        assert all(index >= spec.n_live_start for index in published)


class TestChurnPopularity:
    def test_low_ranks_dominate(self):
        spec = spec_from(CHAOS_SEED, n_events=12_000, p_publish=0.0,
                         p_perish=0.0, p_flash=0.0)
        counts = [0] * spec.n_documents
        for event in generate_churn(spec):
            if event.kind is ChurnEventKind.READ:
                counts[event.document_index] += 1
        # With no churn, rank order is stable: index == live rank.
        head = sum(counts[: spec.n_live_start // 10])
        tail = sum(counts[spec.n_live_start // 2:])
        assert head > tail
        assert counts[0] > counts[spec.n_live_start - 1]

    def test_zipf_sampler_respects_live_prefix(self):
        sampler = ZipfSampler(100, alpha=0.9)
        rng = random.Random(CHAOS_SEED)
        draws = [sampler.sample(rng, n_live=10) for _ in range(500)]
        assert all(0 <= draw < 10 for draw in draws)
        assert min(draws) == 0  # rank 0 is by far the likeliest


class TestLazyCatalog:
    def test_materializes_only_touched_documents(self):
        kernel = PlacelessKernel()
        owner = kernel.create_user("owner")
        catalog = ChurnCatalog(
            kernel, owner, CorpusSpec(n_documents=500, seed=CHAOS_SEED)
        )
        assert catalog.materialized_count == 0
        assert catalog.peek(123) is None
        document = catalog.document(123)
        assert catalog.materialized_count == 1
        assert catalog.peek(123) is document
        assert catalog.document(123) is document  # idempotent
        assert document.size_bytes == catalog.size_of(123)
        assert document.repository == catalog.repository_of(123)

    def test_sizes_known_without_materializing(self):
        kernel = PlacelessKernel()
        owner = kernel.create_user("owner")
        spec = CorpusSpec(n_documents=200, seed=CHAOS_SEED)
        catalog = ChurnCatalog(kernel, owner, spec)
        sizes = [catalog.size_of(index) for index in range(len(catalog))]
        assert catalog.materialized_count == 0
        assert all(
            spec.min_size <= size <= spec.max_size for size in sizes
        )
