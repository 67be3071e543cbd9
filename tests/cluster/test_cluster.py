"""Cluster coordinator behaviour: routing, sharing, topology churn.

Each deployment is a real multi-shard cluster over one kernel; the
assertions pin the tentpole contracts — placement-consistent routing,
cross-shard memo imports with exact store refcounts, cluster-wide
invalidation fan-out, and rebalance/shard-loss repaired through the
reused anti-entropy resync rather than a parallel repair path.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cache.entry import EntryKey
from repro.cache.manager import DocumentCache
from repro.cache.memo import TransformMemo
from repro.cache.policies import (
    DefaultConcurrencyPolicy,
    DefaultMemoPolicy,
    DefaultRecoveryPolicy,
)
from repro.cluster import CacheCluster, DefaultClusterPolicy
from repro.errors import CacheError
from repro.placeless.kernel import PlacelessKernel
from repro.properties.translate import TranslationProperty
from repro.workload.documents import CorpusSpec, build_corpus
from repro.workload.users import build_population

_SEED = 11


def _deploy(
    shard_count: int,
    shared: bool,
    n_users: int = 8,
    n_documents: int = 4,
    recovery: bool = True,
    concurrency: bool = True,
    name: str = "t",
):
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    corpus = build_corpus(
        kernel,
        owner,
        CorpusSpec(n_documents=n_documents, ttl_ms=3_600_000.0, seed=_SEED),
    )
    for document in corpus:
        document.reference.base.attach(TranslationProperty())
    population = build_population(
        kernel, corpus, n_users, personalized_fraction=0.0, seed=_SEED
    )
    cluster = CacheCluster(
        kernel,
        shard_count,
        capacity_bytes=1 << 30,
        cluster_policy=DefaultClusterPolicy() if shared else None,
        memo_policy=DefaultMemoPolicy(),
        concurrency_policy=(
            DefaultConcurrencyPolicy() if concurrency else None
        ),
        recovery_policy=DefaultRecoveryPolicy() if recovery else None,
        name=name,
    )
    return kernel, corpus, population, cluster


def _all_references(population, n_users: int, n_documents: int):
    return [
        population.reference(user, document)
        for user in range(n_users)
        for document in range(n_documents)
    ]


class TestConstructionAndRouting:
    def test_shard_count_validated(self):
        kernel = PlacelessKernel()
        with pytest.raises(CacheError):
            CacheCluster(kernel, 0, capacity_bytes=1 << 20)

    def test_share_memo_requires_memo_policy(self):
        kernel = PlacelessKernel()
        with pytest.raises(CacheError):
            CacheCluster(
                kernel,
                2,
                capacity_bytes=1 << 20,
                cluster_policy=DefaultClusterPolicy(),
            )

    def test_injected_memo_requires_memo_policy_on_the_cache(self):
        kernel = PlacelessKernel()
        with pytest.raises(CacheError):
            DocumentCache(
                kernel, capacity_bytes=1 << 20, memo=TransformMemo(16)
            )

    def test_reads_land_on_the_placed_shard(self):
        _, _, population, cluster = _deploy(4, shared=False)
        for reference in _all_references(population, 8, 4):
            shard = cluster.shard_for(reference)
            before = shard.stats.hits + shard.stats.misses
            cluster.read(reference)
            assert shard.stats.hits + shard.stats.misses == before + 1

    def test_entries_spread_over_multiple_shards(self):
        _, _, population, cluster = _deploy(4, shared=False)
        for outcome in cluster.read_many(
            _all_references(population, 8, 4)
        ):
            assert outcome.content
        populated = [s for s in cluster.shards.values() if len(s)]
        assert len(populated) >= 2
        assert len(cluster) == sum(len(s) for s in populated)
        assert cluster.describe().count("entries") >= len(populated)

    def test_shared_planes_are_single_objects(self):
        _, _, _, cluster = _deploy(4, shared=True)
        cores = [shard.core for shard in cluster.shards.values()]
        assert all(core.memo is cluster.shared_memo for core in cores)
        assert all(
            core.flights is cluster.shared_flights for core in cores
        )
        assert cluster.shared_memo.attached() == list(cluster.shards)

    def test_isolated_planes_are_private(self):
        _, _, _, cluster = _deploy(3, shared=False)
        memos = {id(shard.core.memo) for shard in cluster.shards.values()}
        flights = {
            id(shard.core.flights) for shard in cluster.shards.values()
        }
        assert len(memos) == 3 and len(flights) == 3
        assert cluster.shared_memo is None
        assert cluster.shared_flights is None


class TestCrossShardMemoSharing:
    def test_imports_avoid_chain_executions(self):
        kernel_i, _, population_i, isolated = _deploy(
            4, shared=False, name="iso"
        )
        references = _all_references(population_i, 8, 4)
        before = kernel_i.stats.reads
        isolated.read_many(references)
        isolated_chains = kernel_i.stats.reads - before

        kernel_s, _, population_s, shared = _deploy(
            4, shared=True, name="shr"
        )
        references = _all_references(population_s, 8, 4)
        before = kernel_s.stats.reads
        outcomes = shared.read_many(references)
        shared_chains = kernel_s.stats.reads - before

        assert shared.shared_memo.imports > 0
        assert shared.shared_memo.import_bytes > 0
        assert shared_chains * 2 <= isolated_chains
        memo_stats = shared.memo_stats
        assert memo_stats is not None
        assert memo_stats.imports == shared.shared_memo.imports
        assert memo_stats.adoptions >= memo_stats.imports
        # Imported entries serve the same transformed bytes.
        by_document = {}
        for reference, outcome in zip(references, outcomes):
            document_id = reference.base.document_id
            by_document.setdefault(document_id, set()).add(outcome.content)
        assert all(len(contents) == 1 for contents in by_document.values())

    def test_imports_charge_the_shard_link(self):
        kernel, _, population, cluster = _deploy(4, shared=True)
        charged: list[str] = []
        original = kernel.ctx.charge_hop

        def recording_charge(hop, size_bytes=0):
            charged.append(hop)
            return original(hop, size_bytes)

        kernel.ctx.charge_hop = recording_charge
        cluster.read_many(_all_references(population, 8, 4))
        assert cluster.shared_memo.imports > 0
        assert charged.count("shard-to-shard") == (
            cluster.shared_memo.imports
        )

    def test_imported_bytes_survive_a_donor_crash(self):
        # The import *copies* bytes into the requester's store: the
        # donor dying afterwards must not corrupt the importer.
        _, corpus, population, cluster = _deploy(4, shared=True)
        references = _all_references(population, 8, 4)
        first = [o.content for o in cluster.read_many(references)]
        assert cluster.shared_memo.imports > 0
        cluster.lose_shard(next(iter(cluster.shards)))
        second = cluster.read_many(references)
        for reference, outcome, original in zip(
            references, second, first
        ):
            placed = cluster.shard_for(reference)
            if EntryKey.for_reference(reference) in placed:
                assert outcome.content == original

    def test_shared_flight_coalescing_engages_across_the_batch(self):
        _, _, population, cluster = _deploy(4, shared=True)
        cluster.read_many(_all_references(population, 8, 4))
        stats = cluster.concurrency_stats
        assert stats is not None
        assert stats.follows > 0


class TestInvalidationFanout:
    def test_fanout_counts_shards_actually_holding_entries(self):
        _, corpus, population, cluster = _deploy(4, shared=False)
        cluster.read_many(_all_references(population, 8, 4))
        document_id = corpus[0].reference.base.document_id
        holding = sum(
            1
            for shard in cluster.shards.values()
            if any(
                entry.key.document_id == document_id
                for entry in shard.entries()
            )
        )
        dropped = cluster.invalidate_document(document_id)
        assert dropped > 0
        assert cluster.invalidations == 1
        assert cluster.invalidation_shard_touches == holding
        # Idempotent second pass touches nothing.
        assert cluster.invalidate_document(document_id) == 0
        assert cluster.invalidation_shard_touches == holding

    def test_invalidated_documents_refetch_fresh_content(self):
        _, corpus, population, cluster = _deploy(2, shared=True)
        reference = population.reference(0, 0)
        cluster.read(reference)
        corpus[0].provider.mutate_out_of_band(b"fresh bytes after edit")
        cluster.invalidate_document(corpus[0].reference.base.document_id)
        assert b"fresh bytes" in cluster.read(reference).content.lower()


class TestTopologyChurn:
    def test_rebalance_requires_recovery(self):
        _, _, _, cluster = _deploy(2, shared=False, recovery=False)
        with pytest.raises(CacheError):
            cluster.rebalance()

    def test_rebalance_is_a_noop_on_a_stable_ring(self):
        _, _, population, cluster = _deploy(3, shared=False)
        cluster.read_many(_all_references(population, 8, 4))
        assert cluster.rebalance() == 0
        assert cluster.rebalance_repairs == 0

    def test_add_shard_resyncs_replaced_entries_away(self):
        _, _, population, cluster = _deploy(3, shared=True)
        references = _all_references(population, 8, 4)
        first = [o.content for o in cluster.read_many(references)]
        entries_before = len(cluster)
        new_name = cluster.add_shard()
        assert new_name in cluster.shards
        assert cluster.rebalance_repairs > 0
        assert len(cluster) == entries_before - cluster.rebalance_repairs
        # Every surviving entry sits where the ring now places it.
        for shard_name, shard in cluster.shards.items():
            for entry in shard.entries():
                assert cluster._placement.place(entry.key) == shard_name
        second = [o.content for o in cluster.read_many(references)]
        assert second == first

    def test_lose_shard_recovers_through_survivors(self):
        _, _, population, cluster = _deploy(4, shared=True)
        references = _all_references(population, 8, 4)
        first = [o.content for o in cluster.read_many(references)]
        victim = next(iter(cluster.shards))
        cluster.lose_shard(victim)
        assert victim not in cluster.shards
        assert cluster.shard_count == 3
        assert victim not in cluster.shared_memo.attached()
        second = [o.content for o in cluster.read_many(references)]
        assert second == first

    def test_lose_unknown_shard_rejected(self):
        _, _, _, cluster = _deploy(2, shared=False)
        with pytest.raises(CacheError):
            cluster.lose_shard("nope")

    def test_lose_shard_purges_conservatively_then_repopulates(self):
        _, _, population, cluster = _deploy(4, shared=True)
        references = _all_references(population, 8, 4)
        cluster.read_many(references)
        assert len(cluster.shared_memo) > 0
        cluster.lose_shard(next(iter(cluster.shards)))
        # The survivors' anti-entropy resync purges the shared plane —
        # every record is under the same suspicion — and the next
        # reads rebuild it.
        assert len(cluster.shared_memo) == 0
        cluster.read_many(references)
        assert len(cluster.shared_memo) > 0

    def test_dead_members_crash_spares_the_shared_plane(self):
        # The detach-before-crash ordering lose_shard relies on: a
        # crashed member purges only its own (already severed) view.
        _, _, population, cluster = _deploy(4, shared=True)
        cluster.read_many(_all_references(population, 8, 4))
        records_before = len(cluster.shared_memo)
        assert records_before > 0
        victim_name, victim = next(iter(cluster.shards.items()))
        cluster.shared_memo.detach(victim_name)
        victim.core.memo = None
        victim.crash()
        assert len(cluster.shared_memo) == records_before

    def test_totals_conserve_reads_across_shard_loss(self):
        # Totals used to sum the surviving shards only, so losing a
        # shard took the reads it had served out of every aggregate.
        _, _, population, cluster = _deploy(4, shared=True)
        references = _all_references(population, 8, 4)

        def totals() -> dict[str, int]:
            counted = {}
            for group in (
                cluster.aggregate_stats(), cluster.memo_stats,
                cluster.concurrency_stats,
            ):
                for field in dataclasses.fields(group):
                    value = getattr(group, field.name)
                    if isinstance(value, (int, float)):
                        counted[f"{type(group).__name__}.{field.name}"] = value
            return counted

        issued = len(cluster.read_many(references))
        cluster.add_shard()
        issued += len(cluster.read_many(references))
        before = totals()
        hit_ratio_before = cluster.hit_ratio
        cluster.lose_shard(next(iter(cluster.shards)))
        after = totals()
        # (Float sums are re-added in a new shard order: last-digit slack.)
        lower = {
            name: (before[name], after[name])
            for name in before
            if after[name] < before[name]
            and after[name] != pytest.approx(before[name])
        }
        assert not lower
        stats = cluster.aggregate_stats()
        assert stats.hits + stats.misses == issued
        assert cluster.hit_ratio == hit_ratio_before
        issued += len(cluster.read_many(references))
        stats = cluster.aggregate_stats()
        assert stats.hits + stats.misses == issued
        assert sum(stats.invalidations.values()) >= sum(
            shard.stats.invalidations.total()
            for shard in cluster.shards.values()
        )


class TestSequentialFallback:
    def test_read_many_without_concurrency_is_sequential(self):
        _, _, population, cluster = _deploy(
            2, shared=False, concurrency=False
        )
        references = _all_references(population, 4, 4)
        outcomes = cluster.read_many(references)
        assert [o.content for o in outcomes] == [
            o.content for o in cluster.read_many(references)
        ]
        assert cluster.concurrency_stats is None
        assert cluster.read_many([], return_exceptions=True) == []


class TestSingleCacheParity:
    def test_one_shard_no_policy_is_byte_identical(self):
        from repro.bench.cluster import check_parity

        parity = check_parity(seed=_SEED)
        assert parity["parity_ok"], parity
