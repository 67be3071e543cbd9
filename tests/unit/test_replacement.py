"""Tests for the replacement policies."""

from __future__ import annotations

import pytest

from repro.cache.entry import CacheEntry, EntryKey
from repro.cache.replacement import (
    FIFOPolicy,
    GreedyDualPolicy,
    GreedyDualSizePolicy,
    LFUPolicy,
    LRUPolicy,
    RandomPolicy,
    SizePolicy,
    make_policy,
)
from repro.content.signature import sign
from repro.contract.cacheability import Cacheability
from repro.errors import CacheError
from repro.ids import DocumentId, UserId


def make_entry(name: str, size: int = 100, cost: float = 1.0) -> CacheEntry:
    return CacheEntry(
        key=EntryKey(DocumentId(name), UserId("u")),
        signature=sign(name.encode()),
        size=size,
        cacheability=Cacheability.UNRESTRICTED,
        verifiers=[],
        replacement_cost_ms=cost,
        chain_signature=(),
        reference_id=None,
        created_at_ms=0.0,
        last_access_ms=0.0,
    )


def surplus(policy) -> int:
    """Heap items beyond one per live key: superseded or dead."""
    return len(policy._heap) - len(policy._stamps)


def register(policy, entries):
    table = {}
    for entry in entries:
        table[entry.key] = entry
        policy.on_insert(entry)
    return table


class TestLRU:
    def test_evicts_least_recent(self):
        policy = LRUPolicy()
        entries = [make_entry("a"), make_entry("b"), make_entry("c")]
        table = register(policy, entries)
        policy.on_access(entries[0])  # refresh "a"
        victim = policy.select_victim(table)
        assert victim == entries[1].key

    def test_empty_raises(self):
        with pytest.raises(CacheError):
            LRUPolicy().select_victim({})


class TestLFU:
    def test_evicts_least_frequent(self):
        policy = LFUPolicy()
        entries = [make_entry("a"), make_entry("b")]
        table = register(policy, entries)
        for _ in range(3):
            entries[0].access_count += 1
            policy.on_access(entries[0])
        assert policy.select_victim(table) == entries[1].key


class TestFIFO:
    def test_evicts_oldest_insert_despite_access(self):
        policy = FIFOPolicy()
        entries = [make_entry("a"), make_entry("b")]
        table = register(policy, entries)
        policy.on_access(entries[0])  # must not refresh under FIFO
        assert policy.select_victim(table) == entries[0].key


class TestSize:
    def test_evicts_largest(self):
        policy = SizePolicy()
        entries = [make_entry("small", size=10), make_entry("big", size=1000)]
        table = register(policy, entries)
        assert policy.select_victim(table) == entries[1].key

    def test_an_entry_a_revalidation_grows_is_re_ranked(self):
        # ``replace_content`` resizes the entry, then the hit touches it.
        policy = SizePolicy()
        a, b = make_entry("a", size=100), make_entry("b", size=200)
        table = register(policy, [a, b])
        a.size = 1000
        policy.on_access(a)
        assert policy.select_victim(table) == a.key

    def test_an_entry_a_revalidation_shrinks_is_re_ranked(self):
        policy = SizePolicy()
        a, b = make_entry("a", size=1000), make_entry("b", size=200)
        table = register(policy, [a, b])
        a.size = 100
        policy.on_access(a)
        assert policy.select_victim(table) == b.key

    def test_a_plain_hit_keeps_its_rank_and_stamp(self):
        policy = SizePolicy()
        a, b = make_entry("a"), make_entry("b")
        table = register(policy, [a, b])
        held, heap = policy._stamps[a.key], list(policy._heap)
        policy.on_access(a)
        assert policy._stamps[a.key] is held and policy._heap == heap
        assert policy.select_victim(table) == a.key  # insert order

    def test_a_pinned_entry_passed_over_returns_on_its_next_access(self):
        policy = SizePolicy()
        big, small = make_entry("big", size=1000), make_entry("small")
        table = register(policy, [big, small])
        big.pinned = True
        assert policy.select_victim(table) == small.key
        del table[small.key]
        big.pinned = False
        policy.on_access(big)
        assert policy.select_victim(table) == big.key


class TestGreedyDualSize:
    def test_prefers_evicting_cheap_per_byte(self):
        policy = GreedyDualSizePolicy()
        cheap = make_entry("cheap", size=100, cost=1.0)
        precious = make_entry("precious", size=100, cost=100.0)
        table = register(policy, [cheap, precious])
        assert policy.select_victim(table) == cheap.key

    def test_size_normalizes_cost(self):
        policy = GreedyDualSizePolicy()
        # same cost, bigger object -> lower H -> evicted first
        big = make_entry("big", size=10_000, cost=10.0)
        small = make_entry("small", size=10, cost=10.0)
        table = register(policy, [big, small])
        assert policy.select_victim(table) == big.key

    def test_inflation_rises_monotonically(self):
        policy = GreedyDualSizePolicy()
        entries = [make_entry(f"e{i}", cost=float(i + 1)) for i in range(4)]
        table = register(policy, entries)
        previous = policy.inflation
        for _ in range(3):
            victim = policy.select_victim(table)
            del table[victim]
            assert policy.inflation >= previous
            previous = policy.inflation

    def test_recently_accessed_survives_via_inflation(self):
        # The aging mechanism: after enough evictions, an old expensive
        # entry can still be evicted in favour of newly-accessed cheap
        # ones because new pushes start at the inflated baseline.
        policy = GreedyDualSizePolicy()
        old = make_entry("old", size=100, cost=50.0)
        table = {old.key: old}
        policy.on_insert(old)
        policy.inflation = 10.0  # simulate a long-running cache
        fresh = make_entry("fresh", size=100, cost=1.0)
        table[fresh.key] = fresh
        policy.on_insert(fresh)
        # fresh H = 10 + 0.01 > old H = 0 + 0.5 -> old goes first.
        assert policy.select_victim(table) == old.key

    def test_frequency_aware_variant(self):
        policy = GreedyDualSizePolicy(frequency_aware=True)
        popular = make_entry("popular", size=100, cost=1.0)
        unpopular = make_entry("unpopular", size=100, cost=1.0)
        table = register(policy, [popular, unpopular])
        popular.access_count = 10
        policy.on_access(popular)
        assert policy.select_victim(table) == unpopular.key

    def test_cost_blind_ignores_cost(self):
        policy = GreedyDualSizePolicy(cost_source="uniform")
        cheap = make_entry("cheap", size=100, cost=1.0)
        precious = make_entry("precious", size=100, cost=1000.0)
        table = register(policy, [cheap, precious])
        # Equal sizes, uniform cost: first insert pops first (FIFO tie).
        assert policy.select_victim(table) == cheap.key
        policy2 = GreedyDualSizePolicy(cost_source="uniform")
        table2 = register(policy2, [precious, cheap])
        assert policy2.select_victim(table2) == precious.key

    def test_invalid_cost_source_raises(self):
        with pytest.raises(CacheError):
            GreedyDualSizePolicy(cost_source="bogus")

    def test_stale_heap_items_skipped(self):
        policy = GreedyDualSizePolicy()
        entry = make_entry("e", cost=1.0)
        table = {entry.key: entry}
        policy.on_insert(entry)
        for _ in range(5):
            policy.on_access(entry)  # five touches, one heap item
        assert policy.select_victim(table) == entry.key


class TestGreedyDual:
    def test_size_blind_cost_aware(self):
        policy = GreedyDualPolicy()
        small_cheap = make_entry("a", size=10, cost=1.0)
        big_precious = make_entry("b", size=10_000, cost=100.0)
        table = register(policy, [small_cheap, big_precious])
        assert policy.select_victim(table) == small_cheap.key


class TestRandom:
    def test_deterministic_for_seed(self):
        entries = [make_entry(f"e{i}") for i in range(10)]
        table = {e.key: e for e in entries}
        first = RandomPolicy(seed=5).select_victim(dict(table))
        second = RandomPolicy(seed=5).select_victim(dict(table))
        assert first == second

    def test_empty_raises(self):
        with pytest.raises(CacheError):
            RandomPolicy().select_victim({})


class TestFactory:
    @pytest.mark.parametrize(
        "name",
        ["gds", "gdsf", "gds-costblind", "gd", "lru", "lfu", "fifo", "size",
         "random"],
    )
    def test_known_names(self, name):
        policy = make_policy(name)
        assert policy.name == name or policy.name.startswith(name.split("-")[0])

    def test_unknown_name_raises(self):
        with pytest.raises(CacheError):
            make_policy("clock-pro")


class TestHeapCompaction:
    """Lazy-deletion garbage must not grow without bound under churn."""

    def test_stale_items_bounded_under_churn(self):
        from repro.cache.replacement import (
            _COMPACT_MIN_HEAP,
            LRUPolicy,
        )

        policy = LRUPolicy()
        table = {}
        # Constant occupancy (64 live entries), heavy insert/remove and
        # re-access churn: every cycle strands stale heap items.  Before
        # compaction the heap grew by one item per touch, forever.
        live = [make_entry(f"seed-{i}") for i in range(64)]
        for entry in live:
            table[entry.key] = entry
            policy.on_insert(entry)
        for round_number in range(200):
            for entry in live:
                policy.on_access(entry)  # strands the previous heap item
            evicted = live.pop(0)
            policy.on_remove(evicted)
            del table[evicted.key]
            newcomer = make_entry(f"churn-{round_number}")
            table[newcomer.key] = newcomer
            policy.on_insert(newcomer)
            live.append(newcomer)
        # 200 rounds x 65 touches ≈ 13k strandings; the heap must stay
        # within the compaction envelope, not accumulate all of them.
        assert len(policy._heap) <= 2 * _COMPACT_MIN_HEAP
        assert surplus(policy) <= len(policy._heap)

    def test_reinstalled_key_does_not_alias_its_dead_incarnations(self):
        from repro.cache.replacement import _COMPACT_MIN_HEAP

        # Invalidate + re-install under the *same* keys: what a notifier
        # or verifier does to a hot document.  The dead incarnation's
        # heap items must neither count as the newcomer's (per-entry
        # stamps restarted at 1 and matched them) nor survive compaction.
        policy = LRUPolicy()
        table = register(policy, [make_entry(f"doc-{i}") for i in range(64)])
        recency = list(table)  # least recently pushed first
        hot = recency[:8]
        for cycle in range(4800):
            key = hot[cycle % 8]
            policy.on_remove(table.pop(key))  # invalidated, not evicted
            entry = table[key] = make_entry(key.document_id.value)
            policy.on_insert(entry)
            if cycle % 2:  # odd keys are re-read before the next round
                policy.on_access(entry)
            recency.remove(key)
            recency.append(key)
        assert len(policy._heap) <= 2 * _COMPACT_MIN_HEAP
        victims = []
        while table:
            victims.append(policy.select_victim(table))
            policy.on_remove(table.pop(victims[-1]))
        assert victims == recency

    def test_compaction_preserves_victim_order(self, monkeypatch):
        from repro.cache import replacement

        reference = LRUPolicy()
        compacted = LRUPolicy()
        tables = ({}, {})
        for policy, table in zip((reference, compacted), tables):
            entries = [make_entry(f"e-{i}") for i in range(48)]
            register(policy, entries)
            for entry in entries:
                table[entry.key] = entry
            # Superseded items (each touch outranks the insert) and
            # dead ones (a re-install under the same key).
            for entry in entries[::2]:
                policy.on_access(entry)
            for entry in entries[::3]:
                policy.on_remove(entry)
                again = make_entry(entry.key.document_id.value)
                table[entry.key] = again
                policy.on_insert(again)
        # Force the policy's own rebuild on one twin only.
        monkeypatch.setattr(replacement, "_COMPACT_MIN_HEAP", 0)
        monkeypatch.setattr(replacement, "_COMPACT_STALE_FRACTION", -1)
        assert surplus(compacted) == 16
        compacted._maybe_compact()
        monkeypatch.undo()
        assert surplus(compacted) == 0
        assert surplus(reference) == 16
        table_a, table_b = tables
        order_a = [reference.select_victim(table_a) for _ in range(48)]
        order_b = [compacted.select_victim(table_b) for _ in range(48)]
        assert order_a == order_b

    @pytest.mark.parametrize(
        "name", ["gds", "gdsf", "gds-costblind", "gd", "lru", "lfu", "fifo",
                 "size"],
    )
    def test_hits_on_a_resident_set_push_nothing(self, name):
        # A hit whose rank does not fall leaves the heap as it is: no
        # item per touch, so read-only traffic never compacts.  With a
        # push per touch, 5 000 hits grew the heap past the compaction
        # threshold and rebuilt it.
        policy = make_policy(name)
        entries = [make_entry(f"r-{i}", size=50 + i, cost=1.0 + i % 7)
                   for i in range(256)]
        table = register(policy, entries)
        heap = policy._heap
        size = len(heap)
        for hit in range(5_000):
            entry = entries[(hit * 7919) % 256]
            entry.access_count += 1
            policy.on_access(entry)
        assert policy._heap is heap and len(heap) == size
        victims = [policy.select_victim(table) for _ in range(256)]
        assert sorted(victims, key=str) == sorted(table, key=str)


class TestProtect:
    """``select_victim(protect=k)`` (a revalidation mid-refresh) must
    leave *k* evictable later, whatever the policy does on access."""

    @pytest.mark.parametrize("name", ["fifo", "size", "gds", "lru", "rc"])
    def test_a_protected_entry_stays_evictable(self, name):
        policy = make_policy(name)
        a, b, c = (make_entry(n, size=s) for n, s in
                   (("a", 300), ("b", 200), ("c", 100)))
        table = register(policy, [a, b, c])
        victim = policy.select_victim(table, protect=a.key)
        assert victim != a.key
        policy.on_remove(table.pop(victim))
        policy.on_access(a)
        while table:  # raised "no evictable entries" with FIFO and SIZE
            policy.on_remove(table.pop(policy.select_victim(table)))

    def test_a_protected_entry_is_never_chosen(self):
        policy = FIFOPolicy()
        (a,) = entries = [make_entry("a")]
        table = register(policy, entries)
        with pytest.raises(CacheError):
            policy.select_victim(table, protect=a.key)
        assert policy.select_victim(table) == a.key

    @pytest.mark.parametrize("protected", [False, True])
    def test_a_pinned_entry_leaves_the_heap_until_touched(self, protected):
        policy = LRUPolicy()
        pinned, other = make_entry("pinned"), make_entry("other")
        table = register(policy, [pinned, other])
        pinned.pinned = True
        protect = pinned.key if protected else None
        assert policy.select_victim(table, protect=protect) == other.key
        del table[other.key]
        pinned.pinned = False
        with pytest.raises(CacheError):
            policy.select_victim(table)
        policy.on_access(pinned)
        assert policy.select_victim(table) == pinned.key


class TestReinforcedCounter:
    def test_evicts_least_reinforced(self):
        from repro.cache.replacement import ReinforcedCounterPolicy

        policy = ReinforcedCounterPolicy()
        entries = [make_entry(name) for name in ("cold", "warm", "hot")]
        table = register(policy, entries)
        for _ in range(3):
            policy.on_access(table[entries[1].key])
        for _ in range(6):
            policy.on_access(table[entries[2].key])
        assert policy.select_victim(table) == entries[0].key

    def test_counter_caps(self, monkeypatch):
        from repro.cache.replacement import ReinforcedCounterPolicy

        monkeypatch.setattr(ReinforcedCounterPolicy, "COUNTER_CAP", 4)
        policy = ReinforcedCounterPolicy()
        entry = make_entry("capped")
        table = register(policy, [entry])
        for _ in range(50):
            policy.on_access(entry)
        assert policy._counter_of(entry) <= 4

    def test_epoch_decay_halves_counters(self, monkeypatch):
        from repro.cache.replacement import ReinforcedCounterPolicy

        monkeypatch.setattr(ReinforcedCounterPolicy, "DECAY_INTERVAL", 4)
        policy = ReinforcedCounterPolicy()
        entry = make_entry("decaying")
        register(policy, [entry])
        for _ in range(3):
            policy.on_access(entry)  # 4 accesses total -> epoch bump
        counter_now = policy._counter_of(entry)
        filler = make_entry("filler")
        policy.on_insert(filler)  # advance the shared access count
        for _ in range(7):
            policy.on_insert(make_entry(f"f{_}"))
        assert policy._epoch >= 1
        # Lazy halving: the stored counter is shifted by elapsed epochs.
        assert policy._counter_of(entry) <= counter_now

    def test_a_reinstalled_key_starts_unreinforced(self):
        # The counter belongs to the entry, not the key: removing an
        # entry forgets it, so a new entry under the same key starts
        # from one access.
        from repro.cache.replacement import ReinforcedCounterPolicy

        policy = ReinforcedCounterPolicy()
        entry = make_entry("doc")
        register(policy, [entry])
        for _ in range(5):
            policy.on_access(entry)
        assert policy.priority(entry) == 6.0
        policy.on_remove(entry)
        again = make_entry("doc")
        policy.on_insert(again)
        assert policy.priority(again) == 1.0

    def test_factory_knows_rc(self):
        policy = make_policy("rc")
        assert policy.name == "rc"
