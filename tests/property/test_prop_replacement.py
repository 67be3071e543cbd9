"""Property-based tests for replacement policies.

Invariants that must hold for *any* policy under *any* workload: victims
come from the live table, the GDS inflation value never decreases, and a
cache driven by any policy never exceeds capacity.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cache.entry import CacheEntry, EntryKey
from repro.cache.manager import DocumentCache
from repro.cache.replacement import GreedyDualSizePolicy, make_policy
from repro.content.signature import sign
from repro.contract.cacheability import Cacheability
from repro.ids import DocumentId, UserId
from repro.placeless.kernel import PlacelessKernel
from repro.providers.memory import MemoryProvider

policy_names = st.sampled_from(
    ["gds", "gdsf", "gds-costblind", "gd", "lru", "lfu", "fifo", "size",
     "random", "rc"]
)


def make_entry(name: str, size: int, cost: float) -> CacheEntry:
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


entry_specs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=10_000),   # size
        st.floats(min_value=0.001, max_value=1000.0),  # cost
    ),
    min_size=1,
    max_size=25,
)


class TestPolicyInvariants:
    @given(policy_names, entry_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_victims_always_live_until_exhausted(self, name, specs, data):
        policy = make_policy(name)
        table = {}
        for index, (size, cost) in enumerate(specs):
            entry = make_entry(f"e{index}", size, cost)
            table[entry.key] = entry
            policy.on_insert(entry)
        # Random interleaved accesses.
        for _ in range(data.draw(st.integers(min_value=0, max_value=10))):
            key = data.draw(st.sampled_from(sorted(table, key=str)))
            table[key].access_count += 1
            policy.on_access(table[key])
        evicted = set()
        while table:
            victim = policy.select_victim(table)
            assert victim in table
            assert victim not in evicted
            evicted.add(victim)
            policy.on_remove(table.pop(victim))

    @given(entry_specs)
    @settings(max_examples=60, deadline=None)
    def test_gds_inflation_never_decreases(self, specs):
        policy = GreedyDualSizePolicy()
        table = {}
        for index, (size, cost) in enumerate(specs):
            entry = make_entry(f"e{index}", size, cost)
            table[entry.key] = entry
            policy.on_insert(entry)
        previous = policy.inflation
        while table:
            victim = policy.select_victim(table)
            del table[victim]
            assert policy.inflation >= previous
            previous = policy.inflation


class TestCacheCapacityUnderAnyPolicy:
    @given(
        policy_names,
        st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=40),
    )
    @settings(max_examples=25, deadline=None)
    def test_capacity_never_exceeded(self, name, accesses):
        kernel = PlacelessKernel()
        user = kernel.create_user("u")
        refs = [
            kernel.import_document(
                user,
                MemoryProvider(kernel.ctx, bytes([65 + i]) * (40 + i * 17)),
                f"d{i}",
            )
            for i in range(8)
        ]
        cache = DocumentCache(
            kernel, capacity_bytes=150, policy=make_policy(name)
        )
        for index in accesses:
            outcome = cache.read(refs[index])
            assert cache.used_bytes <= 150
            expected = bytes([65 + index]) * (40 + index * 17)
            assert outcome.content == expected
