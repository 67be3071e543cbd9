"""Placement properties: ring balance, minimal movement.

The consistent-hash ring's contract is structural — deterministic
placement, membership, and *minimal key movement* under shard
join/leave (only keys entering or leaving the changed shard may move).
Those are checked as hypothesis properties over seed-derived key
populations.  Balance is checked at pinned shapes (md5 is
deterministic, so the bound either holds forever or never).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.entry import EntryKey
from repro.cluster.placement import HashRingPolicy, placement_label
from repro.errors import WorkloadError


def _keys(n: int, seed: int = 0) -> list[EntryKey]:
    """*n* distinct seed-derived (document, user) keys."""
    state = seed or 1
    keys = []
    for index in range(n):
        state = (state * 1103515245 + 12345) % (1 << 31)
        keys.append(
            EntryKey(f"doc-{seed}-{index}", f"user-{state % 97}")
        )
    return keys


class TestPlacementRing:
    def test_empty_ring_refuses_placement(self):
        with pytest.raises(WorkloadError):
            HashRingPolicy().place(EntryKey("d", "u"))

    def test_duplicate_and_unknown_shards_rejected(self):
        ring = HashRingPolicy(["a"])
        with pytest.raises(WorkloadError):
            ring.add_shard("a")
        with pytest.raises(WorkloadError):
            ring.remove_shard("b")
        with pytest.raises(TypeError):
            HashRingPolicy(replicas=0)

    def test_membership_and_len(self):
        ring = HashRingPolicy(["a", "b"])
        assert ring.shards() == ["a", "b"]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_placement_is_deterministic_and_member(self, seed):
        ring = HashRingPolicy(["a", "b", "c"])
        for key in _keys(50, seed):
            shard = ring.place(key)
            assert shard == ring.place(key)
            assert shard in ring.shards()

    def test_balance_within_bounds(self):
        # 64 virtual nodes per shard keeps the max/ideal load factor
        # small; assert a loose 2x bound plus no starved shard.
        ring = HashRingPolicy(["a", "b", "c", "d"])
        counts = dict.fromkeys(ring.shards(), 0)
        keys = _keys(2000)
        for key in keys:
            counts[ring.place(key)] += 1
        ideal = len(keys) / len(counts)
        assert min(counts.values()) > 0
        assert max(counts.values()) <= 2.0 * ideal

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_join_moves_keys_only_onto_the_new_shard(self, seed):
        ring = HashRingPolicy(["a", "b", "c"])
        keys = _keys(120, seed)
        before = {placement_label(k): ring.place(k) for k in keys}
        ring.add_shard("d")
        for key in keys:
            after = ring.place(key)
            if after != before[placement_label(key)]:
                assert after == "d"

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_leave_moves_only_the_dead_shards_keys(self, seed):
        ring = HashRingPolicy(["a", "b", "c", "d"])
        keys = _keys(120, seed)
        before = {placement_label(k): ring.place(k) for k in keys}
        ring.remove_shard("d")
        for key in keys:
            previous = before[placement_label(key)]
            after = ring.place(key)
            if previous != "d":
                assert after == previous
            else:
                assert after != "d"


class TestHashRingPolicy:
    def test_satisfies_protocol_and_delegates(self):
        """The four calls ``CacheCluster`` makes — ``place``,
        ``replica_for``, ``add_shard``, ``remove_shard`` — all answer
        from the one ring."""
        policy = HashRingPolicy(["a", "b"])
        key = EntryKey("doc", "user")
        placed = policy.place(key)
        assert placed in ("a", "b")
        other = "b" if placed == "a" else "a"
        assert policy.replica_for(key, placed) == other
        policy.add_shard("c")
        assert policy.shards() == ["a", "b", "c"]
        policy.remove_shard("c")
        assert policy.shards() == ["a", "b"]
        assert policy.place(key) == placed
