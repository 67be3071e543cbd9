"""Property-based tests for cacheability algebra, the clock and Zipf."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.contract.cacheability import Cacheability
from repro.sim.clock import VirtualClock
from repro.workload.trace import zipf_indices

levels = st.sampled_from(list(Cacheability))


class TestCacheabilityAlgebra:
    @given(st.lists(levels, max_size=10))
    def test_aggregate_is_minimum(self, votes):
        result = Cacheability.aggregate(votes)
        if votes:
            assert result is min(votes)
        else:
            assert result is Cacheability.UNRESTRICTED

    @given(levels, levels)
    def test_combine_commutative(self, a, b):
        assert a.combine(b) is b.combine(a)

    @given(levels, levels, levels)
    def test_combine_associative(self, a, b, c):
        assert a.combine(b).combine(c) is a.combine(b.combine(c))

    @given(st.lists(levels, min_size=1, max_size=10))
    def test_aggregate_order_independent(self, votes):
        assert Cacheability.aggregate(votes) is Cacheability.aggregate(
            list(reversed(votes))
        )


class TestClockProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=30))
    def test_time_is_monotone_under_advances(self, deltas):
        clock = VirtualClock()
        previous = clock.now_ms
        for delta in deltas:
            clock.advance(delta)
            assert clock.now_ms >= previous
            previous = clock.now_ms

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1000.0),
            min_size=1,
            max_size=20,
        )
    )
    def test_callbacks_fire_in_due_order(self, delays):
        clock = VirtualClock()
        fired: list[float] = []
        for delay in delays:
            clock.call_after(delay, lambda d=delay: fired.append(d))
        clock.advance(1001.0)
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=20))
    def test_charge_accumulates_exactly(self, costs):
        clock = VirtualClock()
        for cost in costs:
            clock.charge(cost)
        assert clock.total_charged_ms == sum(costs)


class TestZipfProperties:
    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=0, max_value=500),
        st.floats(min_value=0.0, max_value=2.5),
        st.integers(min_value=0, max_value=1000),
    )
    def test_indices_always_in_range(self, n_items, n_samples, alpha, seed):
        indices = zipf_indices(n_items, n_samples, alpha, seed)
        assert len(indices) == n_samples
        assert all(0 <= index < n_items for index in indices)

    @given(st.integers(min_value=0, max_value=1000))
    def test_head_at_least_as_popular_as_tail(self, seed):
        indices = zipf_indices(10, 20_000, alpha=1.2, seed=seed)
        head = sum(1 for i in indices if i == 0)
        tail = sum(1 for i in indices if i == 9)
        assert head >= tail
