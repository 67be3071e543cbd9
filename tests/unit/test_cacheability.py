"""Tests for the cacheability indicator and its aggregation rule."""

from __future__ import annotations

from repro.contract.cacheability import Cacheability


class TestOrdering:
    def test_restrictiveness_order(self):
        assert Cacheability.UNCACHEABLE < Cacheability.CACHEABLE_WITH_EVENTS
        assert Cacheability.CACHEABLE_WITH_EVENTS < Cacheability.UNRESTRICTED

    def test_comparison_with_non_cacheability(self):
        result = Cacheability.UNCACHEABLE.__lt__(42)
        assert result is NotImplemented


class TestCombine:
    def test_combine_picks_more_restrictive(self):
        assert (
            Cacheability.UNRESTRICTED.combine(Cacheability.UNCACHEABLE)
            is Cacheability.UNCACHEABLE
        )
        assert (
            Cacheability.CACHEABLE_WITH_EVENTS.combine(Cacheability.UNRESTRICTED)
            is Cacheability.CACHEABLE_WITH_EVENTS
        )

    def test_combine_is_commutative(self):
        for a in Cacheability:
            for b in Cacheability:
                assert a.combine(b) is b.combine(a)

    def test_combine_identity(self):
        for level in Cacheability:
            assert level.combine(Cacheability.UNRESTRICTED) is level


class TestAggregate:
    def test_empty_votes_are_unrestricted(self):
        assert Cacheability.aggregate([]) is Cacheability.UNRESTRICTED

    def test_single_vote(self):
        assert (
            Cacheability.aggregate([Cacheability.UNCACHEABLE])
            is Cacheability.UNCACHEABLE
        )

    def test_most_restrictive_wins(self):
        votes = [
            Cacheability.UNRESTRICTED,
            Cacheability.CACHEABLE_WITH_EVENTS,
            Cacheability.UNRESTRICTED,
        ]
        assert Cacheability.aggregate(votes) is Cacheability.CACHEABLE_WITH_EVENTS

    def test_uncacheable_dominates(self):
        votes = [
            Cacheability.UNRESTRICTED,
            Cacheability.UNCACHEABLE,
            Cacheability.CACHEABLE_WITH_EVENTS,
        ]
        assert Cacheability.aggregate(votes) is Cacheability.UNCACHEABLE

    def test_aggregate_accepts_generators(self):
        votes = (Cacheability.UNRESTRICTED for _ in range(3))
        assert Cacheability.aggregate(votes) is Cacheability.UNRESTRICTED


class TestFlags:
    def test_allows_caching(self):
        assert not Cacheability.UNCACHEABLE.allows_caching
        assert Cacheability.CACHEABLE_WITH_EVENTS.allows_caching
        assert Cacheability.UNRESTRICTED.allows_caching

    def test_requires_event_forwarding(self):
        assert Cacheability.CACHEABLE_WITH_EVENTS.requires_event_forwarding
        assert not Cacheability.UNRESTRICTED.requires_event_forwarding
        assert not Cacheability.UNCACHEABLE.requires_event_forwarding
