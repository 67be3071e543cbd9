"""Subscriber independence of the one hit path.

There is a single hit path (the verifier-gate prefix), and what an
operator attaches to the instrumentation bus must never change what it
computes.  The per-hit events (``verifier/executed``, terminal
``read``) are counted into the cache's own ``CacheStats`` directly and
materialised as ``StageEvent`` objects only for whoever listens, so
these tests hold two subscriber sets to the same bar the pipeline
refactor was held to:

(a) nothing extra, (b) one late :class:`StageRecorder` — identical
golden snapshots, stats, virtual clock and fault trace, seeded and under
chaos; and a late subscriber must see exactly the events the counters
counted, no more and no fewer.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.instrumentation import StageRecorder

from tests.property.test_pipeline_equivalence import (
    _CONFIGS,
    moved,
    run_seeded_workload,
)

#: Extra subscriber sets: nothing, or one late recorder.
_SUBSCRIBER_SETS = ("none", "catch-all")


def _run(subscribers: str, **config):
    """One seeded run; ``(snapshot, rows the late subscriber recorded)``."""
    recorder = StageRecorder()

    def wire(cache) -> None:
        if subscribers == "catch-all":
            cache.instrumentation.subscribe(recorder)

    snapshot = run_seeded_workload(wire=wire, **config)
    return snapshot, recorder.rows()


def _assert_counts_match_stats(rows, stats) -> None:
    """The ``read`` and ``verifier`` events a subscriber saw are the
    ones the counters written beside them counted."""
    counted = {(stage, outcome): count for stage, outcome, count, *_ in rows}
    assert counted[("read", "hit")] > 0  # the hot events occurred
    assert counted[("verifier", "executed")] > 0
    reads = {
        outcome: count for (stage, outcome), count in counted.items()
        if stage == "read"
    }
    hits = reads.pop("hit") + reads.pop("revalidated", 0)
    assert hits == stats["hits"]
    assert sum(reads.values()) == stats["misses"]
    assert counted[("verifier", "executed")] == stats["verifier_executions"]
    assert counted.get(("verifier", "invalidated"), 0) == (
        stats["verifier_invalidations"]
    )
    assert counted.get(("verifier", "revalidated"), 0) == (
        stats["verifier_revalidations"]
    )


class TestGoldens:
    """No subscriber set moves a golden snapshot."""

    @pytest.mark.parametrize("subscribers", _SUBSCRIBER_SETS)
    def test_all_configs_match_goldens(self, subscribers):
        for name, config in _CONFIGS.items():
            snapshot, _ = _run(subscribers, **config)
            assert moved(name, snapshot) == [], name


class TestSubscriberIndependence:
    """Arbitrary seeds: every subscriber set → identical observables."""

    @staticmethod
    def _check(**config) -> None:
        plain, _ = _run("none", **config)
        catch_all, _ = _run("catch-all", **config)
        assert catch_all == plain

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_snapshots_identical(self, seed):
        self._check(seed=seed)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_chaos_snapshots_identical(self, seed):
        self._check(seed=seed, chaos=True)


class TestLateSubscriber:
    """Direct counting drops no event a listener is owed."""

    @pytest.mark.parametrize(
        "chaos", [False, True], ids=["healthy", "chaos"]
    )
    def test_catch_all_counts(self, chaos):
        snapshot, rows = _run("catch-all", seed=7, chaos=chaos)
        _assert_counts_match_stats(rows, snapshot["stats"])
