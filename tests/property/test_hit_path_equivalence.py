"""Subscriber independence of the one hit path.

There is a single hit path (the verifier-gate prefix), and what an
operator attaches to the instrumentation bus must never change what it
computes.  The per-hit events (``verifier/executed``, terminal
``read``) are added into the cache's own ``CacheStats`` and
``StageRecorder`` directly and materialised as ``StageEvent`` objects
only for whoever *else* listens, so these tests hold three subscriber
sets to the same bar the pipeline refactor was held to:

(a) nothing extra, (b) one late catch-all subscriber, (c) one late
stage-filtered subscriber — byte-identical golden digests, stats,
virtual clock, fault trace and recorder rows, seeded and under chaos;
and the late subscriber must see exactly the events the recorder
counted, no more and no fewer.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.property.test_pipeline_equivalence import (
    _CONFIGS,
    GOLDEN_DIGESTS,
    digest,
    run_seeded_workload,
)

#: Extra subscriber sets: name -> the ``stages`` it declares (``...``
#: meaning "subscribe nothing").
_SUBSCRIBER_SETS = {
    "none": ...,
    "catch-all": None,
    "filtered": ("read", "verifier"),
}


def _run(subscribers: str, **config):
    """One seeded run; ``(snapshot, recorder rows, events seen)``."""
    seen: Counter = Counter()
    handle = {}

    def wire(cache) -> None:
        handle["cache"] = cache
        stages = _SUBSCRIBER_SETS[subscribers]
        if stages is not ...:
            cache.instrumentation.subscribe(
                lambda event: seen.update([(event.stage, event.outcome)]),
                stages=stages,
            )

    snapshot = run_seeded_workload(wire=wire, **config)
    return snapshot, handle["cache"].recorder.rows(), seen


class TestGoldens:
    """No subscriber set moves a golden digest."""

    @pytest.mark.parametrize("subscribers", list(_SUBSCRIBER_SETS))
    def test_all_configs_match_goldens(self, subscribers):
        for name, config in _CONFIGS.items():
            snapshot, _, _ = _run(subscribers, **config)
            assert digest(snapshot) == GOLDEN_DIGESTS[name], name


class TestSubscriberIndependence:
    """Arbitrary seeds: every subscriber set → identical observables."""

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_snapshots_identical(self, seed):
        plain = _run("none", seed=seed)
        for subscribers in ("catch-all", "filtered"):
            observed = _run(subscribers, seed=seed)
            assert observed[:2] == plain[:2], subscribers

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_chaos_snapshots_identical(self, seed):
        plain = _run("none", seed=seed, chaos=True)
        for subscribers in ("catch-all", "filtered"):
            observed = _run(subscribers, seed=seed, chaos=True)
            assert observed[:2] == plain[:2], subscribers


class TestLateSubscriber:
    """Direct accumulation drops no event a listener is owed."""

    @pytest.mark.parametrize(
        "chaos", [False, True], ids=["healthy", "chaos"]
    )
    def test_catch_all_counts(self, chaos):
        _, rows, seen = _run("catch-all", seed=7, chaos=chaos)
        counted = {(stage, outcome): count for stage, outcome, count, *_ in rows}
        assert counted[("read", "hit")] > 0  # the hot events occurred
        assert counted[("verifier", "executed")] > 0
        assert dict(seen) == counted

    def test_filtered_counts(self):
        _, rows, seen = _run("filtered", seed=7, chaos=True)
        counted = {
            (stage, outcome): count
            for stage, outcome, count, *_ in rows
            if stage in ("read", "verifier")
        }
        assert dict(seen) == counted
