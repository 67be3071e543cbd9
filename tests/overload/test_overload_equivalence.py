"""An untriggered overload gate must be invisible.

The overload layer's opt-in contract has two halves.  ``None`` (no
policy) builds no gate at all — the golden snapshots that
``tests/property/test_pipeline_equivalence.py`` compares cover that
half.  This file covers the sharper half: a *constructed* gate whose limits are too
permissive to ever fire must also change nothing — same stats, same
virtual clock, same fault-injection trace, byte for byte.  Deadline
checks, admission queries and priority classification all run on every
read; none of them may draw randomness, charge the clock, or reorder
work.
"""

from __future__ import annotations

import pytest

from repro.cache.policies import DefaultOverloadPolicy
from repro.overload import admission, gate
from tests.property.test_pipeline_equivalence import (
    moved,
    run_seeded_workload,
)


@pytest.fixture
def permissive_policy(monkeypatch):
    """Every mechanism armed, no limit reachable by a seeded workload:
    the limits that are constants are raised for the test's duration."""
    monkeypatch.setattr(gate, "DEFAULT_DEADLINE_MS", 1e9)
    monkeypatch.setattr(admission, "ADMISSION_BURST", 1e6)
    monkeypatch.setattr(admission, "QUEUE_LIMIT", 1e6)
    monkeypatch.setattr(admission, "SOJOURN_THRESHOLD_MS", 1e9)
    return DefaultOverloadPolicy(admission_rate_per_s=1e9, hedging=False)


class TestUntriggeredGateIsPure:
    @pytest.mark.parametrize("seed", [77, 101, 202])
    def test_chaos_runs_are_byte_identical_with_a_permissive_gate(
        self, seed, permissive_policy
    ):
        bare = run_seeded_workload(seed, chaos=True)
        gated = run_seeded_workload(
            seed, chaos=True, overload_policy=permissive_policy
        )
        assert gated == bare

    @pytest.mark.parametrize("seed", [77, 202])
    def test_healthy_runs_are_byte_identical_with_a_permissive_gate(
        self, seed, permissive_policy
    ):
        bare = run_seeded_workload(seed)
        gated = run_seeded_workload(seed, overload_policy=permissive_policy)
        assert gated == bare

    def test_the_pinned_chaos_golden_survives_a_permissive_gate(
        self, permissive_policy
    ):
        snap = run_seeded_workload(
            7, chaos=True, overload_policy=permissive_policy
        )
        assert moved("chaos", snap) == []
