"""Hedged reads against a gray-failing shard.

Reuses the A19 bench's gray-shard harness at a reduced round count: a
two-shard cluster with one shard slowed 150 virtual ms per fetch (no
errors — the failure mode breakers cannot see), rotating invalidations
keeping a trickle of misses live on both shards, and paced reads.  The
contract under test: hedging launches and wins against the slow shard,
never serves wrong bytes, and never lets work start past an expired
deadline.
"""

from __future__ import annotations

import pytest

from repro.bench.overload import run_grayshard
from repro.errors import PermissionDeniedError
from repro.overload.hedge import hedged_iterate
from repro.sim.clock import VirtualClock
from repro.sim.scheduler import FETCH_SEAM, drive

_ROUNDS = 12


@pytest.fixture(scope="module")
def hedged():
    return run_grayshard(True, n_rounds=_ROUNDS)


@pytest.fixture(scope="module")
def unhedged():
    return run_grayshard(False, n_rounds=_ROUNDS)


class TestGrayShardHedging:
    def test_hedges_launch_and_win_against_the_gray_shard(self, hedged):
        assert hedged.hedges_launched > 0
        assert hedged.hedges_won > 0
        # Wins + losses never exceed launches (some hedges are still
        # in flight when the run ends).
        assert (
            hedged.hedges_won + hedged.hedges_lost
            <= hedged.hedges_launched
        )

    def test_hedging_cuts_the_in_window_tail(self, hedged, unhedged):
        assert unhedged.hedges_launched == 0
        assert hedged.window_p99_ms < unhedged.window_p99_ms
        # The ISSUE gate is >= 3x at full length; at reduced rounds we
        # still demand a clear multiple, not a rounding artefact.
        assert unhedged.window_p99_ms >= 2.0 * hedged.window_p99_ms

    def test_gray_slowdowns_actually_fired(self, hedged, unhedged):
        assert hedged.gray_slow_fetches > 0
        assert unhedged.gray_slow_fetches > 0

    def test_hedging_never_serves_wrong_bytes(self, hedged, unhedged):
        assert hedged.wrong_bytes_served == 0
        assert unhedged.wrong_bytes_served == 0

    def test_no_work_starts_past_an_expired_deadline(
        self, hedged, unhedged
    ):
        assert hedged.deadline_violations == 0
        assert unhedged.deadline_violations == 0

    def test_runs_are_deterministic(self, hedged):
        again = run_grayshard(True, n_rounds=_ROUNDS)
        assert again == hedged



def test_a_refused_backup_closes_the_primary_it_raced():
    # The replica's refusal is the read's answer, and the parked primary
    # goes with it — with the flight it leads, or the next read of the
    # key finds that flight and waits on it.
    def primary():
        yield FETCH_SEAM

    def refused():
        raise PermissionDeniedError("not this reader")

    racing = primary()
    hedge = hedged_iterate(racing, refused, clock=VirtualClock(), delay_ms=1.0)
    with pytest.raises(PermissionDeniedError):
        drive(hedge)
    assert racing.gi_frame is None  # closed, not left suspended
