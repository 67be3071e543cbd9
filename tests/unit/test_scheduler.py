"""The driver contract, directly: ``drive`` and ``run_batch``.

Every concurrency golden digest depends on the interleaving rule; these
tests state it over hand-written generators so a change to the rule
fails here, by name, before it shows up as a moved digest.
"""

from __future__ import annotations

import pytest

from repro.errors import SchedulerError
from repro.sim.scheduler import (
    FETCH_SEAM,
    VERIFIER_SEAM,
    FlightTable,
    Suspension,
    drive,
    run_batch,
)


def _read(log, name, seams=0):
    """A read that logs each turn it gets and yields *seams* markers."""
    for turn in range(seams):
        log.append(f"{name}{turn}")
        yield FETCH_SEAM
    log.append(f"{name}{seams}")
    return name


def _leader(log, table, key, seams=1, error=None):
    """Opens a flight, holds it across *seams* turns, then lands or fails."""
    flight = table.open([key])
    log.append("lead:open")
    try:
        for _ in range(seams):
            yield FETCH_SEAM
            log.append("lead:turn")
        if error is not None:
            raise error
    except BaseException as failure:
        table.close(flight, ("failed", failure))
        raise
    table.close(flight, ("landed", "miss"))
    yield FETCH_SEAM
    log.append("lead:after-close")
    return "led"


def _follower(log, table, key, name):
    """Parks on *key*'s flight if one is open; reports what woke it."""
    flight = table.lookup(key)
    if flight is None:
        log.append(f"{name}:no-flight")
        return name, None
    payload = yield Suspension("flight", flight)
    log.append(f"{name}:woke")
    return name, payload[0], table.lookup(key)


class TestDrive:
    def test_resolves_every_seam_inline(self):
        log = []
        assert drive(_read(log, "a", seams=3)) == "a"
        assert log == ["a0", "a1", "a2", "a3"]

    def test_both_seam_markers_are_plain_yields(self):
        def read():
            assert (yield VERIFIER_SEAM) is None
            assert (yield FETCH_SEAM) is None
            return "done"

        assert drive(read()) == "done"

    def test_exception_propagates(self):
        def read():
            yield FETCH_SEAM
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            drive(read())

    def test_refuses_a_flight_wait(self):
        table = FlightTable()
        table.open(["k"])
        with pytest.raises(SchedulerError, match="k"):
            drive(_follower([], table, "k", "f"))


class TestRunBatch:
    def test_empty_batch(self):
        assert run_batch([]) == []

    def test_starts_in_submission_order(self):
        log = []
        results = run_batch(_read(log, name) for name in "abc")
        assert results == ["a", "b", "c"]
        assert log == ["a0", "b0", "c0"]

    def test_a_seam_yield_sends_the_read_to_the_tail(self):
        log = []
        results = run_batch([
            _read(log, "a", seams=2), _read(log, "b"), _read(log, "c", seams=1),
        ])
        assert results == ["a", "b", "c"]
        # a yields → behind b and c; c yields → behind a's second turn.
        assert log == ["a0", "b0", "c0", "a1", "c1", "a2"]

    def test_followers_resume_in_wait_order_before_the_leaders_next_turn(self):
        log, table = [], FlightTable()
        results = run_batch([
            _leader(log, table, "k"),
            _follower(log, table, "k", "f1"),
            _follower(log, table, "k", "f2"),
        ])
        assert log == [
            "lead:open", "lead:turn", "f1:woke", "f2:woke", "lead:after-close",
        ]
        # Woken with the landing payload, and the key already deregistered.
        assert results == ["led", ("f1", "landed", None), ("f2", "landed", None)]
        assert len(table) == 0

    def test_waiters_counts_parked_followers(self):
        table = FlightTable()
        seen = []

        def observer():
            yield FETCH_SEAM  # after both followers parked
            seen.append(table.lookup("k").waiters)
            return "observed"

        run_batch([
            _leader([], table, "k", seams=2),
            _follower([], table, "k", "f1"),
            _follower([], table, "k", "f2"),
            observer(),
        ])
        assert seen == [2]

    def test_failed_leader_promotes_the_first_woken_follower(self):
        log, table = [], FlightTable()
        error = RuntimeError("leader died")

        def promotable(name):
            """Follow; on a failed wake, lead if nobody else has yet."""
            outcome = yield from _follower(log, table, "k", name)
            if outcome[1] == "failed" and outcome[2] is None:
                table.open(["k"])
                return name, "promoted"
            return name, "re-followed" if outcome[2] is not None else outcome[1]

        results = run_batch([
            _leader(log, table, "k", error=error),
            promotable("f1"),
            promotable("f2"),
        ])
        assert results[0] is error
        assert results[1:] == [("f1", "promoted"), ("f2", "re-followed")]

    def test_exceptions_land_in_place_without_stopping_the_batch(self):
        log = []
        boom = ValueError("boom")

        def failing():
            yield FETCH_SEAM
            raise boom

        results = run_batch([
            _read(log, "a", seams=1), failing(), _read(log, "c", seams=2),
        ])
        assert results == ["a", boom, "c"]
        assert log == ["a0", "c0", "a1", "c1", "c2"]

    def test_parking_on_a_resolved_flight_resumes_with_its_payload(self):
        table = FlightTable()
        flight = table.open(["k"])
        table.close(flight, ("landed", "miss"))

        def late():
            return (yield Suspension("flight", flight))

        assert run_batch([late()]) == [("landed", "miss")]

    def test_a_stalled_batch_raises_naming_the_flight(self):
        table = FlightTable()
        table.open(["orphan-key"])  # its leader is not in the batch
        with pytest.raises(SchedulerError, match="orphan-key"):
            run_batch([
                _read([], "a", seams=1),
                _follower([], table, "orphan-key", "f"),
            ])

    def test_batches_nest(self):
        """An inner batch run from inside an outer read's turn has its
        own ready queue (the old event loop refused this)."""
        log = []

        def outer():
            yield FETCH_SEAM
            return run_batch([_read(log, "x", seams=1), _read(log, "y")])

        assert run_batch([outer(), _read(log, "b")]) == [["x", "y"], "b"]
        assert log == ["b0", "x0", "y0", "x1"]
