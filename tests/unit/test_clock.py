"""Tests for the virtual clock and its schedule."""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro
from repro.errors import ClockError
from repro.sim.clock import VirtualClock

SRC = pathlib.Path(repro.__file__).resolve().parent

#: The clock's attributes that only its own methods may write: the time
#: must never move backwards, and nothing but a charge is charged.
CLOCK_OWNED = ("now_ms", "total_charged_ms")


def clock_attribute_writes(path: pathlib.Path) -> list[str]:
    """Every place *path* assigns, augments or deletes an attribute
    named in :data:`CLOCK_OWNED`, or names one to ``setattr``/``delattr``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Attribute) and node.attr in CLOCK_OWNED
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            found.append(f"{path.name}:{node.lineno} .{node.attr}")
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("setattr", "delattr")
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in CLOCK_OWNED):
            found.append(f"{path.name}:{node.lineno} {node.func.id}")
    return found


class TestAdvance:
    def test_starts_at_zero_by_default(self):
        assert VirtualClock().now_ms == 0.0

    def test_custom_start(self):
        assert VirtualClock(start_ms=100.0).now_ms == 100.0

    def test_advance_moves_time(self):
        clock = VirtualClock()
        clock.advance(5.0)
        assert clock.now_ms == 5.0

    def test_advance_zero_is_allowed(self):
        clock = VirtualClock()
        clock.advance(0.0)
        assert clock.now_ms == 0.0

    def test_advance_negative_raises(self):
        with pytest.raises(ClockError):
            VirtualClock().advance(-1.0)

    def test_advance_to_absolute(self):
        clock = VirtualClock()
        clock.advance_to(42.0)
        assert clock.now_ms == 42.0

    def test_advance_to_past_raises(self):
        clock = VirtualClock(start_ms=10.0)
        with pytest.raises(ClockError):
            clock.advance_to(5.0)


class TestCharge:
    def test_charge_moves_time_and_accumulates(self):
        clock = VirtualClock()
        clock.charge(3.0)
        clock.charge(2.0)
        assert clock.now_ms == 5.0
        assert clock.total_charged_ms == 5.0

    def test_advance_does_not_count_as_charged(self):
        clock = VirtualClock()
        clock.advance(100.0)
        assert clock.total_charged_ms == 0.0

    def test_charge_negative_raises(self):
        with pytest.raises(ClockError):
            VirtualClock().charge(-0.1)

    @pytest.mark.parametrize("method", ["charge", "advance"])
    def test_nan_is_refused_and_moves_nothing(self, method):
        # NaN compares false with everything: taken, it would skip the
        # due callback and poison ``total_charged_ms`` for the run.
        clock = VirtualClock(start_ms=5.0)
        clock.charge(1.0)
        fired = []
        clock.call_after(0.0, lambda: fired.append(clock.now_ms))
        with pytest.raises(ClockError):
            getattr(clock, method)(float("nan"))
        assert (clock.now_ms, clock.total_charged_ms, fired) == (6.0, 1.0, [])

    def test_charge_with_nothing_due_lands_on_the_sum(self):
        clock = VirtualClock(start_ms=0.1)
        clock.call_at(10.0, lambda: None)
        clock.charge(0.2)
        assert clock.now_ms == 0.1 + 0.2
        assert clock.pending() == 1

    def test_a_callback_that_charges_moves_past_the_window(self):
        # A delayed delivery charges from inside ``charge``'s window:
        # time ends at the later of the two, never back.
        clock = VirtualClock()
        clock.call_at(1.0, lambda: clock.charge(5.0))
        clock.charge(2.0)
        assert (clock.now_ms, clock.total_charged_ms) == (6.0, 7.0)


class TestSchedule:
    def test_callback_fires_when_time_arrives(self):
        clock = VirtualClock()
        fired = []
        clock.call_after(10.0, lambda: fired.append(clock.now_ms))
        clock.advance(9.9)
        assert fired == []
        clock.advance(0.1)
        assert fired == [10.0]

    def test_callbacks_fire_in_due_order(self):
        clock = VirtualClock()
        order = []
        clock.call_at(20.0, lambda: order.append("late"))
        clock.call_at(10.0, lambda: order.append("early"))
        clock.advance(30.0)
        assert order == ["early", "late"]

    def test_simultaneous_callbacks_fire_fifo(self):
        clock = VirtualClock()
        order = []
        for index in range(5):
            clock.call_at(10.0, lambda i=index: order.append(i))
        clock.advance(10.0)
        assert order == [0, 1, 2, 3, 4]

    def test_callback_sees_its_due_time_as_now(self):
        clock = VirtualClock()
        seen = []
        clock.call_at(7.0, lambda: seen.append(clock.now_ms))
        clock.advance(50.0)
        assert seen == [7.0]
        assert clock.now_ms == 50.0

    def test_callback_can_schedule_within_window(self):
        clock = VirtualClock()
        fired = []
        def first():
            clock.call_after(5.0, lambda: fired.append("second"))
        clock.call_at(10.0, first)
        clock.advance(20.0)
        assert fired == ["second"]

    def test_cancel_prevents_firing(self):
        clock = VirtualClock()
        fired = []
        call = clock.call_after(5.0, lambda: fired.append(1))
        call.cancel()
        clock.advance(10.0)
        assert fired == []

    def test_pending_counts_live_calls(self):
        clock = VirtualClock()
        first = clock.call_after(5.0, lambda: None)
        clock.call_after(6.0, lambda: None)
        assert clock.pending() == 2
        first.cancel()
        assert clock.pending() == 1

    def test_schedule_in_past_raises(self):
        clock = VirtualClock(start_ms=10.0)
        with pytest.raises(ClockError):
            clock.call_at(5.0, lambda: None)
        with pytest.raises(ClockError):
            clock.call_after(-1.0, lambda: None)

    def test_charge_also_fires_due_callbacks(self):
        clock = VirtualClock()
        fired = []
        clock.call_after(1.0, lambda: fired.append(1))
        clock.charge(2.0)
        assert fired == [1]


class TestOnlyTheClockMovesTime:
    """``now_ms`` and ``total_charged_ms`` are plain attributes (a hit
    reads the time several times), so no property stops a write."""

    def test_the_scan_sees_the_clocks_own_writes(self):
        writes = clock_attribute_writes(SRC / "sim" / "clock.py")
        assert any(".now_ms" in w for w in writes)
        assert any(".total_charged_ms" in w for w in writes)

    def test_no_other_module_writes_the_clock(self):
        clock = (SRC / "sim" / "clock.py").resolve()
        writes = [
            write
            for path in sorted(SRC.rglob("*.py")) if path.resolve() != clock
            for write in clock_attribute_writes(path)
        ]
        assert writes == []

    def test_the_scan_catches_every_spelling(self, tmp_path):
        module = tmp_path / "rogue.py"
        module.write_text(
            "clock.now_ms = 0.0\n"
            "clock.now_ms -= 1.0\n"
            "a, ctx.clock.now_ms = 1, 2\n"
            "setattr(clock, 'total_charged_ms', 0.0)\n"
            "clock.total_charged_ms: float = 0.0\n"
            "print(clock.now_ms)\n"
        )
        assert len(clock_attribute_writes(module)) == 5
