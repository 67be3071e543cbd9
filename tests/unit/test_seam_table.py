"""The stream seam, as a table.

One property's interposition on a document path — what
:func:`~repro.placeless.chain.apply_read_wrapper` and
:func:`~repro.placeless.chain.apply_write_wrapper` do with a fault mode, a
containment guard, a breaker state and the property's role — observed
cell by cell: the virtual-clock charge, the fault plan's
``injection_trace()``, the containment events, ``PathMeta``'s skip
counters, the stream handed back (outermost class first) and the
exception, then the same again for consuming that stream.

``RECORDED`` holds what the four hand-copied bodies the seam used to
have (``apply_read_wrapper`` / ``apply_write_wrapper`` unguarded,
``ContainmentGuard.wrap_input`` / ``wrap_output`` guarded) did in every
cell, so the single body that replaced them is held to each of theirs.
Cells that behaved alike share a row, named by ``fnmatch`` patterns over
``direction/guard/fault/kind/breaker/role``; every cell must match
exactly one row.  ``PYTHONPATH=src python -m tests.unit.test_seam_table``
prints each cell the code it runs on answers differently.
"""

from __future__ import annotations

import fnmatch
import itertools
from types import SimpleNamespace

import pytest

from repro.cache.containment import ContainmentGuard
from repro.cache.policies import ContainmentPolicy
from repro.faults.plan import FaultPlan
from repro.placeless.chain import (
    apply_read_wrapper,
    apply_write_wrapper,
    property_site,
)
from repro.placeless.document import PathMeta
from repro.placeless.properties import ActiveProperty
from repro.sim.context import SimContext
from repro.streams.base import (
    BytesInputStream,
    BytesOutputStream,
    InputStream,
    OutputStream,
)

DOCUMENT = "doc"
PROBATION_MS = 100.0


class _In(InputStream):
    def __init__(self, inner):
        super().__init__()
        self._inner = inner

    def _read_chunk(self, size):
        return self._inner.read(size)

    def _on_close(self):
        self._inner.close()


class _Out(OutputStream):
    def __init__(self, inner):
        super().__init__()
        self._inner = inner

    def _write_chunk(self, data):
        self._inner.write(data)

    def _on_close(self):
        self._inner.close()


class _Wrapping(ActiveProperty):
    """A well-behaved property: every misbehaviour is the plan's."""

    execution_cost_ms = 1.5

    def __init__(self, required, infrastructure):
        super().__init__("p")
        self.transforms_reads = required
        self.is_infrastructure = infrastructure

    def wrap_input(self, stream, event):
        return _In(stream)

    def wrap_output(self, stream, event):
        return _Out(stream)


def _cells():
    """``direction/guard/fault/kind/breaker/role`` for every cell.

    Without a guard there is no breaker and no ``deny_required``; the
    ``guard-unbudgeted`` rows are the only way a guarded runaway reaches
    its charge instead of the cost cap.
    """
    for direction, fault, kind in itertools.product(
        ("read", "write"),
        ("none", "raise", "runaway", "corrupt"),
        ("ordinary", "infrastructure"),
    ):
        for role in ("optional", "required"):
            yield f"{direction}/bare/{fault}/{kind}/-/{role}"
        for breaker, role in itertools.product(
            ("closed", "open", "half-open"),
            ("optional", "required", "deny_required"),
        ):
            yield f"{direction}/guard/{fault}/{kind}/{breaker}/{role}"
    for direction in ("read", "write"):
        yield f"{direction}/guard-unbudgeted/runaway/ordinary/closed/optional"


def _nesting(stream):
    names = []
    while stream is not None:
        names.append(type(stream).__name__)
        stream = getattr(stream, "_inner", None)
    return ">".join(names)


def observe(cell: str) -> tuple:
    """Run one cell; see the module docstring for what comes back."""
    direction, guarded, fault, kind, breaker, role = cell.split("/")
    ctx = SimContext()
    ctx.faults = None if fault == "none" else FaultPlan(
        ctx.clock, property_failure_probability=1.0,
        property_failure_modes=(fault,),
    )
    prop = _Wrapping(role != "optional", kind == "infrastructure")
    events: list[str] = []
    if guarded != "bare":
        budget = {} if guarded == "guard-unbudgeted" else {
            "max_cost_ms": 5.0, "max_bytes": 1 << 20,
        }

        def report(stage, outcome, key, **payload) -> None:
            events.append(outcome)

        guard = ctx.containment = ContainmentGuard(
            ContainmentPolicy(
                failure_threshold=1, probation_delay_ms=PROBATION_MS,
                deny_required=role == "deny_required", **budget,
            ),
            ctx, report,
        )
        if breaker != "closed":
            guard.wrappers.get(
                (DOCUMENT, property_site(prop))
            ).record_failure(ctx.clock.now_ms)
        if breaker == "half-open":
            ctx.clock.charge(PROBATION_MS)
    event = SimpleNamespace(document_id=DOCUMENT)
    meta = PathMeta() if direction == "read" else None
    sink = BytesOutputStream()
    started_ms = ctx.clock.now_ms
    stream = error = None
    try:
        if direction == "read":
            stream = apply_read_wrapper(
                ctx, prop, BytesInputStream(b"payload"), event, meta
            )
        else:
            stream = apply_write_wrapper(ctx, prop, sink, event)
    except Exception as raised:
        error = type(raised).__name__
    applied = (
        round(ctx.clock.now_ms - started_ms, 6),
        tuple(
            (record.site, record.action, record.target)
            for record in (ctx.faults.injection_trace() if ctx.faults else ())
        ),
        tuple(events),
        (
            meta.properties_executed, meta.contained_skips,
            meta.contained_required,
        ) if meta else None,
        _nesting(stream),
        error,
    )
    if stream is None:
        return applied
    events.clear()
    try:
        if direction == "read":
            moved = stream.read(-1)
        else:
            stream.write(b"payload")
            moved = None
        stream.close()
        if direction == "write":
            moved = sink.getvalue()
        consumed = moved == b"payload"
    except Exception as raised:
        consumed = type(raised).__name__
    return applied + (consumed, tuple(events))


_RAISE = (("property", "raise", "stream:p"),)
_RUNAWAY = (("property", "runaway", "stream:p"),)
_CORRUPT = (("property", "corrupt", "stream:p"),)
_GUARDED_IN = "FirewallInputStream>ByteCapInputStream>_In>BytesInputStream"
_GUARDED_OUT = "FirewallOutputStream>_Out>BytesOutputStream"
_CORRUPT_IN = (
    "FirewallInputStream>ByteCapInputStream>CorruptingInputStream"
    ">_In>BytesInputStream"
)
_CORRUPT_OUT = (
    "FirewallOutputStream>CorruptingOutputStream>_Out>BytesOutputStream"
)

#: (charge ms, injection trace, events, (executed, skips, required) or
#: None on the write path, stream nesting, exception[, consumed whole or
#: the exception consuming raised, events while consuming]).
RECORDED: list[tuple[tuple, str]] = [
    # Infrastructure properties bypass plan and guard; so does an
    # ordinary property with neither.
    ((1.5, (), (), (1, 0, 0), "_In>BytesInputStream", None, True, ()),
     "read/*/*/infrastructure/*/* read/bare/none/ordinary/-/*"),
    ((1.5, (), (), None, "_Out>BytesOutputStream", None, True, ()),
     "write/*/*/infrastructure/*/* write/bare/none/ordinary/-/*"),
    # Guarded and healthy: firewall (and byte cap) around the wrapper.
    ((1.5, (), (), (1, 0, 0), _GUARDED_IN, None, True, ()),
     "read/guard/none/ordinary/closed/*"),
    ((1.5, (), (), None, _GUARDED_OUT, None, True, ()),
     "write/guard/none/ordinary/closed/*"),
    ((1.5, (), ("probe",), (1, 0, 0), _GUARDED_IN, None, True, ("closed",)),
     "read/guard/none/ordinary/half-open/*"),
    ((1.5, (), ("probe",), None, _GUARDED_OUT, None, True, ("closed",)),
     "write/guard/none/ordinary/half-open/*"),
    # An open breaker: no charge, no RNG draw, whatever the plan holds.
    ((0.0, (), ("skipped",), (0, 1, 0), "BytesInputStream", None, True, ()),
     "read/guard/*/ordinary/open/optional"),
    ((0.0, (), ("forced-miss",), (0, 0, 1), "BytesInputStream", None, True,
      ()),
     "read/guard/*/ordinary/open/required"),
    ((0.0, (), ("denied",), (0, 0, 0), "", "CircuitOpenError"),
     "read/guard/*/ordinary/open/deny_required"),
    ((0.0, (), ("skipped",), None, "BytesOutputStream", None, True, ()),
     "write/guard/*/ordinary/open/optional"),
    ((0.0, (), ("denied",), None, "", "CircuitOpenError"),
     "write/guard/*/ordinary/open/required "
     "write/guard/*/ordinary/open/deny_required"),
    # raise — unguarded it reaches the application.
    ((1.5, _RAISE, (), (1, 0, 0), "", "PropertyError"),
     "read/bare/raise/ordinary/-/*"),
    ((1.5, _RAISE, (), None, "", "PropertyError"),
     "write/bare/raise/ordinary/-/*"),
    ((1.5, _RAISE, ("contained", "tripped", "skipped"), (1, 1, 0),
      "BytesInputStream", None, True, ()),
     "read/guard/raise/ordinary/closed/optional"),
    ((1.5, _RAISE, ("contained", "tripped", "forced-miss"), (1, 0, 1),
      "BytesInputStream", None, True, ()),
     "read/guard/raise/ordinary/closed/required"),
    ((1.5, _RAISE, ("contained", "tripped", "denied"), (1, 0, 0), "",
      "CircuitOpenError"),
     "read/guard/raise/ordinary/closed/deny_required"),
    ((1.5, _RAISE, ("probe", "contained", "reopened", "skipped"), (1, 1, 0),
      "BytesInputStream", None, True, ()),
     "read/guard/raise/ordinary/half-open/optional"),
    ((1.5, _RAISE, ("probe", "contained", "reopened", "forced-miss"),
      (1, 0, 1), "BytesInputStream", None, True, ()),
     "read/guard/raise/ordinary/half-open/required"),
    ((1.5, _RAISE, ("probe", "contained", "reopened", "denied"), (1, 0, 0),
      "", "CircuitOpenError"),
     "read/guard/raise/ordinary/half-open/deny_required"),
    ((1.5, _RAISE, ("contained", "tripped", "skipped"), None,
      "BytesOutputStream", None, True, ()),
     "write/guard/raise/ordinary/closed/optional"),
    ((1.5, _RAISE, ("contained", "tripped", "denied"), None, "",
      "CircuitOpenError"),
     "write/guard/raise/ordinary/closed/required "
     "write/guard/raise/ordinary/closed/deny_required"),
    ((1.5, _RAISE, ("probe", "contained", "reopened", "skipped"), None,
      "BytesOutputStream", None, True, ()),
     "write/guard/raise/ordinary/half-open/optional"),
    ((1.5, _RAISE, ("probe", "contained", "reopened", "denied"), None, "",
      "CircuitOpenError"),
     "write/guard/raise/ordinary/half-open/required "
     "write/guard/raise/ordinary/half-open/deny_required"),
    # runaway — the cost cap (5 ms) is paid instead of the 25 ms, before
    # the property is absorbed; without a cap the guard charges it all.
    ((26.5, _RUNAWAY, (), (1, 0, 0), "_In>BytesInputStream", None, True, ()),
     "read/bare/runaway/ordinary/-/*"),
    ((26.5, _RUNAWAY, (), None, "_Out>BytesOutputStream", None, True, ()),
     "write/bare/runaway/ordinary/-/*"),
    ((26.5, _RUNAWAY, (), (1, 0, 0), "FirewallInputStream>_In>BytesInputStream",
      None, True, ()),
     "read/guard-unbudgeted/runaway/ordinary/closed/optional"),
    ((26.5, _RUNAWAY, (), None, _GUARDED_OUT, None, True, ()),
     "write/guard-unbudgeted/runaway/ordinary/closed/optional"),
    ((5.0, _RUNAWAY, ("budget-exceeded", "tripped", "skipped"), (0, 1, 0),
      "BytesInputStream", None, True, ()),
     "read/guard/runaway/ordinary/closed/optional"),
    ((5.0, _RUNAWAY, ("budget-exceeded", "tripped", "forced-miss"),
      (0, 0, 1), "BytesInputStream", None, True, ()),
     "read/guard/runaway/ordinary/closed/required"),
    ((5.0, _RUNAWAY, ("budget-exceeded", "tripped", "denied"), (0, 0, 0), "",
      "CircuitOpenError"),
     "read/guard/runaway/ordinary/closed/deny_required"),
    ((5.0, _RUNAWAY, ("probe", "budget-exceeded", "reopened", "skipped"),
      (0, 1, 0), "BytesInputStream", None, True, ()),
     "read/guard/runaway/ordinary/half-open/optional"),
    ((5.0, _RUNAWAY, ("probe", "budget-exceeded", "reopened", "forced-miss"),
      (0, 0, 1), "BytesInputStream", None, True, ()),
     "read/guard/runaway/ordinary/half-open/required"),
    ((5.0, _RUNAWAY, ("probe", "budget-exceeded", "reopened", "denied"),
      (0, 0, 0), "", "CircuitOpenError"),
     "read/guard/runaway/ordinary/half-open/deny_required"),
    ((5.0, _RUNAWAY, ("budget-exceeded", "tripped", "skipped"), None,
      "BytesOutputStream", None, True, ()),
     "write/guard/runaway/ordinary/closed/optional"),
    ((5.0, _RUNAWAY, ("budget-exceeded", "tripped", "denied"), None, "",
      "CircuitOpenError"),
     "write/guard/runaway/ordinary/closed/required "
     "write/guard/runaway/ordinary/closed/deny_required"),
    ((5.0, _RUNAWAY, ("probe", "budget-exceeded", "reopened", "skipped"),
      None, "BytesOutputStream", None, True, ()),
     "write/guard/runaway/ordinary/half-open/optional"),
    ((5.0, _RUNAWAY, ("probe", "budget-exceeded", "reopened", "denied"), None,
      "", "CircuitOpenError"),
     "write/guard/runaway/ordinary/half-open/required "
     "write/guard/runaway/ordinary/half-open/deny_required"),
    # corrupt — wraps cleanly, fails mid-stream; the firewall reports
    # it to the breaker exactly once.
    ((1.5, _CORRUPT, (), (1, 0, 0),
      "CorruptingInputStream>_In>BytesInputStream", None, "StreamError", ()),
     "read/bare/corrupt/ordinary/-/*"),
    ((1.5, _CORRUPT, (), None, "CorruptingOutputStream>_Out>BytesOutputStream",
      None, "StreamError", ()),
     "write/bare/corrupt/ordinary/-/*"),
    ((1.5, _CORRUPT, (), (1, 0, 0), _CORRUPT_IN, None, "StreamError",
      ("escaped", "tripped")),
     "read/guard/corrupt/ordinary/closed/*"),
    ((1.5, _CORRUPT, ("probe",), (1, 0, 0), _CORRUPT_IN, None, "StreamError",
      ("escaped", "reopened")),
     "read/guard/corrupt/ordinary/half-open/*"),
    ((1.5, _CORRUPT, (), None, _CORRUPT_OUT, None, "StreamError",
      ("escaped", "tripped")),
     "write/guard/corrupt/ordinary/closed/*"),
    ((1.5, _CORRUPT, ("probe",), None, _CORRUPT_OUT, None, "StreamError",
      ("escaped", "reopened")),
     "write/guard/corrupt/ordinary/half-open/*"),
]

CELLS = list(_cells())


def _expected(cell: str) -> list[tuple]:
    return [
        observation
        for observation, patterns in RECORDED
        if any(fnmatch.fnmatchcase(cell, p) for p in patterns.split())
    ]


@pytest.mark.parametrize("cell", CELLS)
def test_cell_matches_the_recorded_bodies(cell):
    assert [observe(cell)] == _expected(cell)


def test_every_row_names_a_cell():
    for _, patterns in RECORDED:
        for pattern in patterns.split():
            assert fnmatch.filter(CELLS, pattern), pattern


if __name__ == "__main__":  # pragma: no cover - the recorder
    for cell in CELLS:
        if [observe(cell)] != _expected(cell):
            print(f"{cell}\n    now      {observe(cell)!r}"
                  f"\n    recorded {_expected(cell)!r}")
