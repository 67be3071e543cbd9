"""Span tracing from outside the package.

A :class:`Tracer` rebinds timing wrappers around layer-boundary public
callables (class attributes, restored afterwards) and records one span
per call — label, start, end, parent span, operation id — into
pre-allocated arrays.  Nothing is aggregated while the workload runs;
:meth:`Tracer.summary` derives per-label call counts and *self time*
(a span's duration minus the part its child spans cover) afterwards,
and :meth:`Tracer.write_spans` dumps the raw spans.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Iterator

#: ``(label, class, attribute)`` — one traced callable.
Target = tuple[str, type, str]


@dataclass
class LabelSummary:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: Time in spans of this label that have no parent span.
    root_s: float = 0.0


def defining_class(cls: type, attribute: str) -> type:
    for klass in cls.__mro__:
        if attribute in vars(klass):
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attribute!r}")


class Tracer:
    """Fixed-capacity span buffer plus the wrappers that fill it."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.labels: list[str] = []
        self.starts = array("d", bytes(8 * capacity))
        self.ends = array("d", bytes(8 * capacity))
        self.label_ids = array("h", bytes(2 * capacity))
        self.parents = array("i", bytes(4 * capacity))
        self.operations = array("i", bytes(4 * capacity))
        self.count = 0
        #: Calls that found the buffer full and ran untraced.
        self.dropped = 0
        self._operation = -1
        #: Open spans, innermost last; -1 is "no parent".
        self._stack = [-1]

    # -- recording -----------------------------------------------------------

    def _traced(self, function, label_id: int):
        starts, ends = self.starts, self.ends
        label_ids, parents = self.label_ids, self.parents
        operations, stack = self.operations, self._stack
        capacity = self.capacity

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self.count
            if index >= capacity:
                self.dropped += 1
                return function(*args, **kwargs)
            self.count = index + 1
            parent = stack[-1]
            if parent < 0:  # a root span starts a new operation
                self._operation += 1
            label_ids[index] = label_id
            parents[index] = parent
            operations[index] = self._operation
            stack.append(index)
            starts[index] = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, targets: Iterable[Target]) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block.

        Each wrapper goes on the class that *defines* the attribute, so
        restoring puts back the identical function object.
        """
        restore = []
        try:
            for label, cls, attribute in targets:
                owner = defining_class(cls, attribute)
                original = vars(owner)[attribute]
                self.labels.append(label)
                setattr(
                    owner, attribute,
                    self._traced(original, len(self.labels) - 1),
                )
                restore.append((owner, attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(restore):
                setattr(owner, attribute, original)

    # -- analysis ------------------------------------------------------------

    def summary(self) -> dict[str, LabelSummary]:
        """Per-label calls, total, self and root time over all spans."""
        return summarize(
            self.labels, self.label_ids, self.starts, self.ends,
            self.parents, self.count,
        )

    def write_spans(self, path, limit: int) -> int:
        """Write the first *limit* spans as CSV; returns rows written."""
        rows = min(limit, self.count)
        origin = self.starts[0] if rows else 0.0
        with open(path, "w", encoding="ascii") as handle:
            handle.write("span,label,start_us,end_us,parent,operation\n")
            for index in range(rows):
                handle.write(
                    f"{index},{self.labels[self.label_ids[index]]},"
                    f"{(self.starts[index] - origin) * 1e6:.3f},"
                    f"{(self.ends[index] - origin) * 1e6:.3f},"
                    f"{self.parents[index]},{self.operations[index]}\n"
                )
        return rows


def summarize(
    labels, label_ids, starts, ends, parents, count: int
) -> dict[str, LabelSummary]:
    """Self-time accounting over a span table.

    A span's self time is its duration minus the summed durations of
    its direct children, so self times over a tree sum to the root
    span's duration exactly.
    """
    covered = [0.0] * count
    for index in range(count):
        parent = parents[index]
        if parent >= 0:
            covered[parent] += ends[index] - starts[index]
    result = {label: LabelSummary() for label in labels}
    for index in range(count):
        duration = ends[index] - starts[index]
        cell = result[labels[label_ids[index]]]
        cell.calls += 1
        cell.total_s += duration
        cell.self_s += duration - covered[index]
        if parents[index] < 0:
            cell.root_s += duration
    return result
