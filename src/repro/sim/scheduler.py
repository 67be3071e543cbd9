"""Driving suspended reads: one sequential driver, one batch driver.

One read at a time on the virtual clock is the paper's regime; a real
deployment has many reads in flight, and concurrent misses on one hot
document would stampede the provider and re-run the active-property
chain once per requester.  The read pipeline therefore expresses one
access as a *generator* that may yield :class:`Suspension` markers at
the two seams where other work may interleave — before the verifier
gate and before the fetch/chain execution — and this module holds the
functions that run such generators to their results:

* :func:`drive` runs one generator inline, resolving every seam at
  once: operation order, clock charges and fault-plan consultations are
  those of a plain call, which keeps the golden digests bit-for-bit.
* :func:`run_batch` interleaves many on an explicit FIFO ready queue.
  Reads start in submission order; a seam marker sends the read to the
  tail; a flight wait parks the read on the flight, and resolving the
  flight re-queues its parked reads, in wait order, at that instant;
  results and exceptions land in submission order.  No wall clock, no
  randomness: identical batches replay identically.
* :func:`settle_batch` is what ``read_many`` calls, on a cache and on a
  cluster: it picks the driver and states which failures land in place.

Whether a read *may* yield seams and open or join flights is one bit,
``concurrent``, taken by the pipeline's generator entry points; a
generator built without it never suspends, so :func:`drive` suffices.

Single-flight coalescing lives here too, because a *flight* is a
scheduling construct: :class:`FlightTable` maps in-progress miss keys —
the ``(document, user)`` entry key and, via the transform-memo plane,
the ``(source signature, chain fingerprint)`` pair — to the
:class:`Flight` its leader opened.  Followers park on the flight and,
once the leader lands, re-enter the pipeline where the leader's fill
(or memo record) answers them without a second fetch or chain
execution.  A leader that fails resolves the flight with its error: the
first follower to wake finds the table empty and is promoted to lead.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Iterable, Sequence

from repro.errors import (
    DeadlineExceededError,
    OverloadShedError,
    SchedulerError,
)

__all__ = [
    "Suspension",
    "VERIFIER_SEAM",
    "FETCH_SEAM",
    "Flight",
    "FlightTable",
    "drive",
    "run_batch",
    "settle_batch",
]


class Suspension:
    """One point where the batch driver may interleave other work.

    ``seam`` names the pipeline seam ("verifier", "fetch", "flight");
    ``flight`` is set when the suspension waits on a single-flight
    leader rather than merely offering the driver a chance to run
    someone else.  Seam-only suspensions are interned module constants,
    so yielding one allocates nothing.
    """

    __slots__ = ("seam", "flight")

    def __init__(self, seam: str, flight: "Flight | None" = None) -> None:
        self.seam = seam
        self.flight = flight

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        waiting = f" waiting on {self.flight.describe()}" if self.flight else ""
        return f"<Suspension {self.seam}{waiting}>"


#: Interned seam markers yielded before the corresponding steps.
VERIFIER_SEAM = Suspension("verifier")
FETCH_SEAM = Suspension("fetch")


class Flight:
    """One in-progress miss whose result concurrent requesters share.

    The leader registers the flight under its coalescing keys, runs the
    normal fetch/chain path, and resolves the flight when its read
    terminates.  Followers are parked on it by :func:`run_batch` and
    resume with the resolution payload: ``("landed", disposition)`` on
    success, ``("failed", error)`` when the leader's read raised — the
    cue for leader-failure promotion.
    """

    __slots__ = ("keys", "payload", "_parked")

    def __init__(self, keys: tuple[Any, ...]) -> None:
        self.keys = keys
        #: The resolution; ``None`` until the leader landed or failed.
        self.payload: tuple[str, Any] | None = None
        self._parked: list[tuple[deque, Any]] = []

    def describe(self) -> str:
        """Short human-readable key list for traces."""
        return "+".join(str(key) for key in self.keys)

    def park(self, ready: deque, ticket: Any) -> None:
        """Hold *ticket* until the leader resolves; :meth:`resolve`
        then appends ``(ticket, payload)`` to *ready* (at once, if it
        already has)."""
        if self.payload is not None:
            ready.append((ticket, self.payload))
        else:
            self._parked.append((ready, ticket))

    def resolve(self, payload: tuple[str, Any]) -> None:
        """Leader landing/failure: re-queue every parked follower, in
        the order they parked."""
        self.payload = payload
        parked, self._parked = self._parked, []
        for ready, ticket in parked:
            ready.append((ticket, payload))


class FlightTable:
    """In-progress flights keyed by their coalescing keys.

    Purely cooperative bookkeeping: entries are registered and removed
    between suspension points, so no locking discipline beyond "never
    suspend inside a mutation" is needed (see DESIGN.md §3.3).
    """

    def __init__(self) -> None:
        self._flights: dict[Any, Flight] = {}

    def lookup(self, key: Any) -> Flight | None:
        """The in-progress flight registered under *key*, if any."""
        return self._flights.get(key)

    def open(self, keys: Iterable[Any]) -> Flight:
        """Register a new flight under every key in *keys*."""
        flight = Flight(tuple(keys))
        for key in flight.keys:
            self._flights[key] = flight
        return flight

    def close(self, flight: Flight, payload: tuple[str, Any]) -> None:
        """Deregister *flight* and wake its followers with *payload*.

        Keys are removed *before* resolving, so a woken follower that
        misses again finds the table empty and promotes itself to
        leader instead of re-following a landed flight.
        """
        for key in flight.keys:
            if self._flights.get(key) is flight:
                del self._flights[key]
        flight.resolve(payload)

    def __len__(self) -> int:
        return len(self._flights)


def drive(generator: Generator) -> Any:
    """Run one pipeline generator to its terminal value, inline.

    Every seam resolves immediately.  A lone read has no leader to wait
    for, so a flight wait here is a wiring error and raises.
    """
    while True:
        try:
            step = generator.send(None)
        except StopIteration as stop:
            return stop.value
        if step.flight is not None:
            raise SchedulerError(
                "a sequentially driven read cannot wait on flight "
                f"{step.flight.describe()}"
            )


def run_batch(generators: Iterable[Generator]) -> list[Any]:
    """Interleave *generators* by the module's FIFO rule; results in
    submission order.

    A generator that raises has the exception as its result, in place,
    and the rest of the batch still runs; callers decide what to
    re-raise.  If the ready queue drains while a read is still parked,
    nothing in this batch will ever resolve its flight: that raises
    :class:`~repro.errors.SchedulerError` rather than hanging or
    inventing a result.
    """
    reads = list(generators)
    results: list[Any] = [None] * len(reads)
    parked: dict[int, Flight] = {}
    ready: deque = deque((index, None) for index in range(len(reads)))
    while ready:
        index, payload = ready.popleft()
        parked.pop(index, None)
        try:
            step = reads[index].send(payload)
        except StopIteration as stop:
            results[index] = stop.value
        except Exception as error:
            results[index] = error
        else:
            if step.flight is None:
                ready.append((index, None))
            else:
                parked[index] = step.flight
                step.flight.park(ready, index)
    if parked:
        stalled = ", ".join(
            f"read {index} on flight {flight.describe()}"
            for index, flight in parked.items()
        )
        raise SchedulerError(
            f"batch stalled with no runnable read: {stalled}"
        )
    return results


def settle_batch(
    references: Sequence[Any],
    read_one: Callable[[Any], Any],
    iterate: Callable[[Any], Generator],
    *,
    concurrent: bool,
    gated: bool,
    return_exceptions: bool,
) -> list:
    """Run a batch to termination; every read's result in submission order.

    The one statement of how a batch settles, for a single cache and a
    cluster alike.  *concurrent* batches interleave every reference's
    *iterate* generator under :func:`run_batch` (which returns failures
    in place — the re-raise rule is stated only here); otherwise
    *read_one* runs them in turn.  Either way, a *gated* batch's typed
    overload outcomes (shed, deadline exceeded) always land in place —
    an overloaded batch is an expected outcome, not a caller bug — and
    any other failure lands in place with *return_exceptions*, else is
    re-raised (the first in submission order, once a concurrent batch
    has run to termination).
    """
    in_place = (OverloadShedError, DeadlineExceededError) if gated else ()
    if not concurrent:
        outcomes: list = []
        for reference in references:
            try:
                outcomes.append(read_one(reference))
            except in_place as error:
                outcomes.append(error)
            except Exception as error:
                if not return_exceptions:
                    raise
                outcomes.append(error)
        return outcomes
    results = run_batch(iterate(reference) for reference in references)
    if not return_exceptions:
        for result in results:
            if isinstance(result, Exception) and not isinstance(
                result, in_place
            ):
                raise result
    return results
