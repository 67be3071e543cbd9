"""One run of one workload: rounds, aggregation, correctness.

A *round* builds a fresh world (timed: that is ``setup_s``), replays
the workload's fixed operation count twice — pass A untimed-lap for
``ops_per_s``, pass B lap-timed for the latency percentiles — then a
lap-timed write burst with read-your-write, then a sampled served-bytes
check.  An untraced run does as many rounds as fill ``--seconds`` at the
workload's nominal round length (at least :data:`MIN_ROUNDS`), each on
its own request stream derived from ``--seed``: one stream's mix of
cheap and expensive operations moves ``ops_per_s`` by 6-8 % between
seeds, four pooled halve that.  The number of rounds depends on
``--seconds`` only, never on how fast the machine is, so the
seed-determined metrics stay seed-determined.

Every time but ``setup_s`` is *reference-speed* time.  The shared box
this runs on switches between speeds some 25 % apart every few seconds
(a busy or idle sibling core), which no median over a 10 s run removes.
So each pass is cut into :data:`CHUNKS_PER_PASS` chunks of ~20 ms, a
~1 ms slice of a fixed pure-Python loop is timed between chunks, and a
chunk's elapsed time is multiplied by reference/observed loop time
(:func:`perfbench.timing.speed_scale`).  On a quiet reference box the
factor is 1; raw wall-clock figures are printed beside the scaled ones.

A traced run does one plain round (the overhead baseline), one round
with the timing wrappers installed, then the isolated probes.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

from perfbench.layers import TARGETS, counters
from perfbench.probes import run_probes
from perfbench.timing import (
    calibration_slice_us,
    peak_rss_mib,
    percentile,
    speed_scale,
)
from perfbench.tracing import Tracer
from perfbench.workloads import BUILDERS, SIZES, Laps, Size, World

OUT = Path(__file__).resolve().parent / "out"

#: Fewest rounds in an untraced run: ``setup_s`` is a median of these.
MIN_ROUNDS = 3
#: Round *i* of a run at ``--seed n`` replays request stream
#: ``n * ROUND_SEEDS + i``, so no two (seed, round) pairs share one.
ROUND_SEEDS = 100
#: Fewest laps a percentile may be taken from.
MIN_LAPS = 10
#: Calibration slices per pass (one between every two chunks).
CHUNKS_PER_PASS = 75
#: Spans written to the CSV dump of a traced run.
SPAN_DUMP_ROWS = 20_000


@dataclass
class Timed(Laps):
    """One pass, chunk results summed: :class:`Laps` (laps already
    scaled) plus wall-clock and reference-speed seconds."""

    wall_s: float = 0.0
    reference_s: float = 0.0


@dataclass
class Round:
    setup_s: float
    plain: Timed
    lapped: Timed
    burst: Timed
    #: Counter deltas over passes A+B, and over A+B+burst.
    passes: dict[str, float]
    total: dict[str, float]
    #: Content-store ``(physical, logical)`` bytes at the end.
    stored_bytes: tuple[float, float]
    wrong_bytes: int

    @property
    def timed(self) -> list[Timed]:
        return [self.plain, self.lapped, self.burst]


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    #: Metric name -> value, for every metric this kind of run reports.
    values: dict[str, float]
    #: Ungated figures and the reasons behind ``correct``, for people.
    notes: list[str]


def _delta(after: dict[str, float], before: dict[str, float]) -> dict:
    return {name: after[name] - before[name] for name in after}


def _drive(drive, operations: list) -> Timed:
    """Feed *operations* to a world driver chunk by chunk, scaling each
    chunk's times by the calibration slices on either side of it."""
    timed = Timed()
    chunk = max(1, len(operations) // CHUNKS_PER_PASS)
    before = calibration_slice_us()
    for start in range(0, len(operations), chunk):
        started = perf_counter()
        result = drive(operations[start:start + chunk])
        elapsed = perf_counter() - started
        after = calibration_slice_us()
        scale = speed_scale(before, after)
        before = after
        timed.attempted += result.attempted
        timed.failed += result.failed
        timed.first_error = timed.first_error or result.first_error
        timed.wall_s += elapsed
        timed.reference_s += elapsed * scale
        for laps in ("hits", "misses", "writes"):
            getattr(timed, laps).extend(
                lap * scale for lap in getattr(result, laps)
            )
    return timed


def run_round(
    name: str, seed: int, size: Size, scratch: Path,
    tracer: Tracer | None = None,
) -> Round:
    """Build a world and drive it once; see the module docstring."""
    gc.collect()
    started = perf_counter()
    world: World = BUILDERS[name](seed, size, scratch)
    # A full collection now, inside set-up: left pending, it lands in a
    # timed pass on some commits and not others (0.2-0.8 s at 500 000
    # tracked objects) and steps ops_per_s by a third either way.
    gc.collect()
    # Plain wall-clock: set-up offers no chunks to put calibration
    # slices between, and scaling it by two slices adds noise.
    setup_s = perf_counter() - started
    try:
        start = counters(world)
        tracing = (
            tracer.installed(TARGETS) if tracer is not None
            else contextlib.nullcontext()
        )
        with tracing:
            plain = _drive(world.run_plain, world.passes[0])
            lapped = _drive(world.run_lapped, world.passes[1])
            middle = counters(world)
            # Read-backs go through the traced callables too, so the
            # traced round writes without checking.
            burst = _drive(
                functools.partial(world.run_burst, check=tracer is None),
                world.burst,
            )
        end = counters(world)
        if tracer is None:
            world.check_served_bytes()
        return Round(
            setup_s=setup_s, plain=plain, lapped=lapped, burst=burst,
            passes=_delta(middle, start),
            total=_delta(end, start),
            stored_bytes=(
                end["content.physical_bytes"], end["content.logical_bytes"]
            ),
            wrong_bytes=world.wrong_bytes,
        )
    finally:
        world.close()


@contextlib.contextmanager
def _scratch():
    """A private directory under ``perfbench/out`` for this process."""
    directory = OUT / f"scratch-{os.getpid()}"
    directory.mkdir(parents=True, exist_ok=True)
    try:
        yield directory
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _failure_note(timed: list[Timed]) -> list[str]:
    errors = [part.first_error for part in timed if part.first_error]
    return [f"first failed operation: {errors[0]}"] if errors else []


def _us(laps, p: float, what: str) -> float:
    if len(laps) < MIN_LAPS:
        raise RuntimeError(
            f"only {len(laps)} {what} laps: too few for a percentile"
        )
    return percentile(laps, p) * 1e6


def run_untraced(
    name: str, seed: int, seconds: float, smoke: bool = False
) -> RunResult:
    """End-to-end metrics, wrappers off."""
    size = SIZES[name]["smoke" if smoke else "full"]
    n_rounds = max(MIN_ROUNDS, math.ceil(seconds / size.round_s))
    with _scratch() as scratch:
        rounds = [
            run_round(name, seed * ROUND_SEEDS + index, size, scratch)
            for index in range(n_rounds)
        ]
    hits = [lap for r in rounds for lap in r.lapped.hits]
    misses = [lap for r in rounds for lap in r.lapped.misses]
    writes = [lap for r in rounds for lap in r.burst.writes]
    reads = hits + misses
    passes = {
        name: sum(r.passes[name] for r in rounds) for name in rounds[0].passes
    }
    n_reads = passes["cache.hits"] + passes["cache.misses"]
    plain = [r.plain for r in rounds]
    operations = sum(part.attempted for part in plain)
    values = {
        "setup_s": median([r.setup_s for r in rounds]),
        "ops_per_s": operations / sum(part.reference_s for part in plain),
        "read_p50_us": _us(reads, 50, "read"),
        "read_p99_us": _us(reads, 99, "read"),
        "hit_p50_us": _us(hits, 50, "hit"),
        "miss_p50_us": _us(misses, 50, "miss"),
        "write_p50_us": _us(writes, 50, "write"),
        "hit_ratio": passes["cache.hits"] / n_reads,
        "virtual_ms_per_read": (
            passes["cache.hit_latency_ms"] + passes["cache.miss_latency_ms"]
        ) / n_reads,
        "peak_rss_mib": peak_rss_mib(),
    }
    timed = [part for r in rounds for part in r.timed]
    attempted = sum(part.attempted for part in timed)
    failed = sum(part.failed for part in timed)
    wall = sum(part.wall_s for part in timed)
    wrong = sum(r.wrong_bytes for r in rounds)
    physical = sum(r.stored_bytes[0] for r in rounds)
    logical = sum(r.stored_bytes[1] for r in rounds)
    notes = [
        f"rounds {len(rounds)}, timed {wall:.2f} s wall-clock; machine at"
        f" {sum(part.reference_s for part in timed) / wall:.3f} of"
        " reference speed",
        "ops_per_s unscaled"
        f" {operations / sum(part.wall_s for part in plain):.1f}",
        f"laps: {len(reads)} reads ({len(hits)} hits, {len(misses)} misses),"
        f" {len(writes)} writes",
        f"read_p99.9_us {_us(reads, 99.9, 'read'):.2f} (ungated)",
        f"stored_bytes_ratio {physical / logical:.6f}",
        f"failed_ops_ratio {failed / attempted:.6f} ({failed}/{attempted})",
        f"wrong_bytes {wrong}",
        *_failure_note(timed),
    ]
    return RunResult(
        correct=wrong == 0 and failed == 0,
        attempted=attempted, failed=failed, values=values, notes=notes,
    )


def run_traced(name: str, seed: int, smoke: bool = False) -> RunResult:
    """Per-layer metrics: spans, counts, tracing overhead, probes."""
    size = SIZES[name]["smoke" if smoke else "full"]
    # hot_hits records ~3 spans per read, seams_on ~14; both fit.
    tracer = Tracer(capacity=10 * size.per_pass + 200_000)
    stream = seed * ROUND_SEEDS  # round 0 of the untraced run
    with _scratch() as scratch:
        plain = run_round(name, stream, size, scratch)
        traced = run_round(name, stream, size, scratch, tracer=tracer)
        values = run_probes(scratch, smoke=smoke)
    summary = tracer.summary()
    for label, cell in summary.items():
        values[f"{label}.calls"] = cell.calls
        values[f"{label}.self_s"] = cell.self_s
    values.update(traced.total)
    values["content.stored_bytes_ratio"] = (
        traced.stored_bytes[0] / traced.stored_bytes[1]
    )
    values["trace.overhead_ratio"] = (
        traced.plain.reference_s / plain.plain.reference_s
    )
    values["trace.spans"] = tracer.count
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"spans-{name}-{seed}.csv"
    tracer.write_spans(dump, SPAN_DUMP_ROWS)
    # Wrappers must observe, not perturb: the traced round has to count
    # exactly what the plain one did.
    unperturbed = traced.passes == plain.passes
    timed = plain.timed + traced.timed
    failed = sum(part.failed for part in timed)
    notes = [
        f"spans {tracer.count} (dropped {tracer.dropped}),"
        f" first {SPAN_DUMP_ROWS} written to {dump.relative_to(OUT.parent)}",
        "sum of self times"
        f" {sum(cell.self_s for cell in summary.values()):.6f} s,"
        f" sum of root spans"
        f" {sum(cell.root_s for cell in summary.values()):.6f} s",
        f"traced round counts what the plain round counted: {unperturbed}",
        *_failure_note(timed),
    ]
    return RunResult(
        correct=failed == 0 and unperturbed and tracer.dropped == 0,
        attempted=sum(part.attempted for part in timed),
        failed=failed, values=values, notes=notes,
    )


def run_probes_only(smoke: bool = False) -> dict[str, float]:
    """The isolated probes alone (``--workload probes``)."""
    with _scratch() as scratch:
        return run_probes(scratch, smoke=smoke)
