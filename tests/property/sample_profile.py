"""Sample where perfbench rounds' timed passes spend their CPU time.

Not a test (nothing here asserts a share): the script that names the
sub-layer costs quoted in CHANGES.md.  perfbench's span tracer times only
its named layers, so it cannot see a frame below them (a clock read, an
``emit`` that returns at once), and ``cProfile`` adds a fixed cost to
every call, which inflates exactly the call-heavy code being looked for.
A sampler does neither.

    PYTHONPATH=src python -m tests.property.sample_profile \\
        [--workload hot_hits] [--seed 6100] [--rounds 3] \\
        [--interval-ms 0.5] [--smoke]

Builds the world of each of ``--rounds`` perfbench rounds (``--seed``
is the first round's stream: perfbench ``--seed 61`` runs 6100, 6101,
...) with ``perfbench.workloads.BUILDERS``, collects as ``run_round``
does, then drives pass A (``run_plain``) and pass B (``run_lapped``)
under an ``ITIMER_PROF`` interval timer, which counts this process's
CPU time and signals only this process.  Each tick is weighted by the
CPU time since the previous one, so ticks the kernel merged are not
lost (a CPU timer fires at most once per scheduler tick, 4 ms at
``HZ=250``, and once across a long C call), and the time the cyclic
collector took in between, timed through ``gc.callbacks``, is its own
row instead of a charge to whichever frame was open.  A tick's *leaf*
is the innermost frame of a ``repro`` function; every distinct
``repro`` function on the stack gets the tick *inclusive*.  Prints both
shares per function, largest leaf first, then the largest inclusive.

Before them, per pass, A and B each summed over the rounds: the pass's
CPU seconds; the workload engine's, the ticks whose stack holds a
``repro/workload/`` frame (minting a catalog's documents, drawing the
trace), so that a workload's cache share can be read apart from them;
and the collector's CPU seconds, its full and young collections, and
the objects each operation promoted to the oldest generation (at every
generation-1 collection, the objects of generations 0 and 1 less those
it collected).  Then the objects the collector tracked once each world
was built and collected.
"""

from __future__ import annotations

import argparse
import collections
import gc
import pathlib
import signal
import tempfile
import time
from dataclasses import dataclass

import repro
from perfbench.workloads import BUILDERS, SIZES

SRC = str(pathlib.Path(repro.__file__).resolve().parent) + "/"
COLLECTOR = "(collector)"
WORKLOAD = "workload/"
OUTSIDE = "(outside repro: driver, stdlib)"


@dataclass
class PassCollector:
    """One timed pass, over all rounds: its CPU, the workload engine's,
    and what the cyclic collector did."""

    operations: int = 0
    cpu_s: float = 0.0
    workload_s: float = 0.0
    seconds: float = 0.0
    full: int = 0
    young: int = 0
    promoted: int = 0


class Sampler:
    """Weighted leaf and inclusive samples of this process's CPU time."""

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.leaf: collections.Counter = collections.Counter()
        self.inclusive: collections.Counter = collections.Counter()
        self.total_s = 0.0
        self.ticks = 0
        #: Pass label -> its collector record; objects tracked after
        #: each round's set-up.
        self.passes: dict[str, PassCollector] = {}
        self.tracked: list[int] = []
        self._pass = PassCollector()
        self._young = 0  # generations 0 + 1 as a gen-1 collection starts
        self._labels: dict = {}
        self._last = 0.0
        self._collector_s = 0.0  # collector time since the last tick
        self._collecting_since: float | None = None

    def _label(self, code) -> str | None:
        label = self._labels.get(code, False)
        if label is False:
            name = code.co_filename
            label = (
                f"{name[len(SRC):]}:{code.co_qualname}"
                if name.startswith(SRC) else None
            )
            self._labels[code] = label
        return label

    def _on_gc(self, phase: str, info: dict) -> None:
        generation = info["generation"]
        if phase == "start":
            if generation == 1:
                self._young = len(gc.get_objects(0)) + len(gc.get_objects(1))
            self._collecting_since = time.process_time()
        elif self._collecting_since is not None:
            spent = time.process_time() - self._collecting_since
            self._collector_s += spent
            self._collecting_since = None
            record = self._pass
            record.seconds += spent
            if generation == 2:
                record.full += 1
            else:
                record.young += 1
            if generation == 1:
                record.promoted += self._young - info["collected"]

    def _on_tick(self, signum, frame) -> None:
        if self._collecting_since is not None:
            return  # inside a gc callback: the next tick carries it
        now = time.process_time()
        weight = now - self._last - self._collector_s
        self.leaf[COLLECTOR] += self._collector_s
        self.total_s += now - self._last
        self._pass.cpu_s += now - self._last
        self._collector_s, self._last = 0.0, now
        self.ticks += 1
        leaf, seen = None, set()
        while frame is not None:
            label = self._label(frame.f_code)
            if label is not None:
                leaf = leaf or label
                if label not in seen:
                    seen.add(label)
                    self.inclusive[label] += weight
            frame = frame.f_back
        self.leaf[leaf or OUTSIDE] += weight
        if any(label.startswith(WORKLOAD) for label in seen):
            self._pass.workload_s += weight

    def run(self, label: str, operations: list, drive) -> None:
        """Sample ``drive(operations)``, one timed pass, as pass *label*."""
        self._pass = self.passes.setdefault(label, PassCollector())
        self._pass.operations += len(operations)

        def action() -> None:
            laps = drive(operations)
            assert not laps.failed, laps.first_error

        previous = signal.signal(signal.SIGPROF, self._on_tick)
        gc.callbacks.append(self._on_gc)
        self._last = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        try:
            action()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            gc.callbacks.remove(self._on_gc)
            signal.signal(signal.SIGPROF, previous)


def sample(
    workload: str, seeds: range, interval_ms: float, smoke: bool
) -> Sampler:
    size = SIZES[workload]["smoke" if smoke else "full"]
    sampler = Sampler(interval_ms / 1000.0)
    for seed in seeds:
        with tempfile.TemporaryDirectory() as scratch:
            world = BUILDERS[workload](seed, size, pathlib.Path(scratch))
            try:
                gc.collect()
                sampler.tracked.append(len(gc.get_objects()))
                sampler.run("A", world.passes[0], world.run_plain)
                sampler.run("B", world.passes[1], world.run_lapped)
            finally:
                world.close()
    return sampler


def report(sampler: Sampler, workload: str, seeds: range, top: int) -> None:
    total = sampler.total_s or 1.0
    full = sum(record.full for record in sampler.passes.values())
    young = sum(record.young for record in sampler.passes.values())
    print(
        f"{workload}, round seeds {seeds.start}-{seeds.stop - 1}, passes A+B: "
        f"{sampler.total_s:.2f} s CPU in {sampler.ticks} ticks; collector "
        f"{sampler.leaf[COLLECTOR]:.3f} s ({full} full, "
        f"{young} young collections)"
    )
    print("tracked objects after set-up: "
          + ", ".join(f"{n:,}" for n in sampler.tracked))
    print(f"{'pass':>4s}{'operations':>12s}{'CPU s':>8s}{'workload s':>12s}"
          f"{'workload %':>12s}{'collector s':>13s}{'full':>6s}{'young':>7s}"
          f"{'promoted/op':>13s}")
    for label, record in sampler.passes.items():
        per_operation = record.promoted / max(record.operations, 1)
        share = 100 * record.workload_s / (record.cpu_s or 1.0)
        print(f"{label:>4s}{record.operations:12d}{record.cpu_s:8.2f}"
              f"{record.workload_s:12.3f}{share:12.1f}{record.seconds:13.3f}"
              f"{record.full:6d}{record.young:7d}{per_operation:13.1f}")
    print(f"{'leaf %':>7s}{'incl %':>8s}  function")
    for label, weight in sampler.leaf.most_common(top):
        inclusive = sampler.inclusive.get(label)
        shown = "" if inclusive is None else f"{100 * inclusive / total:.1f}"
        print(f"{100 * weight / total:7.1f}{shown:>8s}  {label}")
    print(f"{'':7s}{'incl %':>8s}  largest inclusive")
    for label, weight in sampler.inclusive.most_common(top):
        print(f"{'':7s}{100 * weight / total:8.1f}  {label}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BUILDERS),
                        default="hot_hits")
    parser.add_argument("--seed", type=int, default=6100,
                        help="the first round's request stream (default "
                             "6100)")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--interval-ms", type=float, default=0.5,
                        help="CPU time between ticks (default 0.5)")
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument("--smoke", action="store_true",
                        help="perfbench's smoke size: a run that proves "
                             "the script works, not a profile")
    args = parser.parse_args()
    seeds = range(args.seed, args.seed + args.rounds)
    sampler = sample(args.workload, seeds, args.interval_ms, args.smoke)
    report(sampler, args.workload, seeds, args.top)


if __name__ == "__main__":
    main()
