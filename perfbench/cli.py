"""Command line: one run (the BENCHMARK.json contract) or the suite.

``python3 -m perfbench --workload NAME --seed N --seconds S --trace 0|1``
is one run in this process: it prints every metric by name with its
unit, then — as the last line — one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, and exits non-zero when a
check failed.  Without ``--workload`` the suite runs every workload in
fresh child processes (see :mod:`perfbench.suite`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 61


def load_benchmark() -> dict:
    """``BENCHMARK.json``: the registry of metric names, units, bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _ensure_repro() -> None:
    """Put this checkout's ``src`` first on ``sys.path``.

    The benchmark measures the tree it sits in, never an installed copy
    of ``repro``; without that tree there is nothing to measure.
    """
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package in {source}")
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))


def _parser(workloads: list[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench")
    parser.add_argument(
        "--workload", choices=[*workloads, "probes"],
        help="run this one workload in-process (default: the whole suite)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed seconds per run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: per-layer metrics from a traced run plus the probes",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, for the self-tests; numbers mean nothing",
    )
    suite = parser.add_argument_group("suite mode (no --workload)")
    suite.add_argument(
        "--repeats", type=int, default=3,
        help="untraced child runs per workload, interleaved",
    )
    suite.add_argument(
        "--no-trace", action="store_true",
        help="skip the traced child runs",
    )
    suite.add_argument(
        "--out", type=Path, default=None,
        help="result file (default: perfbench/out/<seed>.json)",
    )
    suite.add_argument(
        "--check-repeat", action="store_true",
        help="run the suite twice and compare the two against the bounds",
    )
    return parser


def _emit(result, declared: list[dict]) -> int:
    """Print one run's metrics, notes, and the contract's JSON line."""
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if name not in result.values:
            print(f"perfbench: no value for declared metric {name}",
                  file=sys.stderr)
            return 2
        metrics[name] = {"value": result.values[name], "unit": unit}
        print(f"{name:52s} {result.values[name]:>16.6f} {unit}")
    for note in result.notes:
        print(f"# {note}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


def main(argv: list[str] | None = None) -> int:
    _ensure_repro()
    benchmark = load_benchmark()
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    args = _parser(workloads).parse_args(argv)
    seconds = (
        args.seconds if args.seconds is not None
        else benchmark["run_seconds"]
    )
    if args.workload is None:
        from perfbench import suite

        return suite.main(args, benchmark, seconds)
    from perfbench import runner

    if args.workload == "probes":
        for name, value in runner.run_probes_only(args.smoke).items():
            print(f"{name:52s} {value:>16.6f}")
        return 0
    if args.trace:
        result = runner.run_traced(args.workload, args.seed, args.smoke)
        return _emit(result, benchmark["per_layer"])
    result = runner.run_untraced(
        args.workload, args.seed, seconds, args.smoke
    )
    return _emit(result, benchmark["end_to_end"])
