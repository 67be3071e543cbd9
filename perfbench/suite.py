"""The suite: every workload, each run in a fresh child process.

Children are exactly the single-run command of :mod:`perfbench.cli`,
spawned one at a time and interleaved (A B C D, A B C D, ...) so a noisy
minute on a shared machine spreads over all workloads.  The reported
end-to-end value is the median across repeats; per-repeat values are
kept in the result file.  A fresh process per run makes ``peak_rss_mib``
per-workload (``ru_maxrss`` is monotone) and keeps one workload's heap
out of the next one's timings.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median

from perfbench.cli import ROOT
from perfbench.runner import OUT
from perfbench.timing import calibration_us

#: Same seed, same inputs: these must repeat bit for bit.
EXACT_END_TO_END = ("hit_ratio", "virtual_ms_per_read")
EXACT_PER_LAYER_UNITS = ("count", "bytes")
CHILD_TIMEOUT_S = 900


def _child(workload: str, seed: int, seconds: float, trace: int,
           smoke: bool) -> dict:
    """Run one child; return its final JSON line (plus the exit code)."""
    command = [
        sys.executable, "-m", "perfbench",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{workload} (trace {trace}) printed no result, exit code "
            f"{done.returncode}:\n{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["exit_code"] = done.returncode
    return result


def run_suite(args, benchmark: dict, seconds: float) -> dict:
    """All workloads, ``args.repeats`` untraced runs each, then traced."""
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in workloads}
    for repeat in range(args.repeats):
        for name in workloads:
            print(f"[{repeat + 1}/{args.repeats}] {name}", file=sys.stderr)
            runs[name].append(
                _child(name, args.seed, seconds, 0, args.smoke)
            )
    report = {
        "seed": args.seed,
        "repeats": args.repeats,
        "run_seconds": seconds,
        "smoke": args.smoke,
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "probe.calibration_us": calibration_us(),
        },
        "workloads": {},
    }
    for name in workloads:
        children = runs[name]
        end_to_end = {}
        for metric in benchmark["end_to_end"]:
            values = [
                child["metrics"][metric["name"]]["value"]
                for child in children
            ]
            end_to_end[metric["name"]] = {
                "median": median(values),
                "values": values,
                "unit": metric["unit"],
            }
        entry = {
            "correct": all(
                child["correct"] and child["exit_code"] == 0
                for child in children
            ),
            "attempted": sum(child["attempted"] for child in children),
            "failed": sum(child["failed"] for child in children),
            "end_to_end": end_to_end,
        }
        if not args.no_trace:
            print(f"[traced] {name}", file=sys.stderr)
            traced = _child(name, args.seed, seconds, 1, args.smoke)
            entry["correct"] &= traced["correct"] and not traced["exit_code"]
            entry["per_layer"] = traced["metrics"]
        report["workloads"][name] = entry
    return report


def print_report(report: dict) -> None:
    environment = report["environment"]
    print(
        f"seed {report['seed']}, {report['repeats']} repeats of "
        f"{report['run_seconds']} s; python {environment['python']}, "
        f"{environment['nproc']} cores, calibration "
        f"{environment['probe.calibration_us']:.1f} us"
    )
    for name, entry in report["workloads"].items():
        print(f"\n== {name}: {'correct' if entry['correct'] else 'INCORRECT'},"
              f" {entry['failed']} of {entry['attempted']} operations failed")
        for metric, cell in entry["end_to_end"].items():
            repeats = " ".join(f"{value:.6g}" for value in cell["values"])
            print(f"{metric:24s} {cell['median']:>16.6f} {cell['unit']:6s}"
                  f" [{repeats}]")
        for metric, cell in entry.get("per_layer", {}).items():
            print(f"{metric:52s} {cell['value']:>16.6f} {cell['unit']}")


def compare(first: dict, second: dict, benchmark: dict) -> bool:
    """Print both suites side by side; True when they agree.

    Wall-clock metrics must agree within their BENCHMARK.json bound;
    seed-determined ones (and traced counts) must be identical.
    """
    agree = True
    for name, one in first["workloads"].items():
        other = second["workloads"][name]
        print(f"\n== {name}")
        for metric in benchmark["end_to_end"]:
            label = metric["name"]
            a = one["end_to_end"][label]["median"]
            b = other["end_to_end"][label]["median"]
            bound = 0.0 if label in EXACT_END_TO_END else metric["bound"]
            difference = abs(b - a) / a
            verdict = "ok" if difference <= bound else "EXCEEDS"
            agree &= difference <= bound
            print(f"{label:24s} {a:>16.6f} {b:>16.6f} {metric['unit']:6s}"
                  f" diff {difference:8.4%} bound {bound:6.2%} {verdict}")
        for label, cell in one.get("per_layer", {}).items():
            if cell["unit"] not in EXACT_PER_LAYER_UNITS:
                continue
            b = other["per_layer"][label]["value"]
            if cell["value"] != b:
                agree = False
                print(f"{label:52s} {cell['value']} != {b} DIFFERS")
    return agree


def main(args, benchmark: dict, seconds: float) -> int:
    first = run_suite(args, benchmark, seconds)
    print_report(first)
    out = args.out or OUT / f"{args.seed}.json"
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(first, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {out}")
    correct = all(entry["correct"] for entry in first["workloads"].values())
    if args.check_repeat:
        second = run_suite(args, benchmark, seconds)
        correct &= all(
            entry["correct"] for entry in second["workloads"].values()
        )
        print("\n-- check-repeat: first suite vs. second suite --")
        correct &= compare(first, second, benchmark)
        print("\ncheck-repeat:", "PASS" if correct else "FAIL")
    return 0 if correct else 1
