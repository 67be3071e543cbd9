"""Compare ``BENCH_*.json`` against the pinned virtual-clock metrics.

Not a collected test: the script CI's ``benchmarks`` job runs after
``python -m repro bench all --smoke``, and the comparison
``test_bench_smoke.py`` runs in tier-1 for the cheapest experiments.

    PYTHONPATH=src python -m tests.integration.bench_golden [DIR]
    PYTHONPATH=src python -m tests.integration.bench_golden --update

Table 1 through A19 read only the virtual clock, so their smoke-size
artifacts are pure functions of the seed: a difference from
``golden/bench_smoke.json`` *is* a behaviour change.  Compared is every
key of every artifact except ``git_sha``; A20 is the wall-clock
experiment and contributes only the seed-determined columns of its
churn shootout.  Floats are compared to nine significant digits
(``sum()`` is compensated from Python 3.12 on, so a mean's last bits
differ between the interpreters CI runs).  Exits non-zero on any
difference, printing each one as ``path: golden -> found``.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).parents[2]
GOLDEN = pathlib.Path(__file__).parent / "golden" / "bench_smoke.json"

#: The virtual columns of A20's churn rows (the rest is wall clock/RSS).
A20_CHURN_KEYS = ("events", "reads", "hit_ratio", "evictions", "materialized")


def _canonical(value):
    """Floats to nine significant digits; NaN/inf to strings."""
    if isinstance(value, float):
        return float(f"{value:.9g}") if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_canonical(item) for item in value]
    return value


def pinned(payload: dict) -> dict:
    """The seed-determined part of one artifact."""
    metrics = payload["metrics"]
    if payload["experiment"] == "A20":
        metrics = {
            "churn": {
                policy: {key: row[key] for key in A20_CHURN_KEYS}
                for policy, row in metrics["churn"].items()
            }
        }
    return _canonical({"seed": payload["seed"], "metrics": metrics})


def load(directory: pathlib.Path) -> dict:
    """``{experiment id: pinned metrics}`` of every artifact in *directory*."""
    found = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        payload = json.loads(path.read_text())
        found[payload["experiment"]] = pinned(payload)
    return found


def differences(golden, found, path: str = "") -> list[str]:
    """Every leaf at which *found* departs from *golden*, as text."""
    if isinstance(golden, dict) and isinstance(found, dict):
        return [
            line
            for key in sorted(golden.keys() | found.keys())
            for line in differences(
                golden.get(key, "<absent>"),
                found.get(key, "<absent>"),
                f"{path}.{key}" if path else key,
            )
        ]
    if isinstance(golden, list) and isinstance(found, list):
        if len(golden) != len(found):
            return [f"{path}: {len(golden)} rows -> {len(found)} rows"]
        return [
            line
            for index, (a, b) in enumerate(zip(golden, found))
            for line in differences(a, b, f"{path}[{index}]")
        ]
    return [] if golden == found else [f"{path}: {golden!r} -> {found!r}"]


def compare(directory: pathlib.Path, only: tuple[str, ...] = ()) -> list[str]:
    """Differences between *directory*'s artifacts and the golden file
    (restricted to the experiment ids in *only* when given)."""
    golden = json.loads(GOLDEN.read_text())
    found = load(directory)
    if only:
        golden = {key: golden[key] for key in only}
        found = {key: value for key, value in found.items() if key in only}
    return differences(golden, found)


def main(argv: list[str]) -> int:
    if argv == ["--update"]:
        found = load(ROOT)
        GOLDEN.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")
        print(f"pinned {len(found)} artifacts in {GOLDEN.name}")
        return 0
    lines = compare(pathlib.Path(argv[0]) if argv else ROOT)
    print("\n".join(lines) or "BENCH_*.json match the golden metrics")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
