"""One committed JSON snapshot per subject, compared key by key.

Not a collected test: the helper the pinning tests compare through, and
the one entry point that checks or re-pins a snapshot.

    PYTHONPATH=src python -m tests.integration.snapshot [--update] \\
        [bench|counts|equivalence]

The subjects, each a file under ``golden/``:

* ``bench`` (``bench_smoke.json``) — the seed-determined part
  (``bench_golden.pinned``) of every ``BENCH_*.json`` at the repo root:
  run ``python -m repro bench all --smoke`` first;
* ``counts`` (``counts.json``) — what ``counts.py`` measures, in a
  section per CPython minor version;
* ``equivalence`` (``equivalence.json``) — the five seeded
  ``run_seeded_workload`` snapshots of
  ``tests/property/test_pipeline_equivalence.py``, in full.

Without a subject, all three.  Every comparison is exact: more is a
difference and so is fewer, printed as ``path: golden -> found``, and
the exit status is 1.  ``--update`` writes what is measured now, so a
meant change lands in ``git log -p tests/integration/golden/``.
"""

from __future__ import annotations

import json
import pathlib
import sys

from tests.integration import counts
from tests.integration.bench_golden import pinned

ROOT = pathlib.Path(__file__).parents[2]
GOLDEN = pathlib.Path(__file__).parent / "golden"


def load(name: str) -> dict:
    """The committed snapshot ``golden/<name>.json``."""
    return json.loads((GOLDEN / f"{name}.json").read_text())


def write(name: str, data: dict) -> None:
    (GOLDEN / f"{name}.json").write_text(
        json.dumps(data, indent=1, sort_keys=True) + "\n"
    )


def plain(value):
    """*value* as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


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


# -- subjects -----------------------------------------------------------------


def artifacts(directory: pathlib.Path = ROOT) -> dict:
    """``{experiment id: pinned metrics}`` of the artifacts in *directory*."""
    return {
        payload["experiment"]: pinned(payload)
        for payload in (
            json.loads(path.read_text())
            for path in sorted(directory.glob("BENCH_*.json"))
        )
    }


def equivalence_runs() -> dict:
    """The five seeded runs ``equivalence.json`` pins, as JSON reads them."""
    from tests.property.test_pipeline_equivalence import (
        _CONFIGS,
        run_seeded_workload,
    )

    return {
        name: plain(run_seeded_workload(**config))
        for name, config in _CONFIGS.items()
    }


#: Subject -> ``(file under golden/, measure, view, pin)``: *view*
#: gives the parts of the file and of the measurement to compare and the
#: keys left uncompared; *pin* the file ``--update`` writes.
SUBJECTS = {
    "bench": ("bench_smoke", artifacts, None, None),
    "counts": ("counts", counts.measure_all, counts.view, counts.pin),
    "equivalence": ("equivalence", equivalence_runs, None, None),
}


def main(argv: list[str]) -> int:
    update = "--update" in argv
    names = [arg for arg in argv if arg != "--update"] or list(SUBJECTS)
    status = 0
    for name in names:
        file, measure, view, pin = SUBJECTS[name]
        found = measure()
        golden = load(file)
        if update:
            write(file, pin(golden, found) if pin else found)
            print(f"{name}: pinned golden/{file}.json")
            continue
        expected, measured, unmeasured = (
            view(golden, found) if view else (golden, found, []))
        lines = differences(expected, measured)
        print("\n".join(lines) or f"{name}: matches the snapshot")
        if unmeasured:
            print(f"{name}: {len(unmeasured)} keys unmeasured on this "
                  "interpreter, not compared (--update pins them)")
        status |= bool(lines)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
