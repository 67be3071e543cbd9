"""The production-traffic census against ``golden/unreached.txt``.

Not a collected test: the script CI's ``census`` job runs (about a
minute and a half on two cores, two runs at a time;
``tests/unit/test_census_ledger.py`` checks the ledger's form in
tier-1).

    PYTHONPATH=src python -m tests.integration.census
    PYTHONPATH=src python -m tests.integration.census --update

Production traffic is the runs below: ``doctor``, ``demo``, every
example, ``bench all --smoke`` bare and under each ``--faults``
scenario, and each perfbench workload (plus ``probes``) for one smoke
second.  Each runs in a fresh interpreter with a profile hook that
notes every function of ``src/repro`` entered, as ``(file,
co_qualname)``.  Every ``def`` under ``src/repro`` that no run enters
must be on the ledger with its reason, and every ledger line must name a
function that exists and is still unreached: the ledger only shrinks.
``--update`` rewrites it, keeping each kept line's reason and marking a
new one ``TODO:`` (which the tier-1 check rejects until it is given a
tag).  Exits non-zero on any difference, printing each one.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = pathlib.Path(__file__).parents[2]
SRC = ROOT / "src"
LEDGER = pathlib.Path(__file__).parent / "golden" / "unreached.txt"

#: What each reason may start with, and what it means.
TAGS = {
    "safety": "code the simplicity guide keeps (durability, recovery)",
    "arm": "waits on the named ROADMAP item's experiment arm",
    "paper": "paper API that no production run drives",
    "accessor": "read by tests to check other behaviour",
    "protocol": "dunders, context managers and abstract stubs",
    "error-path": "an error branch the smoke runs never take",
}

FAULTS = ("standard", "partition", "crash", "diskchaos", "grayshard")
WORKLOADS = ("hot_hits", "miss_chain", "churn_mixed", "seams_on", "probes")

#: Runs in a child interpreter: trace ``sys.argv[2:]`` and append every
#: ``src/repro`` function it entered to the file ``sys.argv[1]``.
PROBE = """\
import atexit, runpy, sys, threading
out, args = sys.argv[1], sys.argv[2:]
marker = "/src/repro/"
seen = set()
def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if marker in code.co_filename:
            seen.add((code.co_filename, code.co_qualname))
def dump():
    with open(out, "a", encoding="utf-8") as handle:
        handle.writelines(
            f"{name.split(marker, 1)[1]}:{qualname}\\n"
            for name, qualname in sorted(seen))
atexit.register(dump)
threading.setprofile(hook)
sys.setprofile(hook)
if args[0] == "-m":
    sys.argv = args[1:]
    runpy.run_module(args[1], run_name="__main__", alter_sys=True)
else:
    sys.argv = args
    runpy.run_path(args[0], run_name="__main__")
"""


def runs() -> list[list[str]]:
    """Every production run, as the arguments after ``python``."""
    smoke = ["--seconds", "1", "--smoke"]
    return [
        ["-m", "repro", "doctor"],
        ["-m", "repro", "demo"],
        *([str(path)] for path in sorted((ROOT / "examples").glob("*.py"))),
        ["-m", "repro", "bench", "all", "--smoke"],
        *(["-m", "repro", "bench", "all", "--smoke", "--faults", fault]
          for fault in FAULTS),
        *(["-m", "perfbench", "--workload", workload, *smoke]
          for workload in WORKLOADS),
    ]


def _run(args: list[str], out: pathlib.Path) -> str | None:
    """One traced run in a scratch directory; its failure, if any.

    Git finds no checkout above the source, so the bench writes its
    ``BENCH_*.json`` into the scratch directory, not the repo root.
    """
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{ROOT}",
               PYTHONHASHSEED="0", GIT_CEILING_DIRECTORIES=str(ROOT))
    with tempfile.TemporaryDirectory(prefix="census-") as cwd:
        done = subprocess.run(
            [sys.executable, "-c", PROBE, str(out), *args],
            cwd=cwd, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
    if done.returncode != 0:
        return f"{' '.join(args)} exited {done.returncode}:\n{done.stderr}"
    return None


def reached() -> set[str]:
    """``path:qualname`` of every function some production run enters."""
    commands = runs()
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        outs = [pathlib.Path(scratch) / f"{n}.txt" for n in range(len(commands))]
        with ThreadPoolExecutor(max_workers=2) as pool:
            failures = [
                failure
                for failure in pool.map(_run, commands, outs)
                if failure is not None
            ]
        if failures:
            sys.exit("census: a production run failed\n" + "\n".join(failures))
        return {
            f"src/repro/{line}"
            for out in outs
            for line in out.read_text(encoding="utf-8").splitlines()
        }


def defined() -> set[str]:
    """``path:qualname`` of every ``def`` under ``src/repro``, by AST."""
    found: set[str] = set()

    def walk(body, prefix: str, path: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add(f"{path}:{prefix}{node.name}")
                walk(node.body, f"{prefix}{node.name}.<locals>.", path)
            elif isinstance(node, ast.ClassDef):
                walk(node.body, f"{prefix}{node.name}.", path)
            else:
                # ``if``/``try``/``with`` blocks hold defs at this level.
                for field in ("body", "orelse", "finalbody", "handlers"):
                    walk(getattr(node, field, []), prefix, path)

    for file in sorted((SRC / "repro").rglob("*.py")):
        path = file.relative_to(ROOT).as_posix()
        walk(ast.parse(file.read_text(encoding="utf-8")).body, "", path)
    return found


def read_ledger() -> dict[str, str]:
    """``{path:qualname: reason}`` of every ledger line."""
    return dict(
        line.split("  ", 1)
        for line in LEDGER.read_text(encoding="utf-8").splitlines()
    )


def differences(unreached: set[str], ledger: dict[str, str],
                existing: set[str]) -> list[str]:
    """Every way the census departs from the ledger, as text."""
    return [
        *(f"unreached, not on the ledger: {key}"
          for key in sorted(unreached - ledger.keys())),
        *(f"on the ledger, no longer defined: {key}"
          for key in sorted(ledger.keys() - existing)),
        *(f"on the ledger, now reached: {key}"
          for key in sorted((ledger.keys() & existing) - unreached)),
    ]


def main(argv: list[str]) -> int:
    existing = defined()
    unreached = existing - reached()
    ledger = read_ledger() if LEDGER.exists() else {}
    if "--update" in argv:
        LEDGER.write_text("".join(
            f"{key}  {ledger.get(key, 'TODO: give this a tag and a reason')}\n"
            for key in sorted(unreached)
        ), encoding="utf-8")
        print(f"census: wrote {len(unreached)} unreached functions to {LEDGER}")
        return 0
    found = differences(unreached, ledger, existing)
    for line in found:
        print(line)
    print(f"census: {len(unreached)} of {len(existing)} functions unreached, "
          f"{len(found)} differences from the ledger")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
