"""The package graph is a DAG: one list states the order, every import obeys it.

Every ``import`` statement under ``src/repro/`` — module-level,
function-level and ``TYPE_CHECKING`` alike — either stays inside its
package or goes *down* :data:`LAYERS`.  ``python -m
tests.unit.test_layers`` prints the package graph as it stands.  The
source also stays under a line ceiling, so it cannot creep back.
"""

from __future__ import annotations

import ast
import collections
import pathlib
import subprocess
import sys

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent

#: THE order, bottom to top.  Packages on one line may not import each
#: other; an import goes down the list or stays in its package.
LAYERS = [
    ("errors", "ids"),
    ("sim",),
    ("faults",),
    ("content", "streams", "events"),
    ("contract",),
    ("providers",),
    ("placeless",),
    ("properties",),
    ("overload",),
    ("cache",),
    ("storage", "cluster", "nfs"),
    ("workload",),
    ("bench",),
    # The root package's name table reaches everything, so only an
    # entry point (any ``__main__.py``) may import it.
    ("repro",),
    ("__main__",),
]
RANK = {package: rank for rank, row in enumerate(LAYERS) for package in row}

#: The one run-time upward edge: the wiring sequence builds the tier a
#: ``storage_policy`` asks for, and names its types for the accessors.
RUNTIME_UPWARD = {("repro.cache.manager", "storage")}

#: ``TYPE_CHECKING``-only upward edges, each with the reason it stays.
#: Growing this list is a design decision, not a way past the test.
ANNOTATION_ONLY_UPWARD = {
    ("repro.sim.context", "faults"):
        "SimContext carries the world's FaultPlan in a typed slot",
    ("repro.sim.context", "cache"):
        "SimContext carries the world's ContainmentGuard in a typed slot",
    ("repro.cache.core", "storage"):
        "core.l2 is a typed slot for the tier the manager installs",
}


def _layer_of(module: str) -> str:
    parts = module.split(".")
    if parts[-1] == "__main__":
        return "__main__"
    return parts[1] if len(parts) > 1 else "repro"


def _imports(path: pathlib.Path, module: str):
    """``(line, imported module, under TYPE_CHECKING)`` per import."""
    tree = ast.parse(path.read_text())
    guarded = {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If) and "TYPE_CHECKING" in ast.unparse(block.test)
        for statement in block.body
        for node in ast.walk(statement)
    }
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            # ``from repro.cache import manager`` names a module too.
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            if target == "repro" or target.startswith("repro."):
                yield node.lineno, target, id(node) in guarded


def edges():
    """Every cross-package import: ``(file, line, importer, imported,
    importer layer, imported layer, annotation-only)``."""
    known = {
        ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        .removesuffix(".__init__"): path
        for path in sorted(SRC.rglob("*.py"))
    }
    for module, path in known.items():
        for line, target, guarded in _imports(path, module):
            if target not in known:
                continue  # ``from package.module import name``: a name
            source_layer, target_layer = _layer_of(module), _layer_of(target)
            if source_layer != target_layer:
                yield (
                    path.relative_to(SRC.parent.parent), line, module,
                    target, source_layer, target_layer, guarded,
                )


def violations() -> list[str]:
    found = []
    for path, line, module, target, source, dest, guarded in edges():
        if RANK[dest] < RANK[source]:
            continue
        if guarded and (module, dest) in ANNOTATION_ONLY_UPWARD:
            continue
        if (module, dest) in RUNTIME_UPWARD:
            continue
        kind = "TYPE_CHECKING" if guarded else "run-time"
        found.append(f"{path}:{line}  {module} → {target}  ({kind})")
    return found


class TestLayers:
    def test_every_package_has_a_layer(self):
        packages = {
            path.stem if path.is_file() else path.name
            for path in SRC.iterdir()
            if (path.is_dir() and (path / "__init__.py").exists())
            or (path.suffix == ".py" and path.stem != "__init__")
        }
        assert packages | {"repro"} == set(RANK)

    def test_every_import_goes_down_the_list(self):
        found = violations()
        assert not found, "upward imports:\n" + "\n".join(found)

    def test_the_allow_lists_name_only_live_edges(self):
        live = {
            (module, dest)
            for _, _, module, _, source, dest, _ in edges()
            if RANK[dest] >= RANK[source]
        }
        assert set(ANNOTATION_ONLY_UPWARD) | RUNTIME_UPWARD == live
        assert len(ANNOTATION_ONLY_UPWARD) <= 3
        assert all(ANNOTATION_ONLY_UPWARD.values())

    def test_the_middleware_does_not_name_the_cache(self):
        below = {"contract", "providers", "placeless", "properties"}
        named = [
            f"{path}:{line}  {module} → {target}"
            for path, line, module, target, source, dest, _ in edges()
            if source in below and RANK[dest] >= RANK["overload"]
        ]
        assert not named, "\n".join(named)

    def test_no_cycle_guard_is_left(self):
        hits = [
            str(path.relative_to(SRC))
            for path in SRC.rglob("*.py")
            if "import cycle guard" in path.read_text()
        ]
        assert hits == []


def _fresh(code: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=30,
        env={"PYTHONPATH": str(SRC.parent)},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


#: What the middleware must not drag in.
ABOVE_THE_MIDDLEWARE = (
    "cache", "storage", "cluster", "overload", "nfs", "workload", "bench",
)


def loaded_above_the_middleware(statement: str) -> list[str]:
    """The modules of :data:`ABOVE_THE_MIDDLEWARE` that *statement*
    leaves in a fresh interpreter's ``sys.modules``."""
    prefixes = tuple(f"repro.{package}" for package in ABOVE_THE_MIDDLEWARE)
    return _fresh(
        f"{statement}\nimport sys\n"
        f"print(*(m for m in sys.modules if m.startswith({prefixes!r})))"
    ).split()


class TestFreshInterpreter:
    """The layering is true of a running interpreter, not only of the
    source text (``import repro`` alone: ``TestTopLevelApi``)."""

    def test_each_package_imports_first_and_alone(self):
        for path in sorted(SRC.iterdir()):
            if (path / "__init__.py").exists():
                _fresh(f"import repro.{path.name}")

    def test_the_middleware_loads_nothing_above_it(self):
        assert loaded_above_the_middleware(
            "import repro.placeless.kernel, repro.providers, repro.properties"
        ) == []


#: Lines of Python under ``src/repro`` and in ``cache/manager.py``, as
#: they stand.  A ceiling, not a target: deleting code lowers the count
#: and the next change may lower the ceiling to match.
SRC_LINE_CEILING = 23_997
MANAGER_LINE_CEILING = 651


def _line_count(path: pathlib.Path) -> int:
    return len(path.read_text().splitlines())


def test_src_stays_under_its_line_ceiling():
    why = (
        "raise the ceiling only in a change whose CHANGES.md entry says "
        "why the new lines are worth it"
    )
    total = sum(_line_count(path) for path in SRC.rglob("*.py"))
    assert total <= SRC_LINE_CEILING, (
        f"src/repro has {total} lines, ceiling {SRC_LINE_CEILING}: {why}"
    )
    manager = _line_count(SRC / "cache" / "manager.py")
    assert manager <= MANAGER_LINE_CEILING, (
        f"cache/manager.py has {manager} lines, ceiling "
        f"{MANAGER_LINE_CEILING}: {why}"
    )


def main() -> int:
    graph = collections.defaultdict(collections.Counter)
    for _, _, _, _, source, dest, guarded in edges():
        graph[source][dest + ("*" if guarded else "")] += 1
    for row in LAYERS:
        for package in row:
            targets = ", ".join(
                f"{name}×{count}" for name, count in sorted(graph[package].items())
            )
            print(f"{RANK[package]:2d} {package:11s} → {targets or '-'}")
    print("(* = under TYPE_CHECKING)")
    found = violations()
    print("\n".join(found) if found else "no upward imports")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
