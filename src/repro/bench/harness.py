"""The one reporting path every experiment runs through.

An experiment declares its result as a dataclass, once.  From that one
declaration this module derives both things a run leaves behind:

* the **printed table** (:func:`table`), from a column list in which
  header and cell are the same item — ``("execs/key",
  "chain_executions_per_key")`` names an attribute, a callable (see
  :func:`fmt`) formats one;
* the **artifact row** (:func:`record`): ``dataclasses.asdict`` plus the
  class's public properties, written by :func:`write_artifact` as
  ``BENCH_<ID>.json``.

So a field added to a result class reaches the artifact without being
restated, and a column is one line.  :func:`mean`, :func:`percentile`
and :func:`format_table` are the statistics and the plain-text layout
underneath; :func:`corpus_world` and :func:`shared_chain_world` build
the two worlds most experiments start from.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import subprocess
from typing import Any, Callable, Iterable, Sequence

from repro.placeless.kernel import PlacelessKernel
from repro.properties.translate import TranslationProperty
from repro.workload.documents import CorpusSpec, build_corpus
from repro.workload.users import build_population

__all__ = [
    "format_table",
    "table",
    "fmt",
    "record",
    "mean",
    "percentile",
    "write_artifact",
    "corpus_world",
    "shared_chain_world",
]

#: One table column: the header, and the cell — an attribute name of the
#: result record, or a callable taking the record.
Column = tuple[str, "str | Callable[[Any], object]"]


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for an empty iterable."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def percentile(values: Iterable[float], p: float) -> float:
    """The *p*-th percentile (0–100), nearest-rank; 0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if not 0 <= p <= 100:
        raise ValueError(f"percentile out of range: {p}")
    rank = max(0, min(len(ordered) - 1, round(p / 100 * (len(ordered) - 1))))
    return ordered[rank]


def fmt(name: str, spec: str) -> Callable[[Any], str]:
    """A cell rendering attribute *name* with format *spec* (``-`` for None)."""

    def cell(result: Any) -> str:
        value = getattr(result, name)
        return "-" if value is None else format(value, spec)

    return cell


def table(
    results: Iterable[Any],
    columns: Sequence[Column],
    title: str | None = None,
) -> str:
    """Render result records as the experiment's printed table."""
    return format_table(
        [header for header, _ in columns],
        [
            [
                cell(result) if callable(cell) else getattr(result, cell)
                for _, cell in columns
            ]
            for result in results
        ],
        title=title,
    )


def record(result: Any) -> dict[str, Any]:
    """The artifact row of one result: its fields + public properties."""
    row = dataclasses.asdict(result)
    for name, member in vars(type(result)).items():
        if isinstance(member, property) and not name.startswith("_"):
            row[name] = getattr(result, name)
    return row


def corpus_world(n_documents: int, seed: int, ttl_ms: float = 3_600_000.0):
    """A fresh kernel, its ``owner`` and that owner's seeded corpus.

    The default TTL is generous so an experiment measures its own
    mechanism, not TTL expiry.
    """
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    corpus = build_corpus(
        kernel,
        owner,
        CorpusSpec(n_documents=n_documents, ttl_ms=ttl_ms, seed=seed),
    )
    return kernel, owner, corpus


def shared_chain_world(
    n_documents: int,
    n_users: int,
    seed: int,
    personalized_fraction: float = 0.0,
):
    """A corpus whose every base document carries one translation chain,
    referenced by *n_users* users: kernel, corpus and population.

    All users' reads of a document then share one (source signature,
    chain fingerprint) pair — the workload §3 describes ("all the
    transformations requested by the users are the same") and the best
    case for the memo, single-flight and cluster planes alike.
    """
    kernel, _, corpus = corpus_world(n_documents, seed)
    for document in corpus:
        document.reference.base.attach(TranslationProperty())
    population = build_population(
        kernel, corpus, n_users,
        personalized_fraction=personalized_fraction, seed=seed,
    )
    return kernel, corpus, population


def _git(*argv: str) -> str | None:
    """One git query against the repo this package runs from, or None."""
    try:
        result = subprocess.run(
            ("git", *argv),
            capture_output=True, text=True, timeout=10,
            cwd=pathlib.Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def write_artifact(
    experiment_id: str,
    metrics: dict[str, Any],
    seed: int | None = None,
) -> pathlib.Path:
    """Write ``BENCH_<ID>.json`` at the repo root and return its path.

    The one shared exit point for machine-readable bench results: every
    ``python -m repro bench <id>`` run records its metrics, the seed it
    ran under, and the git commit it ran at, so CI jobs and
    perf-regression diffs consume the same schema for every experiment.
    Result records anywhere inside *metrics* are written as their
    :func:`record`.  Falls back to the working directory when the
    package is not inside a git checkout (e.g. an installed wheel).
    """
    root = _git("rev-parse", "--show-toplevel")
    directory = pathlib.Path(root) if root else pathlib.Path.cwd()
    path = directory / f"BENCH_{experiment_id.upper()}.json"
    payload = {
        "experiment": experiment_id.upper(),
        "seed": seed,
        "git_sha": _git("rev-parse", "HEAD"),
        "metrics": metrics,
    }
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=record) + "\n"
    )
    print(f"wrote {path.name}")
    return path


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Plain-text aligned table, the way the paper prints Table 1.

    Numbers are rendered with sensible precision; everything else with
    ``str``.
    """
    def render(cell: object) -> str:
        if isinstance(cell, bool):
            return "yes" if cell else "no"
        if isinstance(cell, float):
            return f"{cell:.2f}"
        return str(cell)

    rendered = [[render(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rendered))
        if rendered
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)
