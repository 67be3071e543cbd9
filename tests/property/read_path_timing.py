"""Time the read path's transforms and hit steps against their references.

Not a test (nothing here asserts a wall-clock number): the script that
produces the micro-tables quoted in CHANGES.md and DESIGN §3.7–3.8, kept
beside the oracles it measures against so the tables can be re-measured.

    PYTHONPATH=src python -m tests.property.read_path_timing

Prints µs per document, input kind by input kind: for the word table,
the reference (one ``[A-Za-z]+`` regex pass with a Python callback per
word) against ``WordTable.substitute``, both default tables; for the
summarizer, the reference (a ``split`` of the whole text and an
alternation that rescans a paragraph without a terminator) against
``SummaryProperty.summarize_text``, at the default settings and at two
sentences a paragraph.  Then µs per hit step: each heap policy's
``on_access`` on a resident set, the push-per-touch reference against
the lazy re-rank, and the filer's mtime probe, a lookup after
``_normalize`` against ``SimulatedFileSystem.mtime_ms``.  Interleaved
and best-of-N because a shared box drifts; every row's outputs are
first checked equal (for a policy, the victim order the touches leave).
"""

from __future__ import annotations

import pathlib
import random
import time

from repro.cache.replacement import make_policy
from repro.errors import ContentUnavailableError
from repro.properties.spellcheck import DEFAULT_CORRECTIONS
from repro.properties.summarize import SummaryProperty
from repro.properties.translate import ENGLISH_TO_FRENCH
from repro.providers.simfs import SimulatedFileSystem, _normalize
from repro.sim.clock import VirtualClock
from repro.streams.transforms import WordTable
from repro.workload.documents import generate_text
from tests.property.test_prop_replacement import (
    HEAP_POLICIES,
    make_entry,
    reference_policy,
)
from tests.property.test_prop_summarize import ReferenceSummary
from tests.property.test_prop_word_table import ReferenceSubstitution

TOKENS = 700
DOCUMENTS = 40
REPETITIONS = 25

rng = random.Random(5)
README = (pathlib.Path(__file__).parents[2] / "README.md").read_text()


def fresh_word() -> str:
    return "".join(
        rng.choice("abcdefghijklmnopqrstuvwxyz")
        for _ in range(rng.randint(3, 9))
    )


def readme_slice() -> str:
    start = rng.randrange(len(README) - 4600)
    return README[start : start + 4600]


ROWS = {
    "benchmark corpus (44-word pool)": lambda: generate_text(
        4600, seed=rng.randrange(10**6)
    ).decode(),
    "this repo's README (4.6 KB slices)": readme_slice,
    "never-repeating words": lambda: " ".join(
        fresh_word() for _ in range(TOKENS)
    ),
    "every word followed by punctuation": lambda: " ".join(
        fresh_word() + rng.choice(",.;:!?") for _ in range(TOKENS)
    ),
    "every word a Capitalised table word": lambda: " ".join(
        rng.choice(("Teh", "The", "A", "OF", "Recieve"))
        for _ in range(TOKENS)
    ),
    "a column of six-digit numbers": lambda: "\n".join(
        str(rng.randrange(10**6)) for _ in range(TOKENS)
    ),
    "a column of single digits": lambda: "\n".join(
        str(rng.randrange(10)) for _ in range(TOKENS)
    ),
    "non-ASCII words (é, ü, 文)": lambda: " ".join(
        rng.choice(("été", "über", "文档", "teh", "naïve"))
        for _ in range(TOKENS)
    ),
}


#: Summarizer inputs: the corpus (no terminator anywhere, so each
#: paragraph is one sentence), prose, and one long paragraph.
SUMMARY_ROWS = {
    "benchmark corpus (44-word pool)": ROWS["benchmark corpus (44-word pool)"],
    "this repo's README (4.6 KB slices)": readme_slice,
    "one paragraph, sentences of 12 words": lambda: " ".join(
        " ".join(fresh_word() for _ in range(11)) + " " + fresh_word() + "."
        for _ in range(60)
    ),
}


def one_pass(transform, documents) -> float:
    started = time.perf_counter()
    for document in documents:
        transform(document)
    return (time.perf_counter() - started) / len(documents) * 1e6


def best_of(reference, candidate, documents) -> tuple[float, float]:
    """Best µs per document of each, the two passes interleaved."""
    for document in documents:
        assert candidate(document) == reference(document)
    best_reference = best_candidate = float("inf")
    for _ in range(REPETITIONS):
        best_reference = min(best_reference, one_pass(reference, documents))
        best_candidate = min(best_candidate, one_pass(candidate, documents))
    return best_reference, best_candidate


def row(label: str, setting: str, reference: float, candidate: float) -> None:
    print(
        f"{label:38s}{setting:>8s}{reference:9.1f} µs"
        f"{candidate:9.1f} µs  ({candidate / reference:4.2f}×)"
    )


#: Resident-set sizes for the ``on_access`` rows: the ``hot_hits`` set,
#: and one whose heap is deep enough that a push costs its log.
RESIDENT_SETS = (256, 20_000)
#: Touches per timed pass, Zipf-like over the resident set.
TOUCHES = 20_000
HIT_REPETITIONS = 5


def touch_order(n_entries: int) -> list[int]:
    """Entry indices to touch: 1/rank weights, so a few entries are hot."""
    weights = [1.0 / (rank + 1) for rank in range(n_entries)]
    return rng.choices(range(n_entries), weights, k=TOUCHES)


def touch_pass(policy, entries, order) -> float:
    """µs per ``on_access`` over *order*."""
    on_access = policy.on_access
    started = time.perf_counter()
    for index in order:
        on_access(entries[index])
    return (time.perf_counter() - started) / len(order) * 1e6


def victim_order(policy, entries) -> list:
    table = {entry.key: entry for entry in entries}
    victims = []
    while table:
        victims.append(policy.select_victim(table))
        policy.on_remove(table.pop(victims[-1]))
    return victims


def on_access_row(name: str, n_entries: int) -> tuple[float, float]:
    """Best µs per touch of the reference and of the lazy re-rank."""
    entries = [
        make_entry(f"doc-{i}", 512 + i % 4096, 1.0 + i % 13)
        for i in range(n_entries)
    ]
    eager, lazy = reference_policy(name), make_policy(name)
    for policy in (eager, lazy):
        for entry in entries:
            policy.on_insert(entry)
    order = touch_order(n_entries)
    best_reference = best_candidate = float("inf")
    for _ in range(HIT_REPETITIONS):
        best_reference = min(best_reference, touch_pass(eager, entries, order))
        best_candidate = min(best_candidate, touch_pass(lazy, entries, order))
    assert victim_order(lazy, entries) == victim_order(eager, entries)
    return best_reference, best_candidate


def reference_mtime_ms(filesystem: SimulatedFileSystem, path: str) -> float:
    """The probe as it was: every lookup normalized first."""
    path = _normalize(path)
    try:
        return filesystem._files[path].mtime_ms
    except KeyError:
        raise ContentUnavailableError(f"no such file: {path}") from None


def mtime_probe_row() -> tuple[float, float]:
    filesystem = SimulatedFileSystem(VirtualClock())
    paths = [f"/corpus/dir-{i % 16}/doc-{i:05d}.txt" for i in range(2_000)]
    for path in paths:
        filesystem.write(path, b"x")
    return best_of(
        lambda path: reference_mtime_ms(filesystem, path),
        filesystem.mtime_ms,
        [rng.choice(paths) for _ in range(TOUCHES)],
    )


def main() -> None:
    print(f"{'input':38s}{'table':>8s}{'reference':>11s}{'word table':>12s}")
    for label, make in ROWS.items():
        documents = [make() for _ in range(DOCUMENTS)]
        for name, table in (
            ("spell", DEFAULT_CORRECTIONS),
            ("french", ENGLISH_TO_FRENCH),
        ):
            row(label, name, *best_of(
                ReferenceSubstitution(table).substitute,
                WordTable.of(table).substitute,
                documents,
            ))
    print()
    print(f"{'input':38s}{'setting':>8s}{'reference':>11s}{'summarizer':>12s}")
    for label, make in SUMMARY_ROWS.items():
        documents = [make() for _ in range(DOCUMENTS)]
        for setting in ((1, 10), (2, 5)):
            row(label, "%d/%d" % setting, *best_of(
                ReferenceSummary(*setting).summarize_text,
                SummaryProperty(*setting).summarize_text,
                documents,
            ))
    print()
    print(f"{'hit step':38s}{'entries':>8s}{'reference':>11s}{'lazy':>12s}")
    for n_entries in RESIDENT_SETS:
        for name in HEAP_POLICIES:
            row(f"on_access {name}", str(n_entries),
                *on_access_row(name, n_entries))
    row("mtime probe (canonical path)", "2000", *mtime_probe_row())


if __name__ == "__main__":
    main()
