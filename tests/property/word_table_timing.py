"""Time the word table against its reference, input kind by input kind.

Not a test (nothing here asserts a wall-clock number): the script that
produces the micro-table quoted in CHANGES.md and DESIGN §3.8, kept
beside the oracle it measures against so the table can be re-measured.

    PYTHONPATH=src python -m tests.property.word_table_timing

Prints µs per document for the reference (one ``[A-Za-z]+`` regex pass
with a Python callback per word) and for ``WordTable.substitute``, both
default tables, interleaved and best-of-N because a shared box drifts.
Every row's outputs are first checked equal.
"""

from __future__ import annotations

import pathlib
import random
import time

from repro.properties.spellcheck import DEFAULT_CORRECTIONS
from repro.properties.translate import ENGLISH_TO_FRENCH
from repro.streams.transforms import WordTable
from repro.workload.documents import generate_text
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


def one_pass(substitute, documents) -> float:
    started = time.perf_counter()
    for document in documents:
        substitute(document)
    return (time.perf_counter() - started) / len(documents) * 1e6


def main() -> None:
    print(f"{'input':38s}{'table':>8s}{'reference':>11s}{'word table':>12s}")
    for label, make in ROWS.items():
        documents = [make() for _ in range(DOCUMENTS)]
        for name, table in (
            ("spell", DEFAULT_CORRECTIONS),
            ("french", ENGLISH_TO_FRENCH),
        ):
            reference = ReferenceSubstitution(table).substitute
            words = WordTable.of(table).substitute
            for document in documents:
                assert words(document) == reference(document)
            best_reference = best_words = float("inf")
            for _ in range(REPETITIONS):
                best_reference = min(best_reference, one_pass(reference, documents))
                best_words = min(best_words, one_pass(words, documents))
            print(
                f"{label:38s}{name:>8s}{best_reference:9.1f} µs"
                f"{best_words:9.1f} µs  ({best_words / best_reference:4.2f}×)"
            )


if __name__ == "__main__":
    main()
