"""The corpus generator's paragraph-at-a-time wrap, at its edges.

:func:`~repro.workload.documents.generate_text` cuts each six-line
paragraph with one match, and matches a last paragraph that outruns the
drawn text over that text plus a filler.  The sweeps here put the drawn
text's end in each of a later paragraph's six lines, put *size_bytes* on
paragraph boundaries and run past the first bulk draw, and compare every
size with the per-word oracle of ``test_prop_generate_text``.  Seeds and
sizes are fixed, and each sweep checks that it reached every case it
names, so none can pass by testing nothing.
"""

from __future__ import annotations

import random

import pytest

from repro.workload import documents
from repro.workload.documents import generate_text
from tests.property.test_prop_generate_text import (
    catalog_seed,
    reference_generate_text,
)

SEEDS = (catalog_seed(61, 83), catalog_seed(61, 84))


class MatchLog:
    """A paragraph pattern that records each match it is asked for."""

    def __init__(self, pattern, log: list) -> None:
        self.pattern, self.log = pattern, log

    def match(self, string: str, pos: int):
        found = self.pattern.match(string, pos)
        self.log.append((len(string), pos, found))
        return found


@pytest.fixture
def matches(monkeypatch) -> list:
    log: list = []
    for name in ("_FIRST", "_LATER"):
        pattern = getattr(documents, name)
        monkeypatch.setattr(documents, name, MatchLog(pattern, log))
    return log


def drawn_text_end(log: list) -> tuple[int, int, bool] | None:
    """``(paragraph, line, filled)``, 1-based, of the line laid over the
    drawn text's last space, and whether the filler was needed to lay
    it; ``None`` when the drawn text runs past every paragraph laid."""
    drawn = log[0][0]  # the first match is over the drawn text alone
    paragraph = 0
    for length, start, found in log:
        if found is None:
            continue
        paragraph += 1
        for line, content in enumerate(found.groups(), 1):
            start += len(content) + 1
            if start >= drawn:
                return paragraph, line, length > drawn
    return None


def test_the_drawn_text_ends_in_every_line_of_a_later_paragraph(
    matches, monkeypatch
):
    # Short bulk draws leave a short overrun, so the drawn text can end
    # anywhere in the third paragraph or a later one.  Batch size is not
    # part of the draw-order contract: the bytes must not move.
    monkeypatch.setattr(documents, "_MAX_DRAWS", 16)
    reached: set[tuple[int, bool]] = set()
    for seed in SEEDS:
        whole = reference_generate_text(1800, seed)
        for size in range(850, 1800, 2):
            matches.clear()
            assert generate_text(size, seed) == whole[:size]
            end = drawn_text_end(matches)
            if end is not None and end[0] >= 3:
                reached.add(end[1:])
    # Lines 1-5 run out of drawn text inside the paragraph (the filler
    # completes it); a sixth line can end exactly at the drawn text's
    # last space and so needs none.
    assert reached == {(line, True) for line in range(1, 6)} | {(6, False)}


def test_sizes_on_paragraph_boundaries():
    for seed in SEEDS:
        whole = reference_generate_text(3000, seed)
        boundaries = [
            index for index in range(len(whole))
            if whole.startswith(b"\n\n", index)
        ]
        assert len(boundaries) >= 6
        for boundary in boundaries:
            for size in range(boundary - 1, boundary + 4):
                assert generate_text(size, seed) == whole[:size]


def test_a_size_past_the_first_bulk_draw(monkeypatch):
    seed = SEEDS[0]
    picks = random.Random(seed).randbytes(4 * documents._MAX_DRAWS)[3::4]
    first_draw = len("".join(
        documents._SPACED[pick]
        for pick in picks.translate(documents._PICK, documents._REDRAWN)
    ))
    whole = reference_generate_text(first_draw + 1, seed)
    calls = []

    class CountingRandom(random.Random):
        def randbytes(self, n):
            calls.append(n)
            return super().randbytes(n)

    monkeypatch.setattr(documents.random, "Random", CountingRandom)
    for size in (first_draw - 1, first_draw, first_draw + 1):
        calls.clear()
        assert generate_text(size, seed) == whole[:size]
        # The drawn text must outrun *size*: a second draw when the
        # first one's text does not.
        assert len(calls) == (1 if size < first_draw else 2)
