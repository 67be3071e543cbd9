"""The corpus text generator against the per-word loop it replaced.

:func:`~repro.workload.documents.generate_text` draws its word picks in
bulk from ``random.Random(seed)`` and wraps lines with one search per
line.  The reference here is what it ran before: one ``rng.choice`` and
a little arithmetic per word.  Every golden digest in the repo was cut
from the reference's bytes, so the two must agree on every
``(size_bytes, seed)``.

The bulk draw rests on two facts about CPython's ``random`` that its
documentation does not promise; :class:`TestInterpreterFacts` pins them by
name, so an interpreter that changes either fails there first instead
of silently shifting every corpus.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.workload import documents
from repro.workload.documents import CorpusSpec, _WORDS, generate_text


def reference_generate_text(size_bytes: int, seed: int = 0) -> bytes:
    """The parent implementation, kept verbatim as the oracle."""
    rng = random.Random(seed)
    pieces: list[str] = []
    line_len = 0
    lines_in_paragraph = 0
    total = 0
    while total < size_bytes:
        word = rng.choice(_WORDS)
        if line_len + len(word) + 1 > 72:
            if lines_in_paragraph >= 5:
                separator = "\n\n"
                lines_in_paragraph = 0
            else:
                separator = "\n"
                lines_in_paragraph += 1
            line_len = 0
        elif pieces:
            separator = " "
        else:
            separator = ""
        chunk = separator + word
        line_len += len(chunk)
        pieces.append(chunk)
        total += len(chunk)
    text = "".join(pieces)[:size_bytes]
    return text.encode("ascii")


def catalog_seed(spec_seed: int, index: int) -> int:
    """The per-document seed ``ChurnCatalog.document`` forms."""
    return spec_seed * 100_003 + index


#: 0 and 1; either side of the first line's wrap (73 / 72 / 71 columns);
#: ``CorpusSpec.min_size``; the three Table-1 sizes; ``max_size``.
EDGE_SIZES = (
    0, 1, 70, 71, 72, 73, 74, 75, 128, 1104, 1915, 10_883,
    CorpusSpec.max_size,
)
SEEDS = (0, 1, 2, -1, 2**64 + 5, catalog_seed(42, 0), catalog_seed(61, 199_999))


class TestAgainstTheReference:
    @pytest.mark.parametrize("size", EDGE_SIZES)
    def test_edge_sizes(self, size):
        for seed in SEEDS:
            assert generate_text(size, seed) == reference_generate_text(
                size, seed
            )

    def test_every_size_through_the_first_two_paragraphs(self):
        for seed in SEEDS:
            whole = reference_generate_text(900, seed)
            for size in range(901):
                assert generate_text(size, seed) == whole[:size]

    @settings(max_examples=150, deadline=None)
    @given(
        size=st.integers(min_value=0, max_value=40_000),
        seed=st.integers(),
    )
    def test_arbitrary_size_and_seed(self, size, seed):
        assert generate_text(size, seed) == reference_generate_text(size, seed)

    @settings(max_examples=50, deadline=None)
    @given(
        spec_seed=st.integers(min_value=0, max_value=2**31),
        index=st.integers(min_value=0, max_value=10**6),
        size=st.integers(min_value=128, max_value=4000),
    )
    def test_catalog_seeds(self, spec_seed, index, size):
        seed = catalog_seed(spec_seed, index)
        assert generate_text(size, seed) == reference_generate_text(size, seed)

    def test_either_side_of_every_refill(self, monkeypatch):
        """Sizes at which one more bulk draw is needed, found not assumed.

        Counts ``randbytes`` calls per document and bisects for every
        size in ``[0, max_size]`` where the count steps up, so the test
        follows the implementation's chunking instead of restating it.
        """
        calls = []

        class CountingRandom(random.Random):
            def randbytes(self, n):
                calls.append(n)
                return super().randbytes(n)

        monkeypatch.setattr(documents.random, "Random", CountingRandom)
        seed = catalog_seed(61, 7)

        def draws(size):
            calls.clear()
            generate_text(size, seed)
            return len(calls)

        def steps(low, high):
            if draws(low) == draws(high):
                return
            if high - low == 1:
                yield high
                return
            middle = (low + high) // 2
            yield from steps(low, middle)
            yield from steps(middle, high)

        refills = list(steps(0, CorpusSpec.max_size))
        assert refills, "a 200 000-byte document in one draw: unbounded buffers"
        for size in refills:
            for near in (size - 1, size, size + 1):
                assert generate_text(near, seed) == reference_generate_text(
                    near, seed
                )


class TestInterpreterFacts:
    """What the bulk draw assumes of ``random.Random`` (3.11 and 3.12)."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_randbytes_is_successive_outputs_little_endian(self, seed):
        n = 1000
        rng = random.Random(seed)
        successive = b"".join(
            rng.getrandbits(32).to_bytes(4, "little") for _ in range(n)
        )
        assert random.Random(seed).randbytes(4 * n) == successive
        wide = random.Random(seed).getrandbits(32 * n)
        assert wide.to_bytes(4 * n, "little") == successive

    @pytest.mark.parametrize("seed", SEEDS)
    def test_choice_is_the_top_six_bits_redrawn_past_the_pool(self, seed):
        rng = random.Random(seed)
        chosen = [rng.choice(_WORDS) for _ in range(10_000)]
        outputs = random.Random(seed).randbytes(4 * 16_000)  # ~11 000 picks
        picks = outputs[3::4].translate(documents._PICK, documents._REDRAWN)
        assert [_WORDS[pick] for pick in picks[:10_000]] == chosen
