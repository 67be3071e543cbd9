"""The summarizer against its reference implementation.

:meth:`~repro.properties.summarize.SummaryProperty.summarize_text` cuts
paragraphs one at a time, stops once the summary is full, and matches
sentences with a pattern that never backtracks.  The reference here is
what it ran before: ``split("\\n\\n")`` over the whole text, and every
sentence of every paragraph found with an alternation whose first
branch rescans a paragraph that has no terminator.  The summaries must
agree on every text.
"""

from __future__ import annotations

import re

from hypothesis import given, settings, strategies as st

from repro.properties.summarize import SummaryProperty
from repro.workload.documents import generate_text

_SENTENCE_RE = re.compile(r"[^.!?]*[.!?]+\s*|[^.!?]+$")


class ReferenceSummary:
    """The implementation it replaced, kept verbatim as the oracle."""

    def __init__(self, sentences_per_paragraph, max_sentences):
        self.sentences_per_paragraph = sentences_per_paragraph
        self.max_sentences = max_sentences

    def summarize_text(self, text):
        kept = []
        total = 0
        paragraphs = text.split("\n\n")
        for paragraph in paragraphs:
            if total >= self.max_sentences:
                break
            sentences = [
                s for s in _SENTENCE_RE.findall(paragraph) if s.strip()
            ]
            take = min(
                self.sentences_per_paragraph,
                self.max_sentences - total,
                len(sentences),
            )
            if take > 0:
                kept.append("".join(sentences[:take]).strip())
                total += take
        return "\n\n".join(kept)


#: ``(sentences_per_paragraph, max_sentences)``: the default, a two-a-
#: paragraph summary that fills up mid-text, and a one-sentence one.
SETTINGS = [(1, 10), (2, 5), (1, 1)]

# -- strategies -----------------------------------------------------------------

#: Words, terminators in runs, the whitespace ``\s`` matches beyond
#: ASCII, and the separators that make (empty) paragraphs.
pieces = st.sampled_from(
    [
        "word", "Two words", "x", ".", "!", "?", "...", "?!", ". ", "! ",
        " ", "  ", "\t", "\n", "\n\n", "\n\n\n", "\r\n", "\r\n\r\n",
        "\x85", "\u2028", "\u3000", "\x0b", "\x1c", "\xa0", "3.14", "\xe9.",
    ]
)


@st.composite
def texts(draw):
    text = "".join(draw(st.lists(pieces, max_size=40)))
    return text + draw(st.sampled_from(["", "\n", "\n\n", " ", "."]))


def _assert_same(text):
    for per_paragraph, most in SETTINGS:
        summary = SummaryProperty(per_paragraph, most)
        reference = ReferenceSummary(per_paragraph, most)
        assert summary.summarize_text(text) == reference.summarize_text(text)


class TestAgainstTheReference:
    @given(texts())
    @settings(max_examples=400, deadline=None)
    def test_same_summary(self, text):
        _assert_same(text)

    @given(st.text(alphabet=".!? \n\x85\u2028ab", max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_any_mix_of_terminators_and_whitespace(self, text):
        _assert_same(text)

    def test_the_benchmark_corpus(self):
        # Paragraphs of words with no terminator at all: each is one
        # sentence, the case the reference pattern rescanned.
        for seed in range(12):
            text = generate_text(4_600, seed=seed).decode()
            _assert_same(text)
            _assert_same(text.replace("\n\n", ". \n\n"))

    def test_degenerate_settings_keep_nothing(self):
        for per_paragraph, most in ((0, 10), (1, 0), (-1, 3), (2, -1)):
            summary = SummaryProperty(per_paragraph, most)
            assert summary.summarize_text("One. Two.\n\nThree.") == ""
