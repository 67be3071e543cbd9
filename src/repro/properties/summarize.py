"""The summary property.

"a summary property may return a condensed version of the document
instead of its original in full length" (§1).  The summariser is
extractive and deterministic: it keeps the first *sentences_per_paragraph*
sentences of each paragraph, capped at *max_sentences* overall — enough to
exercise a transform that changes the content *size*, which matters to
size-aware replacement policies (Greedy-Dual-Size divides by size).
"""

from __future__ import annotations

import re
from itertools import islice

from repro.events.types import Event, EventType
from repro.placeless.properties import ActiveProperty
from repro.streams.base import InputStream
from repro.streams.transforms import BufferedTransformInputStream, text_transform

__all__ = ["SummaryProperty"]

#: A sentence; the run stops only where a branch matches: no backtracking.
_SENTENCE_RE = re.compile(r"[^.!?]*(?:[.!?]+\s*|$)")


class SummaryProperty(ActiveProperty):
    """Condenses read content to leading sentences per paragraph."""

    execution_cost_ms = 1.5
    transforms_reads = True
    interest = frozenset({EventType.GET_INPUT_STREAM})

    def __init__(
        self,
        sentences_per_paragraph: int = 1,
        max_sentences: int = 10,
        name: str = "summarize",
        version: int = 1,
    ) -> None:
        super().__init__(name, version)
        self.sentences_per_paragraph = sentences_per_paragraph
        self.max_sentences = max_sentences

    def summarize_text(self, text: str) -> str:
        """Keep the leading sentences of each paragraph."""
        kept: list[str] = []
        start = 0
        room = self.max_sentences if self.sentences_per_paragraph > 0 else 0
        while room > 0 and start <= len(text):
            end = text.find("\n\n", start)
            if end < 0:
                end = len(text)
            matches = _SENTENCE_RE.finditer(text, start, end)
            sentences = list(islice(
                filter(str.strip, map(re.Match.group, matches)),
                min(self.sentences_per_paragraph, room),
            ))
            if sentences:
                kept.append("".join(sentences).strip())
                room -= len(sentences)
            start = end + 2
        return "\n\n".join(kept)

    def wrap_input(self, stream: InputStream, event: Event) -> InputStream:
        return BufferedTransformInputStream(
            stream, text_transform(self.summarize_text)
        )

    def transform_signature(self) -> str:
        return (
            f"summarize/{self.name}/v{self.version}"
            f"/{self.sentences_per_paragraph}/{self.max_sentences}"
        )
