"""The spelling-corrector property from the Figure 1/2 scenario.

"Because Eyal is not a native English speaker, he also attaches a
personal property that corrects the paper's spelling. ... both the
spelling correction and the versioning properties are dispatched when
getoutputstream operations are invoked, whereas the spelling corrector is
also invoked on getinputstream." (§2)

The corrector is deliberately simple — a dictionary of misspelling →
correction applied word-wise, line by line — because only its *stream
behaviour* matters to caching.  It transforms both the read and the write
path, exactly as in the paper, and its transform signature includes its
dictionary fingerprint and version so upgrading the corrector changes the
signature (and triggers MODIFY_PROPERTY invalidation).  The dictionary
is a shared :class:`~repro.streams.transforms.WordTable`: correctors
with equal dictionaries hold one object between them.
"""

from __future__ import annotations

from typing import Mapping

from repro.events.types import Event, EventType
from repro.placeless.properties import ActiveProperty
from repro.streams.base import InputStream, OutputStream
from repro.streams.transforms import (
    BufferedTransformOutputStream,
    LineTransformInputStream,
    WordTable,
    text_transform,
)

__all__ = ["SpellingCorrectorProperty", "DEFAULT_CORRECTIONS"]

_DEFAULT_WORDS = WordTable.of({
    "teh": "the",
    "adress": "address",
    "recieve": "receive",
    "seperate": "separate",
    "occured": "occurred",
    "documnet": "document",
    "cachable": "cacheable",
    "propertys": "properties",
    "consistancy": "consistency",
    "performence": "performance",
})
#: A small default dictionary (with the paper's own title words in it).
DEFAULT_CORRECTIONS: Mapping[str, str] = _DEFAULT_WORDS.mapping


class SpellingCorrectorProperty(ActiveProperty):
    """Corrects spelling on both the read and the write path."""

    execution_cost_ms = 0.8
    transforms_reads = True
    interest = frozenset({EventType.GET_INPUT_STREAM, EventType.GET_OUTPUT_STREAM})

    def __init__(
        self,
        corrections: Mapping[str, str] | None = None,
        name: str = "spell-correct",
        version: int = 1,
    ) -> None:
        super().__init__(name, version)
        self._words = (
            _DEFAULT_WORDS if corrections is None
            else WordTable.of(corrections)
        )
        self.words_corrected = 0

    @property
    def corrections(self) -> Mapping[str, str]:
        """The correction dictionary (read-only; see
        :meth:`upgrade_dictionary`)."""
        return self._words.mapping

    def correct_text(self, text: str) -> str:
        """Apply the correction dictionary to *text*."""
        corrected, replaced = self._words.substitute(text)
        self.words_corrected += replaced
        return corrected

    def wrap_input(self, stream: InputStream, event: Event) -> InputStream:
        # ``[A-Za-z]+`` cannot span a newline, so correcting many lines
        # at once corrects each of them.
        return LineTransformInputStream(
            stream, text_transform(self.correct_text, newline_transparent=True)
        )

    def wrap_output(self, stream: OutputStream, event: Event) -> OutputStream:
        return BufferedTransformOutputStream(
            stream, text_transform(self.correct_text)
        )

    def transform_signature(self) -> str:
        return (
            f"spellcheck/{self.name}/v{self.version}"
            f"/{self._words.fingerprint}"
        )

    def upgrade_dictionary(self, corrections: Mapping[str, str]) -> None:
        """Install a new correction dictionary — a new release (§3).

        Merges the new entries, bumps the version and raises
        MODIFY_PROPERTY so notifiers invalidate dependent cache entries.
        """
        self._words = WordTable.of({**self.corrections, **corrections})
        self.upgrade()
