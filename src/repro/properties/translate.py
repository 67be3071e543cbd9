"""The "translate to French" property (§1's flagship example).

"the 'translate to French' property can return an English document in
French" — and, for caching, "when a language translation property is
added to a document, the cached content in a different language is no
longer valid" (§3 consistency class 2).

The translator is a word-table substitution over the read path.  It is a
*buffered* transform (a real translator needs the full sentence/document)
which also makes it one of the expensive properties replacement policies
should favour keeping cached.  The table is a shared
:class:`~repro.streams.transforms.WordTable`: translators with equal
tables hold one object between them.
"""

from __future__ import annotations

from typing import Mapping

from repro.events.types import Event, EventType
from repro.placeless.properties import ActiveProperty
from repro.streams.base import InputStream
from repro.streams.transforms import (
    BufferedTransformInputStream,
    WordTable,
    text_transform,
)

__all__ = ["TranslationProperty", "ENGLISH_TO_FRENCH"]

_DEFAULT_WORDS = WordTable.of({
    "the": "le",
    "a": "un",
    "and": "et",
    "document": "document",
    "documents": "documents",
    "cache": "cache",
    "caching": "mise en cache",
    "property": "propriété",
    "properties": "propriétés",
    "active": "actives",
    "paper": "papier",
    "workshop": "atelier",
    "with": "avec",
    "of": "de",
    "for": "pour",
    "is": "est",
    "are": "sont",
    "system": "système",
    "user": "utilisateur",
    "users": "utilisateurs",
    "content": "contenu",
    "hello": "bonjour",
    "world": "monde",
})
#: A small English→French word table sufficient for the examples/tests.
ENGLISH_TO_FRENCH: Mapping[str, str] = _DEFAULT_WORDS.mapping


class TranslationProperty(ActiveProperty):
    """Translates read content through a word table."""

    execution_cost_ms = 2.5
    transforms_reads = True
    interest = frozenset({EventType.GET_INPUT_STREAM})

    def __init__(
        self,
        table: Mapping[str, str] | None = None,
        name: str = "translate-to-french",
        target_language: str = "fr",
        version: int = 1,
    ) -> None:
        super().__init__(name, version)
        self._words = (
            _DEFAULT_WORDS if table is None else WordTable.of(table)
        )
        self.target_language = target_language
        self.words_translated = 0

    @property
    def table(self) -> Mapping[str, str]:
        """The word table (read-only)."""
        return self._words.mapping

    def translate_text(self, text: str) -> str:
        """Apply the word table to *text*."""
        translated, replaced = self._words.substitute(text)
        self.words_translated += replaced
        return translated

    def wrap_input(self, stream: InputStream, event: Event) -> InputStream:
        return BufferedTransformInputStream(
            stream, text_transform(self.translate_text)
        )

    def transform_signature(self) -> str:
        return (
            f"translate/{self.name}/{self.target_language}"
            f"/v{self.version}/{self._words.fingerprint}"
        )
