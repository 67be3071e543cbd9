"""The word-table substitution against its reference implementation.

:class:`~repro.streams.transforms.WordTable` finds a text's words
without a regex: byte-table translations and ``bytes.split``.  The
reference here is what the spelling corrector and the translator each
ran before they shared it: one ``[A-Za-z]+`` regex pass with a Python
callback per word.  Output *and* replaced-word counts must agree on
every text.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.properties.spellcheck import (
    DEFAULT_CORRECTIONS,
    SpellingCorrectorProperty,
)
from repro.properties.translate import ENGLISH_TO_FRENCH, TranslationProperty
from repro.streams import transforms
from repro.streams.base import BytesInputStream
from repro.streams.chain import drain
from repro.streams.transforms import WordTable

_WORD_RE = re.compile(r"[A-Za-z]+")


class ReferenceSubstitution:
    """The parent implementation, kept verbatim as the oracle."""

    def __init__(self, table):
        self.table = dict(table)
        self.words_replaced = 0

    def _replace_word(self, match):
        word = match.group(0)
        replacement = self.table.get(word.lower())
        if replacement is None:
            return word
        self.words_replaced += 1
        if word[0].isupper():
            replacement = replacement.capitalize()
        return replacement

    def substitute(self, text):
        before = self.words_replaced
        return (
            _WORD_RE.sub(self._replace_word, text),
            self.words_replaced - before,
        )


# -- strategies -----------------------------------------------------------------

TABLE_WORDS = sorted(set(DEFAULT_CORRECTIONS) | set(ENGLISH_TO_FRENCH))

#: Table words in every casing, near-misses, and the characters that
#: decide where a ``[A-Za-z]+`` run ends.
fragments = st.one_of(
    st.sampled_from(TABLE_WORDS),
    st.sampled_from(TABLE_WORDS).map(str.upper),
    st.sampled_from(TABLE_WORDS).map(str.capitalize),
    st.sampled_from(TABLE_WORDS).map(str.swapcase),
    st.sampled_from(
        [
            "teh1", "a_teh", "1teh", "teh-teh", "teh,", "(teh)", "téh",
            "é", "ſ", "K", "teK", "ſeperate", "x", "zzz", "42",
            "3.14", "-", "", "the.the", "Caching", "CACHING", "caching's",
            # A lone surrogate, a four-byte character, and the characters
            # whose code points are the tokeniser's stand-in bytes.
            "\ud800", "teh\udfffteh", "𝒜teh", "\xf8", "teh\xfdteh", "\xff",
        ]
    ),
    st.text(alphabet="abtehTEH", min_size=1, max_size=5),
    st.text(max_size=4),
)
separators = st.sampled_from(
    [
        " ", " ", " ", "  ", "   ", "\n", "\n\n", " \n ", "\t", "\r\n", ", ",
        # Every other kind of whitespace, ASCII and not.
        "\x0b", "\x0c", "\r", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000",
        "\x00",
    ]
)


@st.composite
def texts(draw, max_tokens=40):
    parts = draw(
        st.lists(st.tuples(fragments, separators), max_size=max_tokens)
    )
    return "".join(fragment + separator for fragment, separator in parts)


tables = st.one_of(
    st.just(dict(DEFAULT_CORRECTIONS)),
    st.just(dict(ENGLISH_TO_FRENCH)),
    st.just({}),
    st.just({"": "empty"}),
    # Keys that can never match: upper-case, non-alphabetic.
    st.just({"TEH": "the", "te-h": "the", "teh1": "the", "é": "e"}),
    # Replacements holding spaces, nothing, a newline, or a table word.
    st.just({"caching": "mise en cache", "teh": "", "the": "teh"}),
    st.just({"teh": "the\nend", "a": "b"}),
    st.just({"teh": " the ", "a": " "}),
    st.dictionaries(
        st.text(alphabet="abteh", min_size=1, max_size=3),
        st.text(alphabet="abTE é", max_size=4),
        max_size=5,
    ),
)


# -- equivalence ----------------------------------------------------------------


class TestAgainstTheReference:
    @given(tables, st.lists(texts(), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_same_text_and_same_count(self, table, documents):
        words = WordTable.of(table)
        reference = ReferenceSubstitution(table)
        for text in documents:
            assert words.substitute(text) == reference.substitute(text)

    @given(st.text(max_size=200), st.sampled_from(TABLE_WORDS))
    @settings(max_examples=300, deadline=None)
    def test_any_text_at_all(self, text, word):
        # Unconstrained text (control characters, astral planes) with a
        # table word spliced into the middle of it.
        middle = len(text) // 2
        text = text[:middle] + word + text[middle:]
        for table in (DEFAULT_CORRECTIONS, ENGLISH_TO_FRENCH):
            assert WordTable.of(table).substitute(text) == (
                ReferenceSubstitution(table).substitute(text)
            )

    def test_every_single_character_is_a_faithful_gap(self):
        # Each code point up to U+0300 (all of ASCII's punctuation and
        # whitespace, every Latin-1 byte value) between two table words.
        words = WordTable.of(DEFAULT_CORRECTIONS)
        reference = ReferenceSubstitution(DEFAULT_CORRECTIONS)
        for code_point in range(0x300):
            gap = chr(code_point)
            for text in (f"teh{gap}Teh", f"{gap}teh{gap}{gap}x{gap}", gap):
                assert words.substitute(text) == reference.substitute(text)

    def test_a_text_without_a_known_word_comes_back_as_it_is(self):
        words = WordTable.of(DEFAULT_CORRECTIONS)
        for text in ("", " ", "\n", "nothing to correct here\n", "12 34\n56"):
            substituted, replaced = words.substitute(text)
            assert substituted is text
            assert replaced == 0

    @given(
        st.lists(
            st.one_of(
                texts(max_tokens=8).map(lambda text: text.replace("\n", " ")),
                st.sampled_from(["\xff\xfeteh", "caf\xe9 teh", "\x80"]),
            ),
            max_size=8,
        ),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=150, deadline=None)
    def test_undecodable_lines_pass_through_alone(self, lines, chunk_size):
        # latin-1 bytes: the sampled lines are not valid UTF-8, nor is
        # a generated one holding a lone surrogate; the rest are.
        raw_lines = [
            line.encode("latin-1") if line in ("\xff\xfeteh", "caf\xe9 teh", "\x80")
            else line.encode("utf-8", "surrogatepass")
            for line in lines
        ]
        data = b"\n".join(raw_lines)
        reference = ReferenceSubstitution(DEFAULT_CORRECTIONS)
        expected = []
        for raw in raw_lines:
            try:
                decoded = raw.decode("utf-8")
            except UnicodeDecodeError:
                expected.append(raw)
            else:
                expected.append(reference.substitute(decoded)[0].encode("utf-8"))
        whole = SpellingCorrectorProperty(name="whole")
        chunked = SpellingCorrectorProperty(name="chunked")
        assert whole.wrap_input(BytesInputStream(data), None).read(-1) == (
            b"\n".join(expected)
        )
        assert drain(
            chunked.wrap_input(BytesInputStream(data), None), chunk_size
        ) == b"\n".join(expected)
        assert whole.words_corrected == chunked.words_corrected
        assert whole.words_corrected == reference.words_replaced

    @given(
        st.lists(texts(), min_size=1, max_size=4),
        st.dictionaries(
            st.sampled_from(["teh", "the", "wierd", "a"]),
            st.sampled_from(["the", "weird", "THE", "an other"]),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_upgrade_dictionary_between_calls(self, documents, upgrade):
        corrector = SpellingCorrectorProperty()
        reference = ReferenceSubstitution(DEFAULT_CORRECTIONS)
        for text in documents:
            assert corrector.correct_text(text) == reference.substitute(text)[0]
        corrector.upgrade_dictionary(upgrade)
        reference.table.update(upgrade)
        for text in documents:
            assert corrector.correct_text(text) == reference.substitute(text)[0]
        assert corrector.words_corrected == reference.words_replaced

    def test_counts_every_replaced_word_even_an_unchanged_one(self):
        translator = TranslationProperty()
        assert translator.translate_text("document Document x") == (
            "document Document x"
        )
        assert translator.words_translated == 2

    def test_the_properties_count_like_the_reference(self):
        text = "Teh documnet, teh\npropertys of THE cache.\n\nCaching is"
        for prop, call, counter, table in (
            (SpellingCorrectorProperty(), "correct_text", "words_corrected",
             DEFAULT_CORRECTIONS),
            (TranslationProperty(), "translate_text", "words_translated",
             ENGLISH_TO_FRENCH),
        ):
            reference = ReferenceSubstitution(table)
            for _ in range(3):
                expected, _ = reference.substitute(text)
                assert getattr(prop, call)(text) == expected
            assert getattr(prop, counter) == reference.words_replaced


# -- structure ---------------------------------------------------------------------


class TestTheTokeniser:
    def test_the_stand_ins_are_bytes_utf8_never_uses(self):
        assert len(transforms._STAND_INS) == len(transforms._WHITESPACE)
        assert min(transforms._STAND_INS) >= 0xF8
        assert transforms._WHITESPACE == b"\t\n\x0b\x0c\r "

    def test_only_matchable_entries_are_compiled(self):
        words = WordTable.of(
            {"teh": "the", "": "x", "TEH": "x", "te-h": "x", "é": "e", "a1": "x"}
        )
        assert set(words._lookup) == {b"teh"}
        assert len(words.mapping) == 6

    def test_the_table_keeps_no_state_between_texts(self):
        words = WordTable.of(DEFAULT_CORRECTIONS)
        before = {slot: getattr(words, slot) for slot in words.__slots__[:-1]}
        lookup = dict(words._lookup)
        for _ in range(3):
            words.substitute("teh never seen before words 1 2 3\nTeh end")
        assert all(getattr(words, slot) is value for slot, value in before.items())
        assert words._lookup == lookup


class TestTablesAreShared:
    def test_equal_tables_share_one_object(self):
        first = SpellingCorrectorProperty(name="a")
        second = SpellingCorrectorProperty(name="b")
        third = SpellingCorrectorProperty(dict(DEFAULT_CORRECTIONS), name="c")
        assert first._words is second._words is third._words
        assert first.corrections is DEFAULT_CORRECTIONS
        assert TranslationProperty().table is ENGLISH_TO_FRENCH
        custom = {"foo": "bar"}
        assert (
            TranslationProperty(custom)._words
            is TranslationProperty({"foo": "bar"})._words
        )

    def test_an_upgraded_dictionary_is_no_longer_shared(self):
        upgraded = SpellingCorrectorProperty()
        untouched = SpellingCorrectorProperty()
        upgraded.upgrade_dictionary({"wierd": "weird"})
        assert upgraded._words is not untouched._words
        assert "wierd" not in untouched.corrections
        assert "wierd" not in DEFAULT_CORRECTIONS
        assert upgraded.corrections["wierd"] == "weird"
        assert upgraded.corrections["teh"] == "the"
        assert untouched.correct_text("wierd teh") == "wierd the"
        assert upgraded.correct_text("wierd teh") == "weird the"
        # Two correctors upgraded the same way meet again.
        other = SpellingCorrectorProperty()
        other.upgrade_dictionary({"wierd": "weird"})
        assert other._words is upgraded._words

    def test_the_tables_are_read_only(self):
        corrector = SpellingCorrectorProperty()
        with pytest.raises(TypeError):
            corrector.corrections["wierd"] = "weird"
        with pytest.raises(TypeError):
            TranslationProperty().table["cat"] = "chat"
        with pytest.raises(AttributeError):
            corrector.corrections = {}

    def test_a_callers_dict_is_copied_not_adopted(self):
        table = {"foo": "bar"}
        translator = TranslationProperty(table)
        table["foo"] = "baz"
        assert translator.translate_text("foo") == "bar"

    def test_signatures_are_the_historical_strings(self):
        assert SpellingCorrectorProperty().transform_signature() == (
            "spellcheck/spell-correct/v1/a0c0f796"
        )
        assert TranslationProperty().transform_signature() == (
            "translate/translate-to-french/fr/v1/098884a7"
        )
