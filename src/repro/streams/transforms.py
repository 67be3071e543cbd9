"""Generic transform streams that custom active-property streams build on.

Section 2: "active properties that modify the document content create a
chain of custom output-streams that will each operate subsequently on the
content that is being written", and symmetrically for reads.  Three
granularities cover the paper's examples:

* **Buffered** — the transform needs the whole content (translation,
  summarisation): the input variant drains its inner stream on first read;
  the output variant applies the transform at close before forwarding.
* **Chunk** — the transform is byte-local (compression-like filters,
  case-folding): applied per read/write call.
* **Line** — the transform is line-local (spell-correcting a text line at
  a time).

Every input variant also answers ``read(-1)`` in one step
(:meth:`~repro.streams.base.InputStream._read_rest`): the transform runs
once over ``inner.read(-1)`` instead of once per pulled chunk, which is
how :meth:`PlacelessKernel.read` consumes a chain.  Chunked reads stay
byte-identical for applications that pull in pieces (``repro.nfs``).

:class:`WordTable` is the one word-substitution the spelling corrector
and the translator share.
"""

from __future__ import annotations

import hashlib
import string
import weakref
from itertools import compress
from types import MappingProxyType
from typing import Callable, Mapping

from repro.streams.base import InputStream, OutputStream

__all__ = [
    "BufferedTransformInputStream",
    "BufferedTransformOutputStream",
    "ChunkTransformInputStream",
    "ChunkTransformOutputStream",
    "LineTransformInputStream",
    "WordTable",
    "text_transform",
]

BytesTransform = Callable[[bytes], bytes]


class text_transform:
    """Lift a ``str → str`` function to a ``bytes → bytes`` transform.

    Undecodable bytes are passed through unchanged rather than raising, so
    text-oriented properties degrade gracefully on binary content — the
    behaviour a deployed spelling corrector would need.

    *newline_transparent* is the caller's declaration that
    ``fn(a + "\n" + b) == fn(a) + "\n" + fn(b)`` and ``fn("") == ""``.
    The lifted transform then has the same property on bytes — a buffer
    that does not decode as a whole is transformed line by line, so an
    undecodable line still passes through alone — and a
    :class:`LineTransformInputStream` may hand it many lines at once.

    (A class, not a closure, so that the declaration travels with the
    callable; spelled lower-case because it is called like a function.)
    """

    __slots__ = ("_fn", "_encoding", "newline_transparent")

    def __init__(
        self,
        fn: Callable[[str], str],
        encoding: str = "utf-8",
        newline_transparent: bool = False,
    ) -> None:
        self._fn = fn
        self._encoding = encoding
        self.newline_transparent = newline_transparent

    def __call__(self, data: bytes) -> bytes:
        try:
            decoded = data.decode(self._encoding)
        except UnicodeDecodeError:
            if self.newline_transparent and b"\n" in data:
                return b"\n".join(map(self, data.split(b"\n")))
            return data
        return self._fn(decoded).encode(self._encoding)


class BufferedTransformInputStream(InputStream):
    """Input stream applying a whole-content transform.

    The inner stream is drained lazily on the first read, transformed
    once, and the result served from a buffer.  This matches properties
    whose output depends on the entire document (translate, summarize).
    """

    def __init__(self, inner: InputStream, transform: BytesTransform) -> None:
        super().__init__()
        self._inner = inner
        self._transform = transform
        self._buffer: bytes | None = None
        self._position = 0

    def _materialize(self) -> bytes:
        if self._buffer is None:
            raw = self._inner.read(-1)
            self._buffer = self._transform(raw)
        return self._buffer

    def _read_chunk(self, size: int) -> bytes:
        buffer = self._materialize()
        chunk = buffer[self._position : self._position + size]
        self._position += len(chunk)
        return chunk

    def _read_rest(self) -> bytes:
        if self._buffer is None:
            # Nothing was served yet: hand the transform's result over
            # as it is instead of buffering it to slice it back out.
            rest = self._transform(self._inner.read(-1))
            self._buffer = b""
            return rest
        rest = self._buffer[self._position :]
        self._position = len(self._buffer)
        return rest

    def _on_close(self) -> None:
        self._inner.close()


class BufferedTransformOutputStream(OutputStream):
    """Output stream applying a whole-content transform at close.

    Writes accumulate; when the application closes the stream the
    transform runs once and the result is written to the downstream
    stream, which is then closed.  This is how a spelling corrector on the
    write path sees the full document before the repository does.
    """

    def __init__(self, downstream: OutputStream, transform: BytesTransform) -> None:
        super().__init__()
        self._downstream = downstream
        self._transform = transform
        self._pieces: list[bytes] = []

    def _write_chunk(self, data: bytes) -> None:
        self._pieces.append(data)

    def _on_close(self) -> None:
        transformed = self._transform(b"".join(self._pieces))
        if transformed:
            self._downstream.write(transformed)
        self._downstream.close()


class ChunkTransformInputStream(InputStream):
    """Input stream applying a byte-local transform to each chunk read.

    Only sound for transforms where ``t(a + b) == t(a) + t(b)``; callers
    wanting context across chunk boundaries should use the buffered or
    line variants.
    """

    def __init__(self, inner: InputStream, transform: BytesTransform) -> None:
        super().__init__()
        self._inner = inner
        self._transform = transform

    def _read_chunk(self, size: int) -> bytes:
        chunk = self._inner.read(size)
        if not chunk:
            return b""
        return self._transform(chunk)

    def _read_rest(self) -> bytes:
        return self._read_chunk(-1)

    def _on_close(self) -> None:
        self._inner.close()


class ChunkTransformOutputStream(OutputStream):
    """Output stream applying a byte-local transform to each write."""

    def __init__(self, downstream: OutputStream, transform: BytesTransform) -> None:
        super().__init__()
        self._downstream = downstream
        self._transform = transform

    def _write_chunk(self, data: bytes) -> None:
        self._downstream.write(self._transform(data))

    def _on_close(self) -> None:
        self._downstream.close()


class LineTransformInputStream(InputStream):
    """Input stream applying a transform to each ``\\n``-terminated line.

    Partial lines are held back until their terminator (or end of stream)
    arrives, so the transform always sees complete lines regardless of the
    chunk sizes the reader uses; an unterminated last line is transformed
    at end of stream unless it is empty.  A transform that declares
    itself newline-transparent (:class:`text_transform`) is handed all
    the complete lines of a refill — or of the whole stream — in one
    call instead of one call per line.
    """

    def __init__(self, inner: InputStream, transform: BytesTransform) -> None:
        super().__init__()
        self._inner = inner
        self._transform = transform
        self._many_lines = (
            isinstance(transform, text_transform)
            and transform.newline_transparent
        )
        self._carry = b""
        self._out = b""
        self._offset = 0
        self._inner_done = False

    def _refill(self, want: int) -> None:
        have = len(self._out) - self._offset
        if have >= want or self._inner_done:
            return
        pieces = [self._out[self._offset :]]
        while have < want:
            chunk = self._inner.read(4096)
            if not chunk:
                self._inner_done = True
                if self._carry:
                    pieces.append(self._transform(self._carry))
                    self._carry = b""
                break
            lines = (self._carry + chunk).split(b"\n")
            self._carry = lines.pop()  # last piece has no terminator yet
            if lines:
                if self._many_lines:
                    done = self._transform(b"\n".join(lines))
                else:
                    done = b"\n".join(map(self._transform, lines))
                pieces += (done, b"\n")
                have += len(done) + 1
        self._out = b"".join(pieces)
        self._offset = 0

    def _read_chunk(self, size: int) -> bytes:
        self._refill(size)
        chunk = self._out[self._offset : self._offset + size]
        self._offset += len(chunk)
        return chunk

    def _read_rest(self) -> bytes:
        pending = self._out[self._offset :]
        self._out = b""
        self._offset = 0
        if self._inner_done:
            return pending
        data = self._carry + self._inner.read(-1)
        self._carry = b""
        self._inner_done = True
        if self._many_lines:
            return pending + self._transform(data)
        lines = data.split(b"\n")
        tail = lines.pop()
        pieces = list(map(self._transform, lines))
        pieces.append(self._transform(tail) if tail else b"")
        return pending + b"\n".join(pieces)

    def _on_close(self) -> None:
        self._inner.close()


# -- the word-table substitution -------------------------------------------------

_LETTERS = string.ascii_letters.encode()
_WHITESPACE = bytes(b for b in range(256) if bytes((b,)).isspace())
#: Bytes no UTF-8 text contains, one for each whitespace byte.
_STAND_INS = bytes(range(0xF8, 0xF8 + len(_WHITESPACE)))
#: Blanks every byte that is not an ASCII letter: ``split()`` of the
#: result is the text's ``[A-Za-z]+`` runs.  (UTF-8 spells no other
#: character with an ASCII byte, so the runs are the decoded text's.)
_KEEP_WORDS = bytes(b if b in _LETTERS else 0x20 for b in range(256))
#: Blanks the letters instead: ``split()`` of the result is the gaps
#: between those runs.  A gap's own whitespace must survive that split,
#: which it does as stand-ins that :data:`_RESTORE_GAPS` turns back.
_KEEP_GAPS = bytes.maketrans(
    _LETTERS + _WHITESPACE, b" " * len(_LETTERS) + _STAND_INS
)
_RESTORE_GAPS = bytes.maketrans(_STAND_INS, _WHITESPACE)


class WordTable:
    """An immutable ``word → replacement`` table and its substitution.

    Interned by content: :meth:`of` returns one shared object per set of
    entries, so the properties built from equal tables (every reference
    in a population attaches its own) share the entries and the
    :attr:`fingerprint` their transform signatures quote.

    :meth:`substitute` replaces every maximal ``[A-Za-z]+`` run whose
    lower-cased form is an entry, capitalising the replacement when the
    run started upper-case.  It never runs a regex: two byte-table
    translations and ``bytes.split`` cut the text into words and gaps,
    one ``map`` looks every word up, and words and gaps are joined back
    with the known words swapped — the same cost per word whatever the
    text's vocabulary, and nothing remembered between texts.
    """

    __slots__ = ("mapping", "fingerprint", "_lookup", "__weakref__")

    _interned: "weakref.WeakValueDictionary[tuple, WordTable]" = (
        weakref.WeakValueDictionary()
    )

    def __init__(self, entries: tuple) -> None:
        """An unshared table of sorted ``(word, replacement)`` pairs;
        callers want :meth:`of`."""
        #: Read-only view of the entries.
        self.mapping: Mapping[str, str] = MappingProxyType(dict(entries))
        #: What a transform signature quotes to identify the entries.
        self.fingerprint = hashlib.md5(
            repr(list(entries)).encode()
        ).hexdigest()[:8]
        #: word → (replacement, Replacement), for the entries a run can
        #: equal at all: non-empty, lower-case ASCII letters only.
        #: (Indexed by "the run started upper-case".)
        self._lookup: dict[bytes, tuple[bytes, bytes]] = {
            word.encode(): (
                replacement.encode("utf-8", "surrogatepass"),
                replacement.capitalize().encode("utf-8", "surrogatepass"),
            )
            for word, replacement in entries
            if word.isascii() and word.isalpha() and word.islower()
        }

    @classmethod
    def of(cls, table: Mapping[str, str]) -> "WordTable":
        """The shared table holding exactly *table*'s entries."""
        entries = tuple(sorted(table.items()))
        interned = cls._interned.get(entries)
        if interned is None:
            interned = cls._interned[entries] = cls(entries)
        return interned

    def substitute(self, text: str) -> tuple[str, int]:
        """*text* with every known word replaced, and how many were."""
        # A gap at either end, so that gaps and words alternate.
        raw = b" %b " % text.encode("utf-8", "surrogatepass")
        runs = raw.translate(_KEEP_WORDS)
        found = list(map(self._lookup.get, runs.lower().split()))
        if not any(found):
            return text, 0
        hits = list(compress(range(len(found)), found))
        words = runs.split()
        for i in hits:
            # A run that starts upper-case sorts before b"a".
            words[i] = found[i][words[i] < b"a"]
        pieces = [b""] * (2 * len(words) + 1)
        pieces[0::2] = raw.translate(_KEEP_GAPS).split()
        pieces[1::2] = words
        joined = b"".join(pieces).translate(_RESTORE_GAPS)
        return joined[1:-1].decode("utf-8", "surrogatepass"), len(hits)
