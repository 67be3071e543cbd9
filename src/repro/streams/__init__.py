"""Java-stream-like content I/O with custom-stream chaining.

The Placeless content I/O model "is based on Java Input and Output
streams" (§2, footnote 1).  Active properties that transform content do so
by interposing *custom streams*: on the read path each interested property
wraps the stream produced so far in its own input stream; on the write
path each wraps the downstream output stream.  This package provides the
stream protocol, concrete byte-buffer streams, generic transform streams
and :func:`drain`; the documents themselves apply the wrappers in the
paper's order.
"""

from repro.streams.base import (
    BytesInputStream,
    BytesOutputStream,
    CountingInputStream,
    InputStream,
    NullOutputStream,
    OutputStream,
    TeeOutputStream,
)
from repro.streams.chain import drain
from repro.streams.transforms import (
    BufferedTransformInputStream,
    BufferedTransformOutputStream,
    ChunkTransformInputStream,
    ChunkTransformOutputStream,
    LineTransformInputStream,
    WordTable,
    text_transform,
)

__all__ = [
    "InputStream",
    "OutputStream",
    "BytesInputStream",
    "BytesOutputStream",
    "CountingInputStream",
    "TeeOutputStream",
    "NullOutputStream",
    "BufferedTransformInputStream",
    "BufferedTransformOutputStream",
    "ChunkTransformInputStream",
    "ChunkTransformOutputStream",
    "LineTransformInputStream",
    "WordTable",
    "text_transform",
    "drain",
]
