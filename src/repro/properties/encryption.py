"""Paired encrypt-on-write / decrypt-on-read property.

A classic "extended functionality" active property: content is stored
encrypted at the repository but applications read and write plaintext.
We use a keyed XOR stream cipher — *not* cryptographically serious, but a
genuine involution with a key schedule, which is all the caching
semantics need: the transform is position-dependent, so chunk boundaries
must not matter (verified by tests), and the read-path output equals the
original plaintext only when the same key is used both ways.

Because the read path *restores* plaintext, the cached content equals
what an unencrypted document would cache — but the transform signature
still includes the key fingerprint, since a key change makes old cached
plaintext unreachable/wrong for re-encryption flows.
"""

from __future__ import annotations

import hashlib
import itertools

from repro.events.types import Event, EventType
from repro.placeless.properties import ActiveProperty
from repro.streams.base import InputStream, OutputStream

__all__ = ["EncryptionProperty"]


def _keystream(key: bytes, offset: int):
    """Infinite keyed byte stream starting at *offset*.

    Derived from repeated SHA-256 blocks so the stream is position-
    dependent (unlike plain key repetition) yet deterministic.
    """
    block_index = offset // 32
    within = offset % 32
    for index in itertools.count(block_index):
        block = hashlib.sha256(key + index.to_bytes(8, "big")).digest()
        yield from block[within:]
        within = 0


def _xor_at(data: bytes, key: bytes, offset: int) -> bytes:
    stream = _keystream(key, offset)
    return bytes(b ^ next(stream) for b in data)


class _DecryptingInputStream(InputStream):
    """Decrypts an inner ciphertext stream positionally."""

    def __init__(self, inner: InputStream, key: bytes) -> None:
        super().__init__()
        self._inner = inner
        self._key = key
        self._offset = 0

    def _read_chunk(self, size: int) -> bytes:
        chunk = self._inner.read(size)
        if not chunk:
            return b""
        plain = _xor_at(chunk, self._key, self._offset)
        self._offset += len(chunk)
        return plain

    def _read_rest(self) -> bytes:
        return self._read_chunk(-1)

    def _on_close(self) -> None:
        self._inner.close()


class _EncryptingOutputStream(OutputStream):
    """Encrypts written plaintext positionally before forwarding."""

    def __init__(self, downstream: OutputStream, key: bytes) -> None:
        super().__init__()
        self._downstream = downstream
        self._key = key
        self._offset = 0

    def _write_chunk(self, data: bytes) -> None:
        cipher = _xor_at(data, self._key, self._offset)
        self._offset += len(data)
        self._downstream.write(cipher)

    def _on_close(self) -> None:
        self._downstream.close()


class EncryptionProperty(ActiveProperty):
    """Stores ciphertext at the repository, serves plaintext to readers."""

    execution_cost_ms = 0.4
    transforms_reads = True
    interest = frozenset({EventType.GET_INPUT_STREAM, EventType.GET_OUTPUT_STREAM})

    def __init__(
        self, key: bytes, name: str = "encrypt-at-rest", version: int = 1
    ) -> None:
        super().__init__(name, version)
        if not key:
            raise ValueError("encryption key must be non-empty")
        self.key = bytes(key)

    def wrap_input(self, stream: InputStream, event: Event) -> InputStream:
        return _DecryptingInputStream(stream, self.key)

    def wrap_output(self, stream: OutputStream, event: Event) -> OutputStream:
        return _EncryptingOutputStream(stream, self.key)

    def transform_signature(self) -> str:
        fingerprint = hashlib.sha256(self.key).hexdigest()[:8]
        return f"encrypt/{self.name}/v{self.version}/{fingerprint}"
