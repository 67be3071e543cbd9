"""Checksummed append-only segment files: the durable tier's byte format.

Every durable structure in the L2 tier — content blobs, the demotion
catalog, the spilled write-back journal, the spilled transform memo —
is one :class:`SegmentLog`: a single append-only file of framed records.

Record framing::

    +-------+------+-----------+------------+---------------+
    | magic | kind | length u32| crc32 u32  | payload bytes |
    | b"PL" | u8   | big-endian| of payload | length bytes  |
    +-------+------+-----------+------------+---------------+

The format is deliberately crash-shaped:

* **Torn tails truncate.**  A crash can leave a partial record at the
  end of the file (short header, short payload, or garbage where the
  magic should be).  :meth:`SegmentLog.scan_records` truncates the file
  at the first such frame — exactly the bytes an interrupted append
  would leave — and counts the truncation.
* **Corrupt records skip.**  A complete frame whose payload fails its
  CRC is *skipped*, not fatal: the header (written before the fault
  seam garbles payload bytes) still carries the true length, so the
  scan can step over the damage and keep every later record.
* **Only fsynced bytes survive.**  :meth:`append` writes into the OS
  buffer; :meth:`sync` advances the durable watermark (unless the fault
  plan decides the fsync silently lied).  :meth:`crash` truncates the
  file back to the watermark — the simulation's model of process death
  plus page-cache loss.

A log opens its file once, unbuffered, and keeps the descriptor: an
append is one positioned write of header and payload
(:func:`os.pwritev`), a point read is :func:`os.pread` at the frame
offset, and truncation is :func:`os.ftruncate` on the same descriptor.
With no user-space buffer, every append is a single kernel write, so a
killed process loses nothing the kernel had accepted.  Compaction swaps
a new file into place, so :meth:`SegmentLog.replace_with` reopens the
descriptor on it — appends must not land in the unlinked old inode.
:meth:`SegmentLog.close` releases the descriptor (a garbage-collected
log releases it too).  Positioned I/O is POSIX-only.
"""

from __future__ import annotations

import os
import struct
import weakref
import zlib
from pathlib import Path

from repro.errors import StorageError

__all__ = [
    "SegmentLog",
    "pack_fields",
    "unpack_fields",
    "K_CONTENT",
    "K_DEMOTE",
    "K_DROP",
    "K_JOURNAL",
    "K_FLUSHED",
    "K_MEMO",
]

#: Record kinds, one namespace across every segment the tier owns.
K_CONTENT = 1
K_DEMOTE = 2
K_DROP = 3
K_JOURNAL = 4
K_FLUSHED = 5
K_MEMO = 6

_MAGIC = b"PL"
_HEADER = struct.Struct(">2sBII")  # magic, kind, payload length, crc32
_FIELD = struct.Struct(">I")


def pack_fields(*fields: bytes) -> bytes:
    """Frame *fields* as length-prefixed byte strings in one payload."""
    parts: list[bytes] = []
    for field in fields:
        parts.append(_FIELD.pack(len(field)))
        parts.append(field)
    return b"".join(parts)


def unpack_fields(payload: bytes) -> list[bytes]:
    """Invert :func:`pack_fields`; raises :class:`StorageError` on damage."""
    fields: list[bytes] = []
    offset = 0
    while offset < len(payload):
        if offset + _FIELD.size > len(payload):
            raise StorageError("truncated field header in segment payload")
        (length,) = _FIELD.unpack_from(payload, offset)
        offset += _FIELD.size
        if offset + length > len(payload):
            raise StorageError("truncated field body in segment payload")
        fields.append(payload[offset:offset + length])
        offset += length
    return fields


class SegmentLog:
    """One append-only file of CRC-framed records.

    The log tracks a *durable watermark*: the file offset confirmed by
    the last honest fsync.  :meth:`crash` truncates back to it, so a
    test (or the fault plan) can model exactly which appends survive
    process death.
    """

    def __init__(self, path: "Path | str") -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._open()
        self._size = os.fstat(self._fd).st_size
        #: Offset confirmed durable by the last (non-lost) fsync.  A
        #: freshly opened log trusts what it finds on disk — recovery
        #: scans decide what of it is usable.
        self._durable = self._size
        #: Torn tails truncated across the log's lifetime of scans.
        self.torn_truncations = 0
        #: Complete-but-corrupt records skipped across scans/reads.
        self.corrupt_skips = 0

    def _open(self) -> None:
        """Hold a read-write descriptor on :attr:`path`, creating it.

        The finalizer is the one place the descriptor is closed — by
        :meth:`close`, :meth:`replace_with` or garbage collection, once
        — so a collected log cannot close a number since reused.
        """
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o666)
        self._closer = weakref.finalize(self, os.close, self._fd)

    def _live(self) -> int:
        """The held descriptor; raises once the log is closed."""
        if self._fd < 0:
            raise StorageError(f"segment {self.path} is closed")
        return self._fd

    def close(self) -> None:
        """Release the descriptor; idempotent.  Later appends and reads
        raise :class:`StorageError`."""
        self._closer()
        self._fd = -1

    @property
    def size(self) -> int:
        """Current file size in bytes (including unsynced appends)."""
        return self._size

    @property
    def durable_size(self) -> int:
        """Bytes guaranteed to survive :meth:`crash`."""
        return self._durable

    def append(self, kind: int, payload: bytes, *, corrupt: bool = False) -> int:
        """Append one record; returns its file offset.

        ``corrupt=True`` models the fault plan's ``corrupt_record``
        seam: the CRC is computed over the *intended* payload, then one
        payload byte is flipped on its way to disk — the frame stays
        walkable but fails its checksum forever after.
        """
        written = payload
        if corrupt and payload:
            flipped = bytearray(payload)
            flipped[len(flipped) // 2] ^= 0xFF
            written = bytes(flipped)
        header = _HEADER.pack(
            _MAGIC, kind, len(payload), zlib.crc32(payload) & 0xFFFFFFFF
        )
        offset = self._size
        length = _HEADER.size + len(payload)
        if os.pwritev(self._live(), (header, written), offset) != length:
            raise StorageError(
                f"short write at offset {offset} in {self.path}"
            )
        self._size = offset + length
        return offset

    def sync(self, *, lost: bool = False) -> None:
        """Advance the durable watermark — unless the fsync was *lost*.

        A lost fsync models the classic lying-disk failure: the call
        returns success but the bytes are still only in the page cache,
        so a subsequent :meth:`crash` drops them.
        """
        if not lost:
            self._durable = self._size

    def crash(self) -> None:
        """Truncate to the durable watermark (process death + cache loss)."""
        os.ftruncate(self._live(), self._durable)
        self._size = self._durable

    def read(self, offset: int) -> tuple[int, bytes]:
        """The ``(kind, payload)`` at *offset*; raises on any damage."""
        fd = self._live()
        header = os.pread(fd, _HEADER.size, offset)
        if len(header) < _HEADER.size:
            raise StorageError(
                f"short record header at offset {offset} in {self.path}"
            )
        magic, kind, length, crc = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise StorageError(
                f"bad record magic at offset {offset} in {self.path}"
            )
        payload = os.pread(fd, length, offset + _HEADER.size)
        if len(payload) < length:
            raise StorageError(
                f"short record payload at offset {offset} in {self.path}"
            )
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            self.corrupt_skips += 1
            raise StorageError(
                f"record checksum mismatch at offset {offset} in {self.path}"
            )
        return kind, payload

    def scan_records(self) -> tuple[list[tuple[int, bytes, int]], int]:
        """Walk the whole log: ``([(kind, payload, offset), ...], corrupt)``.

        Complete frames failing their CRC are skipped and counted in
        the returned ``corrupt`` tally; a torn tail (short frame or bad
        magic) truncates the file at the frame start.  After the scan
        the on-disk log holds only whole frames.
        """
        records: list[tuple[int, bytes, int]] = []
        corrupt = 0
        data = self.path.read_bytes()
        offset = 0
        truncate_at: int | None = None
        while offset < len(data):
            if offset + _HEADER.size > len(data):
                truncate_at = offset
                break
            magic, kind, length, crc = _HEADER.unpack_from(data, offset)
            if magic != _MAGIC:
                truncate_at = offset
                break
            body_start = offset + _HEADER.size
            if body_start + length > len(data):
                truncate_at = offset
                break
            payload = data[body_start:body_start + length]
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                corrupt += 1
                self.corrupt_skips += 1
            else:
                records.append((kind, payload, offset))
            offset = body_start + length
        if truncate_at is not None:
            os.ftruncate(self._live(), truncate_at)
            self._size = truncate_at
            self._durable = min(self._durable, truncate_at)
            self.torn_truncations += 1
        return records, corrupt

    def replace_with(self, records: list[tuple[int, bytes]]) -> dict[int, int]:
        """Atomically rewrite the log to exactly *records* (compaction).

        Writes the survivors to a sibling file, fsyncs it, swaps it into
        place with :func:`os.replace` and reopens the held descriptor on
        it; returns a map from each record's *input index* to its new
        offset.
        """
        self._live()
        scratch = self.path.with_suffix(self.path.suffix + ".compact")
        offsets: dict[int, int] = {}
        with open(scratch, "wb") as handle:
            position = 0
            for index, (kind, payload) in enumerate(records):
                header = _HEADER.pack(
                    _MAGIC, kind, len(payload),
                    zlib.crc32(payload) & 0xFFFFFFFF,
                )
                handle.write(header)
                handle.write(payload)
                offsets[index] = position
                position += _HEADER.size + len(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(scratch, self.path)
        self._closer()
        self._open()
        self._size = os.fstat(self._fd).st_size
        self._durable = self._size
        return offsets
