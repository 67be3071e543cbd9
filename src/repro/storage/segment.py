"""Checksummed append-only segment files: the durable tier's byte format.

Every durable structure in the L2 tier — content blobs, the demotion
catalog, the spilled write-back journal, the spilled transform memo —
is one :class:`SegmentLog`: a single append-only file of framed records.

Record framing::

    +-------+------+-----------+------------+---------------+
    | magic | kind | length u32| crc32 u32  | payload bytes |
    | b"PL" | u8   | big-endian| of payload | length bytes  |
    +-------+------+-----------+------------+---------------+

Every payload is one :func:`pack_record` record: the format byte
``0x02``, then the fields its kind's :data:`LAYOUTS` entry names and
types, in order and without names, as one :mod:`marshal` (version 2)
tuple.  :func:`unpack_record` raises :class:`~repro.errors.StorageError`
for any other shape or field type, and a replay site counts such a
record as corrupt.

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
(:func:`os.pwritev`), a point read is one :func:`os.pread` of a frame
whose length the caller holds (a content slot does), and truncation is
:func:`os.ftruncate` on the same descriptor.
With no user-space buffer, every append is a single kernel write, so a
killed process loses nothing the kernel had accepted.  Compaction swaps
a new file into place, so :meth:`SegmentLog.replace_with` reopens the
descriptor on it — appends must not land in the unlinked old inode.
:meth:`SegmentLog.close` releases the descriptor (a garbage-collected
log releases it too).  Positioned I/O is POSIX-only.
"""

from __future__ import annotations

import fcntl
import marshal
import os
import struct
import weakref
import zlib
from pathlib import Path

from repro.errors import StorageError

__all__ = [
    "SegmentLog",
    "HEADER_SIZE",
    "LAYOUTS",
    "pack_record",
    "unpack_record",
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

#: Each kind's payload fields, one type code each: ``s`` str, ``b``
#: bytes, ``q`` int, ``d`` float, ``?`` bool, ``o`` str or ``None``,
#: ``t`` a tuple of str.
LAYOUTS = {
    K_CONTENT: "sb",  # digest, bytes
    # document, user, digest, size, cacheability, cost, chain, verifier
    # fingerprints, source (or none), pinned
    K_DEMOTE: "sssqqdtto?",
    K_DROP: "ss",  # tombstone: document, user
    # document, user, reference, the source digest the write replaces,
    # bytes
    K_JOURNAL: "ssssb",
    K_FLUSHED: "ss",  # document, user
    # source, fingerprint, output, size, cacheability, cost, chain, pinned
    K_MEMO: "sssqqdt?",
}

_MAGIC = b"PL"
_HEADER = struct.Struct(">2sBII")  # magic, kind, payload length, crc32
#: Bytes a frame adds to its payload.
HEADER_SIZE = _HEADER.size

#: Format 1 payloads (sorted-key JSON, or length-prefixed fields) began
#: with ``{`` or a zero byte, so they fail to decode as corrupt.
_FORMAT = b"\x02"
#: :mod:`marshal` version 2 writes floats exactly and no back-references,
#: so equal fields always give equal bytes; every CPython 3 reads it.
_MARSHAL_VERSION = 2
_TYPES = {
    "s": (str,), "b": (bytes,), "q": (int,), "d": (float,),
    "?": (bool,), "o": (str, type(None)), "t": (tuple,),
}


def pack_record(*fields) -> bytes:
    """The format byte, then *fields* as one marshalled tuple."""
    return _FORMAT + marshal.dumps(fields, _MARSHAL_VERSION)


def _fits(code: str, value) -> bool:
    return type(value) in _TYPES[code] and (
        code != "t" or all(type(item) is str for item in value)
    )


def unpack_record(layout: str, payload: bytes) -> tuple:
    """Invert :func:`pack_record`; anything but one *layout* record
    raises :class:`StorageError`.  Only a payload whose CRC held gets
    here, so it is bytes this module wrote (the trust a ``.pyc`` file's
    marshalled code gets from its header)."""
    try:
        if payload[:1] != _FORMAT:
            raise ValueError("not a format-2 record")
        fields = marshal.loads(memoryview(payload)[1:])
    except (ValueError, EOFError, TypeError) as error:
        raise StorageError(f"malformed segment payload: {error}") from None
    if not (
        type(fields) is tuple and len(fields) == len(layout)
        and all(map(_fits, layout, fields))
    ):
        raise StorageError(f"segment payload is not a {layout!r} record")
    return fields


def _header(kind: int, payload: bytes) -> bytes:
    return _HEADER.pack(
        _MAGIC, kind, len(payload), zlib.crc32(payload) & 0xFFFFFFFF
    )


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

    def lock(self) -> None:
        """Hold the file's exclusive lock while the descriptor lives; if
        another descriptor holds it, close this one and raise."""
        try:
            fcntl.flock(self._live(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            self.close()
            raise StorageError(f"segment {self.path} is in use") from None

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
        header = _header(kind, payload)
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

    def read(self, offset: int, length: int) -> tuple[int, bytes]:
        """The ``(kind, payload)`` of the *length*-byte frame (header
        included) at *offset*, read with one :func:`os.pread`; raises on
        any damage to its magic, length or CRC."""
        frame = os.pread(self._live(), length, offset)
        # A short frame pads to a header whose magic cannot match.
        magic, kind, size, crc = _HEADER.unpack_from(
            frame.ljust(_HEADER.size)
        )
        if magic != _MAGIC or _HEADER.size + size != len(frame):
            raise StorageError(
                f"no {length}-byte record at offset {offset} in {self.path}"
            )
        payload = frame[_HEADER.size:]
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
                header = _header(kind, payload)
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
