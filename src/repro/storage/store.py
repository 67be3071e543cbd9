"""Disk-backed content-addressed store: the durable half of the L2 tier.

Mirrors the in-memory :class:`~repro.content.store.ContentStore` API —
``put_signed`` / ``adopt`` / ``get`` / ``release`` with reference counts
— over a :class:`~repro.storage.segment.SegmentLog` of content records.
Bytes live once per distinct signature (the paper's §3 sharing argument
applies on disk exactly as in memory); the in-memory index maps each
signature to its record offset and refcount.

Refcounts here are *not* persisted: they describe which demoted catalog
entries currently reference a blob, and recovery rebuilds them by
re-adopting once per surviving catalog record.  Dead blobs (refcount
zero) stay on disk until :meth:`DiskContentStore.compact` rewrites the
segment with only live records — the same takeover shape as
``ContentStore.put_signed`` + ``adopt``: the rewrite carries each
surviving blob's refcount over verbatim, so no caller ever observes a
count dip during compaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.content.signature import ContentSignature, sign
from repro.errors import StorageError
from repro.storage.segment import (
    HEADER_SIZE,
    K_CONTENT,
    LAYOUTS,
    SegmentLog,
    pack_record,
    unpack_record,
)

__all__ = ["DiskSlot", "DiskContentStore"]


@dataclass(slots=True)
class DiskSlot:
    """One distinct byte string on disk, in a *length*-byte frame."""

    signature: ContentSignature
    offset: int
    size: int
    length: int
    refcount: int = 0


class DiskContentStore:
    """Deduplicating, CRC-verified byte store over one segment file."""

    def __init__(self, path: "Path | str") -> None:
        self.log = SegmentLog(path)
        self._by_signature: dict[ContentSignature, DiskSlot] = {}
        #: Complete-but-corrupt content records dropped by scans.
        self.corrupt_dropped = 0
        self._recover_index()

    def _recover_index(self) -> None:
        """Rebuild the index from the segment (refcounts start at 0)."""
        self._by_signature.clear()
        records, corrupt = self.log.scan_records()
        self.corrupt_dropped += corrupt
        for kind, payload, offset in records:
            if kind != K_CONTENT:
                continue
            try:
                digest, content = unpack_record(LAYOUTS[K_CONTENT], payload)
            except StorageError:
                self.corrupt_dropped += 1
                continue
            signature = ContentSignature(digest)
            if sign(content) != signature:
                # The frame's CRC held but the content does not match
                # its recorded digest — treat as corruption, not data.
                self.corrupt_dropped += 1
                continue
            self._by_signature[signature] = DiskSlot(
                signature=signature, offset=offset, size=len(content),
                length=HEADER_SIZE + len(payload),
            )

    def put_signed(
        self,
        content: bytes,
        signature: ContentSignature,
        *,
        corrupt: bool = False,
    ) -> ContentSignature:
        """Store *content* under *signature* (or bump its refcount).

        ``corrupt=True`` forwards the fault plan's corrupt-record
        decision to the segment writer: the frame lands on disk with a
        flipped payload byte, detected at the next read or recovery.
        """
        assert signature == sign(content), (
            f"put_signed: signature {signature.short} does not match "
            "the supplied content"
        )
        slot = self._by_signature.get(signature)
        if slot is None:
            payload = pack_record(signature.digest, content)
            offset = self.log.append(K_CONTENT, payload, corrupt=corrupt)
            slot = DiskSlot(
                signature=signature, offset=offset, size=len(content),
                length=HEADER_SIZE + len(payload),
            )
            self._by_signature[signature] = slot
        slot.refcount += 1
        return signature

    def adopt(self, signature: ContentSignature) -> None:
        """Add a reference to already-stored content."""
        self._slot(signature).refcount += 1

    def get(self, signature: ContentSignature) -> bytes:
        """Bytes for *signature*, CRC- and digest-verified at read time.

        Raises :class:`StorageError` when the record is missing or the
        bytes on disk no longer hash to the signature — the caller
        (the L2 tier) converts that into a drop plus a breaker failure.
        """
        slot = self._slot(signature)
        # One pread of the whole frame; raises on any framing or CRC damage.
        _, payload = self.log.read(slot.offset, slot.length)
        digest, content = unpack_record(LAYOUTS[K_CONTENT], payload)
        if digest != signature.digest:
            raise StorageError(
                f"content record at offset {slot.offset} belongs to "
                f"another signature (wanted {signature.short})"
            )
        if sign(content) != signature:
            raise StorageError(
                f"content for {signature.short} fails its digest check"
            )
        return content

    def size_of(self, signature: ContentSignature) -> int:
        """Size in bytes of the content behind *signature*."""
        return self._slot(signature).size

    def refcount(self, signature: ContentSignature) -> int:
        """Current reference count of *signature* (0 if absent)."""
        slot = self._by_signature.get(signature)
        return 0 if slot is None else slot.refcount

    def release(self, signature: ContentSignature) -> None:
        """Drop one reference; the blob is dead (awaiting compaction) at 0."""
        slot = self._slot(signature)
        slot.refcount -= 1
        if slot.refcount <= 0:
            del self._by_signature[signature]

    def drop(self, signature: ContentSignature) -> None:
        """Forget *signature* entirely regardless of refcount (corruption)."""
        self._by_signature.pop(signature, None)

    def compact(self) -> int:
        """Rewrite the segment with only live blobs; returns bytes freed.

        Mirrors the in-memory store's refcount-takeover contract: each
        surviving slot keeps its refcount across the rewrite, and the
        swap is atomic (``os.replace``), so a crash mid-compaction
        leaves either the old segment or the new one — never a mix.
        """
        before = self.log.size
        live = sorted(self._by_signature.values(), key=lambda s: s.offset)
        records: list[tuple[int, bytes]] = []
        for slot in live:
            _, payload = self.log.read(slot.offset, slot.length)
            records.append((K_CONTENT, payload))
        offsets = self.log.replace_with(records)
        for index, slot in enumerate(live):
            slot.offset = offsets[index]
        return before - self.log.size

    def crash(self) -> None:
        """Lose unsynced bytes and rebuild the index from what survived.

        Refcounts restart at zero — the owning tier re-adopts once per
        catalog record it recovers, exactly like a fresh open.
        """
        self.log.crash()
        self._recover_index()

    def sync(self, *, lost: bool = False) -> None:
        """Fsync the segment (watermark not advanced when *lost*)."""
        self.log.sync(lost=lost)

    def __contains__(self, signature: ContentSignature) -> bool:
        return signature in self._by_signature

    def __len__(self) -> int:
        return len(self._by_signature)

    @property
    def physical_bytes(self) -> int:
        """Bytes of live content (one copy per distinct signature)."""
        return sum(slot.size for slot in self._by_signature.values())

    @property
    def logical_bytes(self) -> int:
        """Bytes a non-deduplicating tier would hold (refcount-weighted)."""
        return sum(
            slot.size * slot.refcount
            for slot in self._by_signature.values()
        )

    def _slot(self, signature: ContentSignature) -> DiskSlot:
        try:
            return self._by_signature[signature]
        except KeyError:
            raise StorageError(
                f"no durable content for signature {signature.short}"
            ) from None
