"""The durable L2 tier: demote-on-evict, promote-on-hit, crash-warm restart.

:class:`L2Tier` sits under the in-memory L1 (:class:`~repro.cache.core.
CacheCore`'s entry table + content store) and owns four append-only
segments in one directory:

* ``content.seg`` — a :class:`~repro.storage.store.DiskContentStore` of
  demoted bytes, deduplicated by content signature;
* ``catalog.seg`` — demotion records (entry metadata) and drop
  tombstones; the last record per (document, user) key wins on replay;
* ``journal.seg`` — the disk mirror of the recovery manager's write-back
  journal: one record per buffered write, naming the source signature
  the write replaces, plus flushed tombstones.  It is read once, when a
  cache with a recovery policy opens the directory, into that journal —
  only the writes whose source has not moved since; an in-process
  restart replays the journal itself and never reads the segment;
* ``memo.seg`` — verifier-free transform-memo records, so a restarted
  cache keeps its ``(source, chain) → output`` knowledge.

Every record is a binary :func:`~repro.storage.segment.pack_record`
payload in its kind's layout; replay counts a record that does not
decode in ``corrupt_records_recovered`` and goes on.

**Tiering is exclusive**: eviction *demotes* an entry's bytes and
metadata to disk; a later miss *promotes* them back — removing the disk
copy — instead of fetching and re-running the property chain.

**Every promoted byte is gated.**  The paper's validity question ("is
this copy still valid?") is answered the same way after a restart as
before one: a promotion re-checks the chain signature the reference
would produce today, probes the current source signature, CRC-verifies
the bytes off disk, and re-runs the entry's verifiers.  Records
recovered from a cold catalog carry no live verifier objects, so they
are rebuilt from the reference's properties and *must* match the
recorded verifier fingerprints exactly — any mismatch refuses the
promotion conservatively.

**Failure is absorbed, not propagated.**  Disk faults (write failures,
lying fsyncs, corrupted records, slow I/O — see
:meth:`~repro.faults.plan.FaultPlan.check_disk_write`) count against
the tier's one :class:`~repro.cache.containment.CircuitBreaker`
(storage-tuned config); while it is open every L2 operation is
skipped and the cache falls back to plain L1 semantics.  No read ever
errors because the disk is sick, and no stale or damaged byte is ever
served because every promotion is gated.
"""

from __future__ import annotations

import re
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.cache.containment import BreakerConfig, CircuitBreaker
from repro.cache.core import PROBE_COST_MS, CacheCore
from repro.cache.entry import CacheEntry, EntryKey
from repro.cache.memo import ChainFingerprint, MemoRecord
from repro.cache.policies import StoragePolicy
from repro.cache.recovery import WriteBackJournal
from repro.content.signature import ContentSignature
from repro.contract.cacheability import Cacheability
from repro.contract.verifiers import Verifier
from repro.errors import PlacelessError, StorageError
from repro.ids import DocumentId, ReferenceId, UserId
from repro.placeless.chain import read_plan
from repro.placeless.reference import DocumentReference
from repro.storage.segment import (
    K_DEMOTE,
    K_DROP,
    K_FLUSHED,
    K_JOURNAL,
    K_MEMO,
    LAYOUTS,
    SegmentLog,
    pack_record,
    unpack_record,
)
from repro.storage.store import DiskContentStore

__all__ = ["L2Record", "StorageStats", "L2Tier"]

#: Virtual costs charged per disk record write, record read and fsync
#: (the promote-time source probe costs ``core.PROBE_COST_MS``).
WRITE_COST_MS = 0.4
READ_COST_MS = 0.25
SYNC_COST_MS = 0.5
#: How long a tripped storage breaker keeps the cache L1-only before a
#: half-open retry.
BREAKER_PROBATION_MS = 2_000.0


@dataclass(slots=True)
class L2Record:
    """One demoted entry's metadata, as held in the in-memory catalog."""

    key: EntryKey
    signature: ContentSignature
    size: int
    cacheability: Cacheability
    replacement_cost_ms: float
    chain_signature: tuple[str, ...]
    verifier_fingerprints: tuple[str, ...]
    source_signature: ContentSignature | None
    pinned: bool = False
    #: True when this record was rebuilt from the on-disk catalog (no
    #: live verifier objects); such records are always verified on
    #: their first serve.
    recovered: bool = False
    #: Live verifier objects carried over from the demoted entry;
    #: ``None`` for recovered records, which rebuild them from the
    #: reference's properties at promote time.
    verifiers: "list[Verifier] | None" = None

    def to_payload(self) -> bytes:
        """Serialize for the catalog segment (live verifiers excluded)."""
        source = self.source_signature
        return _keyed(
            self.key, self.signature.digest, self.size,
            self.cacheability.value, self.replacement_cost_ms,
            self.chain_signature, self.verifier_fingerprints,
            None if source is None else source.digest, self.pinned,
        )

    @classmethod
    def from_payload(cls, payload: bytes) -> "L2Record":
        """Rebuild a (recovered, verifier-free) record from the catalog;
        raises :class:`StorageError` on a malformed payload."""
        (key, digest, size, vote, cost, chain, fingerprints, source,
         pinned) = _key_and(K_DEMOTE, payload)
        return cls(
            key=key,
            signature=ContentSignature(digest),
            size=size,
            cacheability=_vote(vote),
            replacement_cost_ms=cost,
            chain_signature=chain,
            verifier_fingerprints=fingerprints,
            source_signature=(
                None if source is None else ContentSignature(source)
            ),
            pinned=pinned,
            recovered=True,
            verifiers=None,
        )


@dataclass
class StorageStats:
    """Counters maintained directly by the tier (its sole writer)."""

    #: Evictions whose bytes + metadata landed in the L2 tier.
    demotions: int = 0
    #: Evictions skipped (no source signature to gate promotion with,
    #: or an identical copy already demoted).
    demote_skips: int = 0
    #: Misses answered by promoting a demoted copy back into L1.
    promotions: int = 0
    #: The subset of promotions served from records recovered across a
    #: crash/restart — the warm-restart signal the A18 bench gates on.
    recovered_promotions: int = 0
    #: Promotions refused because the reference's chain changed.
    promote_chain_mismatches: int = 0
    #: Promotions refused because the probed source signature changed.
    promote_source_mismatches: int = 0
    #: Promotions refused because the bytes failed CRC/digest checks.
    promote_corrupt_drops: int = 0
    #: Promotions refused by a verifier (failed run or unreconstructible
    #: verifier set).
    promote_verifier_drops: int = 0
    #: Verifier executions performed at promote time (every recovered
    #: record's first serve runs here).
    promote_verifier_runs: int = 0
    #: Write-back journal records spilled to disk.
    journal_spills: int = 0
    #: Disk-journal records whose reference, or its source, no longer
    #: resolves.
    journal_unresolved: int = 0
    #: Memo records spilled to disk / reloaded at recover time.
    memo_spills: int = 0
    memo_reloaded: int = 0
    #: Catalog records live after the last recover.
    recovered_entries: int = 0
    #: Corrupt records detected and dropped during recovers (the A18
    #: diskchaos gate: corruption handled, not served).
    corrupt_records_recovered: int = 0
    #: Catalog records dropped at recover because their bytes were lost.
    dropped_records: int = 0
    #: Appends that the fault plan failed outright.
    write_failures: int = 0
    #: Fsyncs that silently lied (watermark not advanced).
    fsyncs_lost: int = 0
    #: Operations skipped because the storage breaker was open — each
    #: one is a read that fell back to L1-only semantics.
    fallback_skips: int = 0
    #: Times the storage breaker tripped open / closed again.
    breaker_trips: int = 0
    breaker_closes: int = 0
    #: Crashes taken and recovers completed.
    crashes: int = 0
    restarts: int = 0
    by_reason: dict[str, int] = field(default_factory=dict)


def _vote(value: int) -> Cacheability:
    """The cacheability a record names; :class:`StorageError` if none."""
    try:
        return Cacheability(value)
    except ValueError:
        raise StorageError(f"no cacheability {value!r}") from None


def _keyed(key: EntryKey, *fields) -> bytes:
    """A payload naming *key* (document, user) before *fields*."""
    return pack_record(key.document_id.value, key.user_id.value, *fields)


def _key_and(kind: int, payload: bytes) -> tuple:
    """Invert :func:`_keyed` for a *kind* record: ``(key, *fields)``."""
    document, user, *fields = unpack_record(LAYOUTS[kind], payload)
    return (EntryKey(DocumentId(document), UserId(user)), *fields)


def _memo_payload(record: MemoRecord) -> bytes:
    """A memo segment payload for *record* (its verifiers excluded)."""
    return pack_record(
        record.source_signature.digest, record.fingerprint.digest,
        record.output_signature.digest,
        record.size, record.cacheability.value, record.replacement_cost_ms,
        record.chain_signature, record.pinned,
    )


def _memo_record(payload: bytes) -> MemoRecord:
    """Invert :func:`_memo_payload`; raises :class:`StorageError`."""
    source, fingerprint, output, size, vote, cost, chain, pinned = (
        unpack_record(LAYOUTS[K_MEMO], payload)
    )
    return MemoRecord(
        source_signature=ContentSignature(source),
        fingerprint=ChainFingerprint(fingerprint),
        output_signature=ContentSignature(output),
        size=size,
        cacheability=_vote(vote),
        replacement_cost_ms=cost,
        chain_signature=chain,
        pinned=pinned,
    )


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name) or "cache"


class L2Tier:
    """One cache's durable tier: four segments + the storage breaker."""

    def __init__(self, core: "CacheCore", policy: "StoragePolicy") -> None:
        self.core = core
        #: Written directly by the tier, not derived from stage events.
        self.stats = core.metrics["storage"] = StorageStats()
        if policy.directory is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-l2-")
            directory = Path(self._tmp.name)
        else:
            self._tmp = None
            directory = Path(policy.directory) / _sanitize(core.name)
        self.directory = directory
        try:
            # Locked first: a refused tier opens none of the live one's files.
            self.catalog_log = SegmentLog(directory / "catalog.seg")
            self.catalog_log.lock()
            self.disk = DiskContentStore(directory / "content.seg")
            self.journal_log = SegmentLog(directory / "journal.seg")
            self.memo_log = SegmentLog(directory / "memo.seg")
        except OSError as error:
            raise StorageError(
                f"storage directory {directory} is unusable: {error}"
            ) from error
        #: The tier's one storage breaker.
        self.breaker = CircuitBreaker(BreakerConfig(
            failure_threshold=policy.breaker_failure_threshold,
            probation_delay_ms=BREAKER_PROBATION_MS,
            half_open_successes=1,
        ))
        self._catalog: dict[EntryKey, L2Record] = {}
        # Corrupt content drops already credited to the stats; the
        # content index rebuilds both at open and inside crash(), so
        # recover() credits the delta since the last recovery rather
        # than since its own entry (crash-rebuild drops must count).
        self._disk_corrupt_seen = 0
        # A tier opened over an existing directory starts warm: the
        # catalog and memo segments are replayed and the journal loaded
        # immediately (a fresh directory scans empty and stays cold).
        self.recover(restart=False)

    # -- breaker gating --------------------------------------------------------

    @property
    def breaker_open(self) -> bool:
        """True while the storage breaker refuses disk operations.  A pure
        query: looking never turns the breaker half-open."""
        return self.breaker.refuses(self.core.ctx.clock.now_ms)

    def _allow(self, site: str) -> bool:
        if self.breaker.allow(self.core.ctx.clock.now_ms):
            return True
        self.stats.fallback_skips += 1
        self.core.emit("storage", "fallback", site=site)
        return False

    def _ok(self) -> None:
        if self.breaker.record_success():
            self.stats.breaker_closes += 1
            self.core.emit("storage", "breaker-closed")

    def _fail(self, site: str) -> None:
        if self.breaker.record_failure(self.core.ctx.clock.now_ms):
            self.stats.breaker_trips += 1
            self.core.emit("storage", "breaker-open", site=site)

    # -- fault-plan seams ------------------------------------------------------

    def _target(self, site: str) -> str:
        return f"{self.core.cache_id}:{site}"

    def _charge_io(self, site: str, cost_ms: float) -> None:
        plan = self.core.ctx.faults
        delay = 0.0
        if plan is not None:
            delay = plan.disk_io_delay_ms(self._target(site))
        self.core.ctx.charge(cost_ms + delay)

    def _write_fault(self, site: str) -> str | None:
        plan = self.core.ctx.faults
        if plan is None:
            return None
        return plan.check_disk_write(self._target(site))

    def _sync(self, site: str, *logs: SegmentLog) -> bool:
        """Fsync *logs* with one shared lost-draw; returns True if lost."""
        plan = self.core.ctx.faults
        lost = (
            plan.check_disk_sync(self._target(site))
            if plan is not None else False
        )
        if lost:
            self.stats.fsyncs_lost += 1
        self.core.ctx.charge(SYNC_COST_MS)
        for log in logs:
            log.sync(lost=lost)
        return lost

    # -- demote-on-evict -------------------------------------------------------

    def demote(self, entry: "CacheEntry", content: bytes) -> None:
        """Eviction hook: spill the victim's bytes + metadata to disk."""
        source = entry.source_signature
        if source is None:
            # Without a recorded source signature a promotion could not
            # probe for out-of-band changes — safer to just miss.
            self.stats.demote_skips += 1
            return
        existing = self._catalog.get(entry.key)
        if existing is not None and existing.signature == entry.signature:
            # Identical bytes already demoted: refresh the live sidecar
            # and skip the disk write.
            existing.verifiers = list(entry.verifiers)
            existing.recovered = False
            self.stats.demote_skips += 1
            return
        if not self._allow("demote"):
            return
        self._charge_io("demote", WRITE_COST_MS)
        action = self._write_fault("demote")
        if action == "fail":
            self.stats.write_failures += 1
            self._fail("demote")
            self.core.emit("storage", "write-failed", key=entry.key)
            return
        record = L2Record(
            key=entry.key,
            signature=entry.signature,
            size=entry.size,
            cacheability=entry.cacheability,
            replacement_cost_ms=entry.replacement_cost_ms,
            chain_signature=entry.chain_signature,
            verifier_fingerprints=tuple(
                verifier.fingerprint() for verifier in entry.verifiers
            ),
            source_signature=source,
            pinned=entry.pinned,
            verifiers=list(entry.verifiers),
        )
        if existing is not None:
            # Superseding demotion: release the old bytes; the new
            # catalog record replaces the old one on replay (last wins).
            self._forget(existing)
        self.disk.put_signed(
            content, entry.signature, corrupt=(action == "corrupt")
        )
        self.catalog_log.append(K_DEMOTE, record.to_payload())
        self._sync("demote", self.disk.log, self.catalog_log)
        self._catalog[entry.key] = record
        self.stats.demotions += 1
        self._ok()
        self.core.emit(
            "storage", "demoted", key=entry.key, bytes=entry.size
        )

    # -- promote-on-hit --------------------------------------------------------

    def promote(self, key: EntryKey, reference: "DocumentReference"):
        """Miss hook (the pipeline's L2 step): try *key*'s demoted copy.

        Returns ``None`` to fall through to the memo/fetch steps, or
        the ``(record, content, verifiers)`` that passed all four
        validity gates, for the step to install and then
        :meth:`retire`.  Every gate that refuses also drops the
        record — a demoted copy that failed any validity check is dead
        weight, never a second chance to serve stale bytes.
        """
        record = self._catalog.get(key)
        if record is None:
            return None
        core = self.core
        if not self._allow("promote"):
            return None
        # Gate 1 — the chain this reference would run today must match
        # the chain that produced the demoted bytes (invalidation
        # classes b/c: property add/remove/modify/reorder).
        if read_plan(reference).chain_signature != record.chain_signature:
            self._drop_record(record, "chain-changed")
            self.stats.promote_chain_mismatches += 1
            return None
        # Gate 2 — probe the *current* source signature (class a: the
        # source changed while the copy sat on disk).
        core.ctx.charge(PROBE_COST_MS)
        if reference.base.provider.peek_signature() != (
            record.source_signature
        ):
            self._drop_record(record, "source-changed")
            self.stats.promote_source_mismatches += 1
            return None
        # Gate 3 — the bytes themselves, CRC- and digest-checked.
        self._charge_io("promote", READ_COST_MS)
        try:
            content = self.disk.get(record.signature)
        except StorageError:
            self.disk.drop(record.signature)
            self._drop_record(record, "corrupt", release=False)
            self.stats.promote_corrupt_drops += 1
            self._fail("promote")
            self.core.emit("storage", "corrupt-dropped", key=key)
            return None
        # Gate 4 — verifiers (class d: external conditions).  Recovered
        # records rebuild them from the reference's properties and must
        # match the recorded fingerprints exactly.
        verifiers = self._verifiers_for(record, reference)
        if verifiers is None:
            self._drop_record(record, "verifiers-unreconstructible")
            self.stats.promote_verifier_drops += 1
            return None
        if core.use_verifiers and verifiers:
            runs_before = core.stats.verifier_executions
            agreed = core.verifiers_agree(
                key, verifiers, content, faulted=True
            )
            self.stats.promote_verifier_runs += (
                core.stats.verifier_executions - runs_before
            )
            if not agreed:
                self._drop_record(record, "verifier-refused")
                self.stats.promote_verifier_drops += 1
                self.core.emit("storage", "verifier-dropped", key=key)
                return None
        self._ok()
        return record, content, verifiers

    def retire(self, record: L2Record) -> None:
        """Promotion hook: *record*'s copy is live in L1 again.  Tiering
        is exclusive, so it leaves the catalog (tombstoned on disk)."""
        self.stats.promotions += 1
        if record.recovered:
            self.stats.recovered_promotions += 1
        self._drop_record(record, "promoted")

    def _verifiers_for(
        self, record: L2Record, reference: "DocumentReference"
    ) -> "list[Verifier] | None":
        """The record's verifier set, live or rebuilt; ``None`` refuses.

        A recovered record holds only fingerprints.  The same sources
        that minted the fill-time verifiers mint fresh ones — the
        provider first, then the chain properties, mirroring how the
        read path accumulates ``PathMeta.verifiers`` — and their
        fingerprints cover code identity + configuration, so an exact
        tuple match proves the rebuilt set checks the same conditions
        the demoted entry's did.  Anything else (property gone,
        verifier reconfigured) refuses conservatively.  Observed state
        inside a rebuilt verifier is *current* rather than fill-time,
        which is sound here: the promote path has already probed that
        the source bytes are unchanged since the demotion.
        """
        if record.verifiers is not None:
            return record.verifiers
        minted = [reference.base.provider.make_verifier()]
        minted.extend(
            prop.make_verifier()
            for prop in read_plan(reference).chain
        )
        rebuilt = [
            verifier for verifier in minted if verifier is not None
        ]
        fingerprints = tuple(
            verifier.fingerprint() for verifier in rebuilt
        )
        if fingerprints != record.verifier_fingerprints:
            return None
        return rebuilt

    # -- drops -----------------------------------------------------------------

    def drop(self, key: EntryKey) -> None:
        """Invalidation drop-through: a kill for *key* also kills the
        demoted copy (notifier/explicit invalidations must not leave a
        resurrectable stale copy on disk)."""
        record = self._catalog.get(key)
        if record is None:
            return
        self._drop_record(record, "invalidated")

    def _forget(self, record: L2Record, *, release: bool = True) -> None:
        self._catalog.pop(record.key, None)
        if release:
            try:
                self.disk.release(record.signature)
            except StorageError:
                pass

    def _drop_record(
        self, record: L2Record, reason: str, *, release: bool = True
    ) -> None:
        """Remove a catalog record and tombstone it on disk.

        A tombstone write that fails (or whose fsync is lost) is safe:
        the record could reappear after a crash, but every promotion is
        gated on chain/source/CRC/verifier checks, so a resurrected
        record can never serve a stale byte — it just wastes one probe.
        """
        self._forget(record, release=release)
        self.stats.by_reason[reason] = (
            self.stats.by_reason.get(reason, 0) + 1
        )
        if self._write_fault("tombstone") is not None:
            self.stats.write_failures += 1
            return
        self.catalog_log.append(K_DROP, _keyed(record.key))
        self._sync("tombstone", self.catalog_log)

    # -- journal / memo spill --------------------------------------------------

    def spill_journal_append(
        self,
        key: EntryKey,
        reference: "DocumentReference",
        content: bytes,
    ) -> None:
        """Journal hook: mirror one buffered write onto disk."""
        if not self._allow("journal"):
            return
        self._charge_io("journal", WRITE_COST_MS)
        action = self._write_fault("journal")
        if action == "fail":
            self.stats.write_failures += 1
            self._fail("journal")
            return
        # The source this write replaces: while the source still signs
        # the same at open, no flush of the write (and no other writer)
        # has reached it.
        base = reference.base.provider.peek_signature()
        payload = _keyed(
            key, reference.reference_id.value, base.digest, bytes(content)
        )
        self.journal_log.append(
            K_JOURNAL, payload, corrupt=(action == "corrupt")
        )
        if self._sync("journal", self.journal_log):
            # The fsync lied.  Re-append and sync honestly — if the
            # first frame actually reached the platter this produces a
            # duplicated tail record, which the open-time load
            # tolerates: it keeps the latest record per key.
            self.journal_log.append(K_JOURNAL, payload)
            self._sync("journal-retry", self.journal_log)
        self.stats.journal_spills += 1
        self._ok()

    def spill_journal_flushed(self, key: EntryKey) -> None:
        """Flush hook: tombstone the key's spilled journal records.

        The flush already retired the write from the in-memory journal,
        which is all an in-process restart replays.  A lost tombstone
        costs nothing either: the flush moved the source off the
        signature the record names, so the next cache that opens this
        directory does not load the record.
        """
        if not self._allow("journal"):
            return
        self._charge_io("journal", WRITE_COST_MS)
        if self._write_fault("flushed") is not None:
            self.stats.write_failures += 1
            return
        self.journal_log.append(K_FLUSHED, _keyed(key))
        self._sync("flushed", self.journal_log)

    def spill_memo(self, record: MemoRecord) -> None:
        """Memo hook: persist one verifier-free memo record.

        Records carrying live verifier objects are not serializable —
        and a reloaded record without its verifiers would dodge class
        (d) checks — so only verifier-free records spill.
        """
        if record.verifiers:
            return
        if not self._allow("memo"):
            return
        self._charge_io("memo", WRITE_COST_MS)
        action = self._write_fault("memo")
        if action == "fail":
            self.stats.write_failures += 1
            self._fail("memo")
            return
        self.memo_log.append(
            K_MEMO, _memo_payload(record), corrupt=(action == "corrupt")
        )
        self._sync("memo", self.memo_log)
        self.stats.memo_spills += 1
        self._ok()

    def materialize_bytes(self, signature: ContentSignature) -> bytes | None:
        """Memo-plane extension: pull recorded output bytes off disk.

        Leaves exactly one L1 store reference (``put_signed``) that the
        serving entry takes over, per the
        :meth:`~repro.cache.memo.TransformMemo.materialize` contract.
        """
        if signature not in self.disk:
            return None
        if not self._allow("materialize"):
            return None
        self._charge_io("materialize", READ_COST_MS)
        try:
            content = self.disk.get(signature)
        except StorageError:
            self.disk.drop(signature)
            self._fail("materialize")
            self.core.emit("storage", "corrupt-dropped")
            return None
        self.core.store.put_signed(content, signature)
        self._ok()
        self.core.emit("storage", "materialized", bytes=len(content))
        return content

    def close(self) -> None:
        """Release the four segment descriptors, and the directory when
        the tier made its own; idempotent.  Disk I/O raises after."""
        for log in (
            self.disk.log, self.catalog_log, self.journal_log, self.memo_log
        ):
            log.close()
        if self._tmp is not None:
            self._tmp.cleanup()

    # -- crash / recover -------------------------------------------------------

    def crash(self) -> None:
        """Process death: unsynced bytes vanish, volatile catalog too."""
        self.disk.crash()
        for log in (self.catalog_log, self.journal_log, self.memo_log):
            log.crash()
        self._catalog.clear()
        self.stats.crashes += 1

    def recover(self, *, restart: bool = True) -> int:
        """Rebuild the catalog and reload the memo; at open, also load
        the journal.

        Every recovered catalog record is marked ``recovered`` — its
        first promotion re-runs verifiers unconditionally (the paper's
        "is this copy still valid?" answered after disconnection).
        ``journal.seg`` is read only at open (``restart=False``), and
        only by a cache with a recovery policy: after an in-process
        crash the recovery journal holds every unflushed write the
        segment does and none a flush retired, and a cache without one
        could never retire what it replayed.
        Returns the number of live catalog records.
        """
        core = self.core
        # The content index rebuilt at open/crash time; refcounts are
        # re-derived below, one adopt per surviving catalog record.
        catalog_records, corrupt = self.catalog_log.scan_records()
        self.stats.corrupt_records_recovered += corrupt
        self._catalog.clear()
        for kind, payload, _ in catalog_records:
            try:
                if kind == K_DEMOTE:
                    record = L2Record.from_payload(payload)
                    self._catalog[record.key] = record
                elif kind == K_DROP:
                    (key,) = _key_and(K_DROP, payload)
                    self._catalog.pop(key, None)
            except StorageError:
                self.stats.corrupt_records_recovered += 1
        # Records whose bytes were lost to a crash or corruption are
        # dead; survivors re-take their content references.
        for key, record in list(self._catalog.items()):
            if record.signature not in self.disk:
                del self._catalog[key]
                self.stats.dropped_records += 1
                continue
            self.disk.adopt(record.signature)
        self.stats.corrupt_records_recovered += (
            self.disk.corrupt_dropped - self._disk_corrupt_seen
        )
        self._disk_corrupt_seen = self.disk.corrupt_dropped
        self.stats.recovered_entries = len(self._catalog)
        if not restart and core.recovery is not None:
            self._load_journal(core.recovery.journal)
            core.recovery.replay_journal()
        self._reload_memo()
        if restart:
            self.stats.restarts += 1
            core.emit(
                "storage", "recovered",
                entries=len(self._catalog),
            )
        return len(self._catalog)

    def _load_journal(self, journal: "WriteBackJournal") -> None:
        """Latest unflushed spilled write per key → the recovery journal
        (tolerating the duplicated tail an fsync-lost retry leaves).

        A write whose source no longer signs as the record says is not
        loaded, tombstoned or not: either its flush landed or another
        writer superseded it, and replaying it would put old bytes over
        newer ones.
        """
        records, corrupt = self.journal_log.scan_records()
        self.stats.corrupt_records_recovered += corrupt
        latest: dict[EntryKey, tuple[str, str, bytes]] = {}
        for kind, payload, _ in records:
            try:
                if kind == K_JOURNAL:
                    key, reference_id, base, content = _key_and(
                        K_JOURNAL, payload
                    )
                    latest[key] = (reference_id, base, content)
                elif kind == K_FLUSHED:
                    (key,) = _key_and(K_FLUSHED, payload)
                    latest.pop(key, None)
            except StorageError:
                self.stats.corrupt_records_recovered += 1
        spaces = self.core.kernel.space
        for key, (reference_id, base, content) in latest.items():
            try:
                reference = spaces(key.user_id).get(ReferenceId(reference_id))
                source = reference.base.provider.peek_signature()
            except PlacelessError:
                self.stats.journal_unresolved += 1
                continue
            if source.digest == base:
                journal.append(key, reference, content)

    def _reload_memo(self) -> None:
        """Verifier-free memo records back into the live memo table.

        A malformed record — one without an output digest among them: a
        memo record must name bytes a serve can adopt — is counted,
        never reloaded.
        """
        core = self.core
        records, corrupt = self.memo_log.scan_records()
        self.stats.corrupt_records_recovered += corrupt
        if core.memo is None:
            return
        for kind, payload, _ in records:
            if kind != K_MEMO:
                continue
            try:
                record = _memo_record(payload)
            except StorageError:
                self.stats.corrupt_records_recovered += 1
                continue
            core.memo.record(record)
            self.stats.memo_reloaded += 1

    # -- inspection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._catalog)

    def __contains__(self, key: EntryKey) -> bool:
        return key in self._catalog
