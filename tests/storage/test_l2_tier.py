"""The durable L2 tier through the cache: demote, promote, crash, degrade."""

from __future__ import annotations

import gc
import json
import os
import shutil
import struct
import tempfile

import pytest

from repro.bench.persistence import SMOKE, run_arm
from repro.cache.containment import BreakerState
from repro.cache.entry import EntryKey
from repro.cache.manager import DocumentCache
from repro.cache.memo import ChainFingerprint, MemoRecord
from repro.cache.pipeline import WriteMode
from repro.cache.policies import (
    DefaultMemoPolicy,
    DefaultRecoveryPolicy,
    DefaultStoragePolicy,
    StoragePolicy,
)
from repro.cluster import CacheCluster
from repro.content.signature import sign
from repro.contract.cacheability import Cacheability
from repro.errors import StorageError
from repro.faults.plan import FaultPlan
from repro.ids import DocumentId
from repro.placeless.chain import read_plan
from repro.placeless.kernel import PlacelessKernel
from repro.properties.audit import ReadAuditTrailProperty
from repro.properties.external import ExternalDependencyProperty
from repro.providers.memory import MemoryProvider
from repro.storage import (
    K_CONTENT,
    K_DEMOTE,
    K_DROP,
    K_FLUSHED,
    K_JOURNAL,
    K_MEMO,
    SegmentLog,
)
from repro.storage.segment import HEADER_SIZE, pack_record
from repro.storage.tier import BREAKER_PROBATION_MS


def _deployment(
    n_docs=6, slots=2, *, faults=None, storage=None, contents=None,
    **cache_kwargs,
):
    """*n_docs* same-sized documents over an L1 holding *slots* of them;
    *contents*, when given, is what their repository holds at start."""
    kernel = PlacelessKernel()
    if faults is not None:
        kernel.ctx.faults = FaultPlan(kernel.ctx.clock, **faults)
    user = kernel.create_user("alice")
    providers, references = [], []
    for i in range(n_docs):
        content = f"doc-{i:02d}:".encode() + bytes(range(200))
        if contents is not None:
            content = contents[i]
        provider = MemoryProvider(kernel.ctx, content)
        providers.append(provider)
        references.append(kernel.import_document(user, provider, f"d{i}"))
    size = len(providers[0].peek())
    cache = DocumentCache(
        kernel,
        capacity_bytes=slots * size,
        storage_policy=(
            storage if storage is not None else DefaultStoragePolicy()
        ),
        **cache_kwargs,
    )
    return kernel, cache, providers, references


@pytest.fixture
def deployment():
    """:func:`_deployment`, with every cache it built shut down when the
    test ends: tier files closed and the tier's private directory
    removed, not left to the collector."""
    caches: list[DocumentCache] = []

    def build(*args, **kwargs):
        world = _deployment(*args, **kwargs)
        caches.append(world[1])
        return world

    yield build
    for cache in caches:
        cache.shutdown()


class TestWiring:
    def test_off_by_default(self):
        cache = DocumentCache(PlacelessKernel(), capacity_bytes=1024)
        assert cache.storage is None
        assert cache.storage_stats is None

    def test_tier_present_with_policy(self, deployment):
        _, cache, _, _ = deployment()
        assert cache.storage is not None
        assert len(cache.storage) == 0


class TestDemotePromote:
    def test_eviction_demotes_to_disk(self, deployment):
        _, cache, providers, references = deployment()
        for reference in references:
            cache.read(reference)
        stats = cache.storage_stats
        assert stats.demotions == 4  # 6 docs through 2 slots
        assert len(cache.storage) == 4

    def test_promote_serves_without_refetch(self, deployment):
        _, cache, providers, references = deployment()
        for reference in references:
            cache.read(reference)
        outcome = cache.read(references[0])
        assert outcome.disposition == "miss-promoted"
        assert outcome.content == providers[0].peek()
        assert cache.storage_stats.promotions == 1

    def test_promotion_is_forwarded_to_the_audit_trail(self):
        # A promotion answers the read without the kernel, like a hit:
        # the audit trail must still hear it, as a forwarded read.
        kernel = PlacelessKernel()
        user = kernel.create_user("alice")
        references, trails = [], []
        for i in range(3):
            reference = kernel.import_document(
                user, MemoryProvider(kernel.ctx, bytes([65 + i]) * 4_000),
                f"d{i}",
            )
            trails.append(reference.attach(ReadAuditTrailProperty()))
            references.append(reference)
        cache = DocumentCache(
            kernel, capacity_bytes=9_000,
            storage_policy=DefaultStoragePolicy(),
        )
        try:
            outcomes = [cache.read(references[i]) for i in (0, 1, 2, 0)]
        finally:
            cache.shutdown()
        assert outcomes[-1].disposition == "miss-promoted"
        assert [record.via_cache for record in trails[0].trail] == [
            False, True,
        ]

    def test_tiering_is_exclusive(self, deployment):
        _, cache, _, references = deployment()
        for reference in references:
            cache.read(reference)
        key = EntryKey.for_reference(
            _demoted_references(cache, references)[0]
        )
        assert key in cache.storage
        # Promoting the entry moves it back up: the L2 record is dropped.
        for reference in references:
            outcome = cache.read(reference)
            if outcome.disposition == "miss-promoted" and (
                key not in cache.storage
            ):
                break
        assert key not in cache.storage

    def test_verify_on_promote_runs_verifiers(self, deployment):
        _, cache, _, references = deployment()
        for reference in references:
            cache.read(reference)
        cache.read(references[0])
        assert cache.storage_stats.promote_verifier_runs >= 1

    def test_promote_refuses_changed_source(self, deployment):
        _, cache, providers, references = deployment()
        for reference in references:
            cache.read(reference)
        # Out-of-band mutation: no notification reaches the cache, the
        # demoted copy on disk is silently stale.
        providers[0].store(b"rewritten behind the cache's back")
        outcome = cache.read(references[0])
        assert outcome.content == b"rewritten behind the cache's back"
        assert outcome.disposition != "miss-promoted"
        assert cache.storage_stats.promote_source_mismatches == 1

    def test_promote_probes_an_unchanged_source_without_rehashing(
        self, deployment, md5_calls
    ):
        _, cache, _, references = deployment()
        for reference in references:
            cache.read(reference)
        read_plan(references[0])  # the chain fingerprint, hashed once
        md5_calls.clear()
        key = EntryKey.for_reference(references[0])
        assert cache.storage.promote(key, references[0]) is not None
        # Only the disk bytes' CRC and digest check hashes: the source
        # probe answers from the provider's signature memo.
        assert len(md5_calls) == 1


class TestCrashRestart:
    def test_restart_recovers_demoted_entries(self, deployment):
        _, cache, providers, references = deployment()
        for reference in references:
            cache.read(reference)
        demoted = len(cache.storage)
        cache.crash()
        assert len(cache.storage) == 0  # volatile catalog gone
        cache.restart()
        stats = cache.storage_stats
        assert stats.recovered_entries == demoted
        assert stats.restarts == 1

    def test_recovered_entry_is_verifier_gated_on_first_serve(
        self, deployment
    ):
        _, cache, providers, references = deployment()
        for reference in references:
            cache.read(reference)
        cache.crash()
        cache.restart()
        runs_before = cache.storage_stats.promote_verifier_runs
        outcome = cache.read(references[0])
        assert outcome.disposition == "miss-promoted"
        assert outcome.content == providers[0].peek()
        assert cache.storage_stats.recovered_promotions == 1
        assert cache.storage_stats.promote_verifier_runs == runs_before + 1

    def test_recovered_entry_refuses_changed_source(self, deployment):
        _, cache, providers, references = deployment()
        for reference in references:
            cache.read(reference)
        cache.crash()
        providers[0].store(b"changed while the cache was down")
        cache.restart()
        outcome = cache.read(references[0])
        assert outcome.content == b"changed while the cache was down"
        assert outcome.disposition != "miss-promoted"

    def test_recovered_entry_refuses_a_changed_external_condition(
        self, deployment
    ):
        # Class (d): the verifier rebuilt at promote time would snapshot
        # the value as it is now and pass; its fingerprint carries the
        # snapshot, so it no longer matches the demoted entry's.
        value = [0]
        kernel, cache, _, references = deployment()
        references[0].attach(ExternalDependencyProperty(lambda: value[0]))
        for reference in references:
            cache.read(reference)
        assert EntryKey.for_reference(references[0]) in cache.storage
        cache.crash()
        cache.restart()
        value[0] = 1
        outcome = cache.read(references[0])
        assert outcome.content == kernel.read(references[0]).content
        assert outcome.disposition == "miss"
        assert cache.storage_stats.promote_verifier_drops == 1

    def test_unsynced_demotions_do_not_survive_a_lying_fsync(self, deployment):
        _, cache, _, references = deployment(
            faults={"seed": 7, "disk_fsync_lost_probability": 1.0},
        )
        for reference in references:
            cache.read(reference)
        assert cache.storage_stats.demotions == 4
        cache.crash()
        cache.restart()
        # Every fsync lied, so nothing on disk was durable: recovery
        # comes back empty rather than trusting ghost records.
        assert cache.storage_stats.recovered_entries == 0


class TestDegradation:
    def test_breaker_trips_to_l1_only_and_reads_stay_correct(self, deployment):
        _, cache, providers, references = deployment(
            faults={"seed": 7, "disk_write_fail_probability": 1.0},
        )
        for index, reference in enumerate(references):
            assert cache.read(reference).content == providers[index].peek()
        stats = cache.storage_stats
        assert stats.write_failures >= 3
        assert stats.breaker_trips == 1
        assert cache.storage.breaker_open
        assert len(cache.storage) == 0  # nothing ever landed on disk
        # Further evictions skip the disk entirely (L1-only fallback).
        skips_before = stats.fallback_skips
        for index, reference in enumerate(references):
            assert cache.read(reference).content == providers[index].peek()
        assert stats.fallback_skips > skips_before

    def test_reading_the_breaker_never_starts_its_probation(
        self, deployment
    ):
        kernel, cache, _, references = deployment(
            faults={"seed": 7, "disk_write_fail_probability": 1.0},
        )
        for reference in references:
            cache.read(reference)
        tier = cache.storage
        assert tier.breaker_open
        kernel.ctx.clock.advance(BREAKER_PROBATION_MS + 1.0)
        # Past probation the next disk operation may probe, so the
        # breaker no longer refuses — but looking must not pick the
        # probe: the state stays OPEN however often it is read.
        assert not tier.breaker_open
        assert not tier.breaker_open
        assert tier.breaker.state is BreakerState.OPEN


class TestJournalSpill:
    """``journal.seg`` mirrors the recovery journal and is read only when
    a cache opens its directory; process death is a second cache over
    the same ``StoragePolicy(directory=...)``."""

    def _write_back_cache(self, deployment, storage=None, *, recovery=True):
        return deployment(
            write_mode=WriteMode.WRITE_BACK,
            use_verifiers=False,
            recovery_policy=DefaultRecoveryPolicy() if recovery else None,
            slots=6,
            storage=storage,
        )

    def test_spilled_journal_replays_after_total_process_loss(
        self, deployment, tmp_path
    ):
        storage = StoragePolicy(directory=str(tmp_path))
        _, first, _, references = self._write_back_cache(deployment, storage)
        first.write(references[0], b"acknowledged-write")
        assert first.storage_stats.journal_spills == 1
        # Full process death: the in-memory journal is gone; only what
        # the tier spilled to disk survives, for the next process.
        first.shutdown()
        _, cache, providers, _ = self._write_back_cache(deployment, storage)
        assert cache.recovery_stats.journal_replayed == 1
        cache.flush_all()
        assert providers[0].peek() == b"acknowledged-write"

    def test_duplicated_tail_replays_once(self, deployment, tmp_path):
        storage = StoragePolicy(directory=str(tmp_path))
        _, first, _, references = self._write_back_cache(deployment, storage)
        first.write(references[0], b"acknowledged-write")
        log = first.storage.journal_log
        records, _ = log.scan_records()
        kind, payload, _ = records[-1]
        assert kind == K_JOURNAL
        # The exact shape an fsync-lost spill retry leaves behind: the
        # same journal frame appended twice, both durable.
        log.append(K_JOURNAL, payload)
        log.sync()
        first.shutdown()
        _, cache, providers, _ = self._write_back_cache(deployment, storage)
        assert cache.recovery_stats.journal_replayed == 1
        flushes_before = cache.stats.flushes
        cache.flush_all()
        assert cache.stats.flushes == flushes_before + 1
        assert providers[0].peek() == b"acknowledged-write"

    def test_flushed_writes_are_not_replayed(self, deployment, tmp_path):
        storage = StoragePolicy(directory=str(tmp_path))
        _, first, _, references = self._write_back_cache(deployment, storage)
        first.write(references[0], b"flushed-before-crash")
        first.flush(references[0])
        first.shutdown()
        _, cache, _, _ = self._write_back_cache(deployment, storage)
        assert cache.recovery_stats.journal_replayed == 0
        assert cache.dirty_count == 0

    def test_in_memory_journal_coalesces_duplicated_tail(self, deployment):
        _, cache, _, references = self._write_back_cache(deployment)
        journal = cache.recovery.journal
        cache.write(references[0], b"same bytes")
        [(key, (reference, _))] = journal.pending.items()
        # The spill-retry shape at the in-memory layer: re-appending the
        # same bytes for the same key changes nothing.
        journal.append(key, reference, b"same bytes")
        assert journal.pending == {key: (reference, b"same bytes")}

    def test_opening_a_directory_replays_each_unflushed_write_once(
        self, deployment, tmp_path
    ):
        storage = StoragePolicy(directory=str(tmp_path))
        _, first, _, references = self._write_back_cache(deployment, storage)
        for index, reference in enumerate(references[:3]):
            first.write(reference, b"first %d" % index)
            first.write(reference, b"second %d" % index)
        first.write(references[3], b"flushed")
        first.flush(references[3])
        first.shutdown()
        _, cache, providers, _ = self._write_back_cache(deployment, storage)
        # Construction ends with the three latest writes dirty, replayed
        # once, by the recovery journal.
        assert cache.dirty_count == 3
        assert cache.recovery_stats.journal_replayed == 3
        assert len(cache.recovery.journal) == 3
        assert cache.flush_all() == 3
        assert [provider.peek() for provider in providers[:3]] == [
            b"second 0", b"second 1", b"second 2",
        ]

    def test_an_in_process_restart_never_reads_the_disk_journal(
        self, deployment, monkeypatch
    ):
        _, cache, _, references = self._write_back_cache(deployment)
        cache.write(references[0], b"unflushed")
        log = cache.storage.journal_log
        scans = []
        scan = log.scan_records
        monkeypatch.setattr(
            log, "scan_records", lambda: scans.append(1) or scan()
        )
        cache.crash()
        assert cache.restart() == 1
        assert scans == []
        assert cache.recovery_stats.journal_replayed == 1


class TestOneJournal:
    """Regressions: a second replay from ``journal.seg`` beside the
    recovery journal's brought flushed writes back and repeated itself."""

    @pytest.mark.parametrize(
        "fault",
        [
            {"disk_write_fail_probability": 1.0},
            {"disk_fsync_lost_probability": 1.0},
        ],
        ids=["write-fault", "lost-fsync"],
    )
    def test_a_flushed_write_does_not_come_back_after_a_restart(
        self, deployment, fault
    ):
        kernel, cache, providers, references = deployment(
            write_mode=WriteMode.WRITE_BACK,
            use_verifiers=False,
            recovery_policy=DefaultRecoveryPolicy(),
            slots=6,
        )
        cache.write(references[0], b"flushed, then superseded")
        # The flush reaches the server, but its K_FLUSHED tombstone
        # never becomes durable.
        kernel.ctx.faults = FaultPlan(kernel.ctx.clock, seed=1, **fault)
        assert cache.flush(references[0])
        kernel.ctx.faults = None
        other = kernel.create_user("bob")
        theirs = kernel.space(other).add_reference(references[0].base)
        kernel.write(theirs, b"newer, by another writer")
        cache.crash()
        assert cache.restart() == 0
        assert cache.recovery_stats.journal_replayed == 0
        assert cache.flush_all() == 0
        assert providers[0].peek() == b"newer, by another writer"

    @pytest.mark.parametrize(
        "fault",
        [
            {"disk_write_fail_probability": 1.0},
            {"disk_fsync_lost_probability": 1.0},
        ],
        ids=["write-fault", "lost-fsync"],
    )
    def test_a_flushed_write_does_not_come_back_across_process_death(
        self, deployment, tmp_path, fault
    ):
        world = dict(
            write_mode=WriteMode.WRITE_BACK,
            use_verifiers=False,
            recovery_policy=DefaultRecoveryPolicy(),
            slots=6,
            storage=StoragePolicy(directory=str(tmp_path)),
        )
        kernel, first, providers, references = deployment(**world)
        first.write(references[0], b"flushed, then superseded")
        # The flush reaches the server, but its K_FLUSHED tombstone
        # never becomes durable.
        kernel.ctx.faults = FaultPlan(kernel.ctx.clock, seed=1, **fault)
        assert first.flush(references[0])
        kernel.ctx.faults = None
        first.shutdown()
        other = kernel.create_user("bob")
        theirs = kernel.space(other).add_reference(references[0].base)
        kernel.write(theirs, b"newer, by another writer")
        # The next process: a second cache over the same directory, in a
        # world whose repository kept what the first one's held.
        _, cache, survivors, _ = deployment(
            contents=[provider.peek() for provider in providers], **world
        )
        assert cache.recovery_stats.journal_replayed == 0
        assert cache.dirty_count == 0
        assert cache.flush_all() == 0
        assert survivors[0].peek() == b"newer, by another writer"

    def test_a_cache_without_recovery_leaves_the_disk_journal_unread(
        self, deployment, tmp_path
    ):
        storage = StoragePolicy(directory=str(tmp_path))
        _, first, _, references = deployment(
            write_mode=WriteMode.WRITE_BACK,
            use_verifiers=False,
            recovery_policy=DefaultRecoveryPolicy(),
            slots=6,
            storage=storage,
        )
        first.write(references[0], b"unflushed, by another process")
        first.shutdown()
        _, cache, providers, _ = deployment(
            write_mode=WriteMode.WRITE_BACK,
            use_verifiers=False,
            slots=6,
            storage=storage,
        )
        original = providers[0].peek()
        # Without a recovery journal nothing could retire a replayed
        # record, so every restart would push the old bytes again.
        for _ in range(2):
            assert cache.flush_all() == 0
            cache.crash()
            cache.restart()
        assert cache.flush_all() == 0
        assert providers[0].peek() == original
        # The record stays on disk for a cache that can retire it.
        records, _ = cache.storage.journal_log.scan_records()
        assert [kind for kind, _, _ in records] == [K_JOURNAL]


class TestMemoSpill:
    def test_verifier_free_memo_record_spills_and_reloads(self, deployment):
        _, cache, _, _ = deployment(
            memo_policy=DefaultMemoPolicy(), slots=6,
        )
        tier = cache.storage
        record = MemoRecord(
            document_id=DocumentId("doc"),
            source_signature=sign(b"source bytes"),
            fingerprint=ChainFingerprint("chain-fp"),
            output_signature=sign(b"output bytes"),
            size=12,
        )
        tier.spill_memo(record)
        assert cache.storage_stats.memo_spills == 1
        cache.crash()
        cache.restart()
        assert cache.storage_stats.memo_reloaded == 1
        reloaded = cache._core.memo.lookup(*record.key)
        assert reloaded is not None
        assert reloaded.output_signature == record.output_signature
        assert reloaded.size == 12

    def test_a_record_without_an_output_is_refused_on_reload(
        self, deployment
    ):
        # The shape an UNCACHEABLE vote once spilled: a null output
        # digest.  Reloading it would put a record with no output
        # signature in the memo; it is malformed instead.
        _, cache, _, _ = deployment(
            memo_policy=DefaultMemoPolicy(), slots=6,
        )
        source = sign(b"source bytes")
        fingerprint = ChainFingerprint("chain-fp")
        log = cache.storage.memo_log
        # The memo layout with its output slot empty.
        log.append(K_MEMO, pack_record(
            "doc", source.digest, fingerprint.digest, None, 0,
            Cacheability.UNCACHEABLE.value, 0.0, (), False,
        ))
        log.sync()
        corrupt_before = cache.storage_stats.corrupt_records_recovered
        cache.crash()
        cache.restart()
        stats = cache.storage_stats
        assert stats.corrupt_records_recovered == corrupt_before + 1
        assert stats.memo_reloaded == 0
        assert cache._core.memo.lookup(
            DocumentId("doc"), source, fingerprint
        ) is None
        assert len(cache._core.memo) == 0

    def test_records_with_verifiers_stay_in_memory_only(self, deployment):
        _, cache, _, references = deployment(
            memo_policy=DefaultMemoPolicy(), slots=6,
        )
        for reference in references:
            cache.read(reference)
        # Memory-provider documents always carry a generation verifier,
        # so their memo records must never spill (a reloaded record
        # without its live verifiers would dodge class-(d) checks).
        assert cache.storage_stats.memo_spills == 0


def _fields_1(*parts: bytes) -> bytes:
    """Length-prefixed fields, as payload format 1 framed them."""
    return b"".join(struct.pack(">I", len(part)) + part for part in parts)


def _json_1(**fields) -> bytes:
    """A sorted-key JSON payload, as payload format 1 wrote them."""
    return json.dumps(fields, sort_keys=True).encode("utf-8")


#: Per record kind: its segment, its frame kind, the policies its replay
#: needs (only a cache with a recovery journal reads ``journal.seg``),
#: and CRC-valid payloads of the wrong shape — what format 1 read as a
#: JSON list or string, and a format-2 record of another layout.
_JOURNALLED = {"recovery_policy": DefaultRecoveryPolicy()}
_WRONG_SHAPES = {
    "catalog": ("catalog.seg", K_DEMOTE, {}, [
        b"[]", b'"x"', pack_record("d0", "alice"),
        pack_record(
            "d0", "alice", "digest", 1, 9, 0.0, (), (),
            None, False,
        ),  # no cacheability has the value 9
    ]),
    "tombstone": ("catalog.seg", K_DROP, {}, [
        b"[]", pack_record("d0", "alice", "extra"),
    ]),
    "journal": ("journal.seg", K_JOURNAL, _JOURNALLED, [
        _fields_1(b"[]", b"bytes"),
        pack_record("d0", "alice"),
        # A journal record from before records named their source.
        pack_record("d0", "alice", "r", b"x"),
    ]),
    "flushed": ("journal.seg", K_FLUSHED, _JOURNALLED, [
        b"[1]", pack_record("d0", "alice", "r", "digest", b"x"),
    ]),
    "memo": ("memo.seg", K_MEMO, {"memo_policy": DefaultMemoPolicy()}, [
        b"[]", pack_record("d0", "alice"),
    ]),
}


class TestMalformedRecords:
    """A CRC-valid record of the wrong shape is corrupt, not fatal: the
    tier counts it in ``corrupt_records_recovered`` and comes up."""

    @pytest.mark.parametrize("kind", list(_WRONG_SHAPES))
    def test_a_wrong_shape_record_is_counted_and_skipped(
        self, deployment, tmp_path, kind
    ):
        segment, frame_kind, policies, payloads = _WRONG_SHAPES[kind]
        storage = StoragePolicy(directory=str(tmp_path))
        _, first, _, _ = deployment(storage=storage, **policies)
        directory = first.storage.directory
        first.shutdown()
        log = SegmentLog(directory / segment)
        for payload in payloads:
            log.append(frame_kind, payload)
        log.close()
        _, cache, providers, references = deployment(
            storage=storage, **policies
        )
        stats = cache.storage_stats
        assert stats.corrupt_records_recovered == len(payloads)
        assert (len(cache.storage), cache.dirty_count) == (0, 0)
        assert stats.memo_reloaded == 0
        assert cache.read(references[0]).content == providers[0].peek()

    def test_a_directory_of_format_1_records_recovers_cold(
        self, deployment, tmp_path
    ):
        storage = StoragePolicy(directory=str(tmp_path))
        policies = {"memo_policy": DefaultMemoPolicy(), **_JOURNALLED}
        _, first, providers, references = deployment(
            storage=storage, **policies
        )
        directory = first.storage.directory
        first.shutdown()
        # What format 1 wrote for one demoted document, a demotion and
        # its tombstone, an unflushed write, a flushed mark and a memo
        # record — each a record format 1 would have replayed.
        reference, content = references[0], providers[0].peek()
        key = EntryKey.for_reference(reference)
        digest = sign(content).digest
        named = {"document": key.document_id.value, "user": key.user_id.value}
        plan = read_plan(reference)
        minted = [reference.base.provider.make_verifier()] + [
            prop.make_verifier() for prop in plan.chain
        ]
        demoted = _json_1(
            **named, digest=digest, size=len(content),
            cacheability="UNRESTRICTED", cost=1.0,
            chain=list(plan.chain_signature),
            verifier_fps=[v.fingerprint() for v in minted if v is not None],
            source=digest, reference=reference.reference_id.value,
            pinned=False,
        )
        records = {
            "content.seg": [(K_CONTENT, _fields_1(digest.encode(), content))],
            "catalog.seg": [
                (K_DEMOTE, demoted), (K_DEMOTE, demoted),
                (K_DROP, _json_1(**named)), (K_DEMOTE, demoted),
            ],
            "journal.seg": [
                (K_JOURNAL, _fields_1(
                    _json_1(**named, reference=reference.reference_id.value),
                    b"unflushed",
                )),
                (K_FLUSHED, _json_1(**named)),
            ],
            "memo.seg": [(K_MEMO, _json_1(
                source=digest, fingerprint=plan.fingerprint.digest,
                output=digest, size=len(content),
                cacheability="UNRESTRICTED", cost=1.0, chain=[], pin=False,
            ))],
        }
        for segment, frames in records.items():
            log = SegmentLog(directory / segment)
            for frame_kind, payload in frames:
                log.append(frame_kind, payload)
            log.close()
        _, cache, providers, references = deployment(
            storage=storage, **policies
        )
        stats = cache.storage_stats
        assert stats.corrupt_records_recovered == sum(
            len(frames) for frames in records.values()
        )
        assert len(cache.storage) == len(cache.storage.disk) == 0
        assert (cache.dirty_count, stats.memo_reloaded) == (0, 0)
        outcome = cache.read(references[0])
        assert outcome.disposition == "miss"
        assert outcome.content == providers[0].peek()


class TestClose:
    def test_shutdown_closes_the_tier_once(self, deployment):
        _, cache, _, references = deployment()
        for reference in references:
            cache.read(reference)
        tier = cache.storage
        cache.shutdown()
        assert cache.storage is None  # L1-only from here on
        assert not tier.directory.exists()  # the private directory went
        for log in (
            tier.disk.log, tier.catalog_log, tier.journal_log, tier.memo_log
        ):
            with pytest.raises(StorageError):
                log.append(K_CONTENT, b"after close")
            with pytest.raises(StorageError):
                log.read(0, HEADER_SIZE)
        tier.close()  # closing again is harmless, and so is
        cache.shutdown()  # shutting down again

    def test_shutdown_truncates_to_the_synced_bytes_and_reads_none_back(
        self, deployment, tmp_path, monkeypatch
    ):
        storage = StoragePolicy(directory=str(tmp_path))
        _, cache, _, references = deployment(storage=storage)
        for reference in references:
            cache.read(reference)
        tier = cache.storage
        tier.disk.log.append(K_CONTENT, b"appended, never synced")
        logs = (
            tier.disk.log, tier.catalog_log, tier.journal_log, tier.memo_log
        )
        synced = {
            log.path: log.path.read_bytes()[:log.durable_size] for log in logs
        }
        assert tier.disk.log.size > tier.disk.log.durable_size
        scans: list = []
        monkeypatch.setattr(SegmentLog, "scan_records", scans.append)
        cache.shutdown()
        assert scans == []
        assert {log.path: log.path.read_bytes() for log in logs} == synced

    def test_shutdown_after_the_directory_was_removed(
        self, deployment, tmp_path
    ):
        storage = StoragePolicy(directory=str(tmp_path))
        _, cache, _, references = deployment(storage=storage)
        for reference in references:
            cache.read(reference)
        shutil.rmtree(cache.storage.directory)
        cache.shutdown()
        assert cache.storage is None

    def test_a_lost_shard_closes_its_tier(self):
        kernel = PlacelessKernel()
        cluster = CacheCluster(
            kernel, 2, 1 << 20,
            recovery_policy=DefaultRecoveryPolicy(),
            shard_kwargs={"storage_policy": DefaultStoragePolicy()},
        )
        name, lost = next(iter(cluster.shards.items()))
        tier = lost.storage
        try:
            cluster.lose_shard(name)
            assert lost.storage is None
            assert not tier.directory.exists()
        finally:
            for survivor in cluster.shards.values():
                survivor.shutdown()


def _held_by_cyclic_garbage(build) -> list:
    """What *build* (builds caches, reads, shuts them down and drops
    them) left to the collector that holds a descriptor or a directory:
    every open ``SegmentLog`` and every ``TemporaryDirectory`` in the
    cyclic garbage, kept there by ``gc.DEBUG_SAVEALL``."""
    gc.collect()
    build()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return [
            type(o).__name__ for o in gc.garbage
            if isinstance(o, tempfile.TemporaryDirectory)
            or (isinstance(o, SegmentLog) and o._fd >= 0)
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("arm", ["plain", "storage", "cluster"])
def test_a_dropped_cache_leaves_no_resource_to_the_collector(arm):
    def build() -> None:
        kernel = PlacelessKernel()
        user = kernel.create_user("alice")
        references = [
            kernel.import_document(
                user, MemoryProvider(kernel.ctx, bytes([65 + i]) * 4_000),
                f"d{i}",
            )
            for i in range(4)
        ]
        if arm == "cluster":
            caches = list(CacheCluster(
                kernel, 2, 1 << 20,
                shard_kwargs={"storage_policy": DefaultStoragePolicy()},
            ).shards.values())
        else:
            caches = [DocumentCache(
                kernel, capacity_bytes=9_000,
                storage_policy=(
                    DefaultStoragePolicy() if arm == "storage" else None
                ),
            )]
        for cache in caches:
            for reference in references:
                cache.read(reference)
            cache.shutdown()

    assert _held_by_cyclic_garbage(build) == []


class TestDirectoryName:
    """A tier's directory is named after its cache, not after the id the
    kernel mints for it, so the same cache rebuilt over the same
    directory in the same process finds what its predecessor left."""

    def test_a_cache_rebuilt_in_the_same_process_starts_warm(
        self, deployment, tmp_path
    ):
        storage = StoragePolicy(directory=str(tmp_path))
        kernel, first, providers, references = deployment(storage=storage)
        for reference in references:
            first.read(reference)
        demoted = _demoted_references(first, references)
        assert demoted
        first.shutdown()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cache"]
        cache = DocumentCache(
            kernel, capacity_bytes=first.capacity_bytes,
            storage_policy=storage,
        )
        try:
            outcome = cache.read(demoted[0])
            assert outcome.disposition == "miss-promoted"
            assert outcome.content == demoted[0].base.provider.peek()
        finally:
            cache.shutdown()

    def test_a_second_live_tier_on_one_directory_is_refused(
        self, deployment, tmp_path
    ):
        storage = StoragePolicy(directory=str(tmp_path))
        kernel, first, providers, references = deployment(storage=storage)
        with pytest.raises(StorageError, match="in use"):
            DocumentCache(kernel, 1 << 20, storage_policy=storage)
        other = DocumentCache(
            kernel, 1 << 20, storage_policy=storage, name="other"
        )
        try:
            assert other.storage.directory == tmp_path / "other"
        finally:
            other.shutdown()
        assert first.read(references[0]).content == providers[0].peek()

    def test_a_refused_tier_touches_no_file_of_the_live_one(
        self, deployment, tmp_path
    ):
        # The live tier is mid-append: a frame header without its
        # payload ends content.seg, which a recovery scan would cut.
        storage = StoragePolicy(directory=str(tmp_path))
        kernel, first, _, references = deployment(storage=storage)
        for reference in references:
            first.read(reference)
        content = first.storage.directory / "content.seg"
        with open(content, "ab") as segment:
            segment.write(b"PL\x01\x00\x00\x01\x00")
        size = content.stat().st_size
        descriptors = len(os.listdir("/dev/fd"))
        # The error keeps the refused tier's frames alive: what it left
        # open would still be open.
        with pytest.raises(StorageError, match="in use") as refused:
            DocumentCache(kernel, 1 << 20, storage_policy=storage)
        assert content.stat().st_size == size
        assert len(os.listdir("/dev/fd")) == descriptors, refused

    def test_a_directory_removed_beneath_a_live_tier_opens_afresh(
        self, deployment, tmp_path
    ):
        storage = StoragePolicy(directory=str(tmp_path))
        kernel, first, _, references = deployment(storage=storage)
        for reference in references:
            first.read(reference)
        shutil.rmtree(first.storage.directory)
        cache = DocumentCache(kernel, 1 << 20, storage_policy=storage)
        try:
            assert len(cache.storage) == 0
        finally:
            cache.shutdown()


def _demoted_references(cache, references) -> list:
    return [
        reference for reference in references
        if EntryKey.for_reference(reference) in cache.storage
    ]


def test_the_persistence_arm_shuts_its_tier_down(monkeypatch, tmp_path):
    # A18's storage arm makes its tier a temporary directory; the arm
    # must release it once its result is built.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    result = run_arm(storage=True, label="storage", **SMOKE)
    assert result.post_warm_hits > 0
    assert list(tmp_path.iterdir()) == []
