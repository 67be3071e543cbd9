"""Isolated per-layer probes: one public callable at a time.

Each probe is the median of five GC-free timed batches after a warm-up
batch (:func:`perfbench.timing.batch_us`) over a small fixed world —
probes take no seed, they are the same on every run.  Values are
microseconds per call unless the name says otherwise;
``probe.calibration_us`` times a fixed pure-Python loop so that any
probe divided by it compares across machines.
"""

from __future__ import annotations

import gc
import itertools
import sys
from pathlib import Path
from typing import Callable

from repro.cache.cacheability import Cacheability
from repro.cache.entry import CacheEntry, EntryKey
from repro.cache.instrumentation import (
    InstrumentationBus,
    StageEvent,
    StageRecorder,
    StatsProjection,
)
from repro.cache.manager import DocumentCache
from repro.cache.memo import MemoStatsProjection
from repro.cache.policies import (
    DefaultConcurrencyPolicy,
    DefaultContainmentPolicy,
    DefaultMemoPolicy,
    DefaultOverloadPolicy,
    DefaultRecoveryPolicy,
    DefaultStoragePolicy,
)
from repro.cache.replacement import make_policy
from repro.cache.stats import CacheStats
from repro.cluster import CacheCluster, DefaultClusterPolicy
from repro.content.signature import ContentSignature, sign
from repro.content.store import ContentStore
from repro.ids import DocumentId, UserId
from repro.placeless.kernel import PlacelessKernel
from repro.properties.spellcheck import SpellingCorrectorProperty
from repro.properties.translate import TranslationProperty
from repro.storage.segment import SegmentLog
from repro.workload.churn import ChurnCatalog, ChurnSpec, generate_churn
from repro.workload.documents import CorpusSpec, generate_text

from perfbench.timing import batch_us, calibration_us

POLICIES = ("gds", "gdsf", "lru", "rc")
_SEED = 7
_DOCUMENT_BYTES = 2048
#: Entries resident while a replacement policy is probed.
_RESIDENT = 10_000


def _corpus(n_documents: int):
    """A kernel plus *n_documents* 2 KiB documents that never expire."""
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    catalog = ChurnCatalog(kernel, owner, CorpusSpec(
        n_documents=n_documents, seed=_SEED, ttl_ms=3_600_000_000.0,
        min_size=_DOCUMENT_BYTES, max_size=_DOCUMENT_BYTES,
    ))
    return kernel, catalog.materialize_all()


def _cycle(items) -> Callable[[], object]:
    return itertools.cycle(items).__next__


class _Seams:
    """Keyword arguments that switch one seam (or all) on."""

    def __init__(self, scratch: Path) -> None:
        self._scratch = scratch
        self._directories = itertools.count()

    def __call__(self, *names: str) -> dict:
        factories = {
            "memo": lambda: ("memo_policy", DefaultMemoPolicy()),
            "storage": lambda: ("storage_policy", DefaultStoragePolicy(
                directory=str(
                    self._scratch / f"probe-l2-{next(self._directories)}"
                ),
            )),
            "overload": lambda: ("overload_policy", DefaultOverloadPolicy(
                shedding=False, hedging=False,
            )),
            "containment": lambda: (
                "containment_policy", DefaultContainmentPolicy(),
            ),
            "concurrency": lambda: (
                "concurrency_policy", DefaultConcurrencyPolicy(),
            ),
            "recovery": lambda: ("recovery_policy", DefaultRecoveryPolicy()),
        }
        if names == ("all",):
            names = tuple(factories)
        return dict(factories[name]() for name in names)


def _warm_cache(**cache_kwargs):
    kernel, corpus = _corpus(64)
    cache = DocumentCache(kernel, capacity_bytes=1 << 30, **cache_kwargs)
    references = [document.reference for document in corpus]
    for reference in references:
        cache.read(reference)
    return cache, references


def _hit_us(number: int, late_subscriber=None, **cache_kwargs) -> float:
    cache, references = _warm_cache(**cache_kwargs)
    if late_subscriber is not None:
        cache.instrumentation.subscribe(late_subscriber)
    following = _cycle(references)
    return batch_us(lambda: cache.read(following()), number)


def _miss_us(**cache_kwargs) -> float:
    """Compulsory misses: the cache is cleared before every batch."""
    cache, references = _warm_cache(**cache_kwargs)
    following = _cycle(references)
    return batch_us(
        lambda: cache.read(following()), len(references),
        before_batch=cache.clear,
    )


def _hit_blocks() -> float:
    """Net heap blocks allocated per fast-lane hit."""
    cache, references = _warm_cache()
    following = _cycle(references)
    for _ in range(128):
        cache.read(following())
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for _ in range(512):
            cache.read(following())
        return (sys.getallocatedblocks() - before) / 512
    finally:
        gc.enable()


def _entries(count: int) -> dict[EntryKey, CacheEntry]:
    user = UserId("probe")
    entries = {}
    for index in range(count):
        key = EntryKey(DocumentId(f"probe-{index}"), user)
        entries[key] = CacheEntry(
            key=key,
            signature=ContentSignature(f"{index:032x}"),
            size=1024 + 512 * (index % 7),
            cacheability=Cacheability.UNRESTRICTED,
            verifiers=[],
            replacement_cost_ms=1.0 + index % 5,
            chain_signature=(),
            reference_id=None,
            created_at_ms=0.0,
            last_access_ms=0.0,
        )
    return entries


def _replacement(values: dict[str, float], number: int) -> None:
    for name in POLICIES:
        # Victims are popped without reinsertion, so start with enough
        # extra entries that _RESIDENT remain after the last batch.
        entries = _entries(_RESIDENT + 6 * number)
        policy = make_policy(name, seed=_SEED)
        for entry in entries.values():
            policy.on_insert(entry)
        values[f"probe.cache.replacement.select_victim_us.{name}"] = (
            batch_us(lambda: policy.select_victim(entries), number)
        )
        following = _cycle(list(entries.values()))
        values[f"probe.cache.replacement.on_access_us.{name}"] = batch_us(
            lambda: policy.on_access(following()), 4 * number
        )


def _instrumentation(values: dict[str, float], number: int) -> None:
    event = StageEvent(
        stage="read", outcome="hit", document_id=DocumentId("probe"),
        user_id=UserId("probe"), started_ms=0.0, ended_ms=1.0,
        payload={"bytes": _DOCUMENT_BYTES},
    )
    subscribers = [
        StatsProjection(CacheStats()), StageRecorder(), MemoStatsProjection(),
    ]
    for count in (0, 2, 3):
        bus = InstrumentationBus()
        for subscriber in subscribers[:count]:
            bus.subscribe(subscriber)
        values[f"probe.cache.instrumentation.emit_us.subs{count}"] = (
            batch_us(lambda: bus.emit(event), number)
        )


def _storage(values: dict[str, float], scratch: Path, number: int) -> None:
    log = SegmentLog(scratch / "probe-segment.seg")
    payload = generate_text(4096, seed=_SEED)
    values["probe.storage.append_us"] = batch_us(
        lambda: log.append(1, payload), number
    )
    values["probe.storage.sync_us"] = batch_us(log.sync, number)
    records = 6 * number
    values["probe.storage.scan_us_per_record"] = (
        batch_us(log.scan_records, 1) / records
    )


def _cluster(values: dict[str, float], number: int) -> None:
    kernel, corpus = _corpus(64)
    users = [kernel.create_user(f"reader-{index}") for index in range(2)]
    cluster = CacheCluster(
        kernel, 2, 1 << 30,
        cluster_policy=DefaultClusterPolicy(),
        memo_policy=DefaultMemoPolicy(),
    )
    following = _cycle([document.reference for document in corpus])
    values["probe.cluster.route_us"] = batch_us(
        lambda: cluster.shard_for(following()), number
    )
    # Pairs of references to one document whose keys place on different
    # shards: reading the first records the memo, reading the second
    # adopts it by importing the bytes over the shard link.
    pairs = []
    for document in corpus:
        first, second = (
            kernel.space(user).add_reference(document.reference.base)
            for user in users
        )
        if cluster.shard_for(first) is not cluster.shard_for(second):
            pairs.append((first, second))
    importers = [second for _, second in pairs]

    def refill() -> None:
        cluster.clear()
        for first, _ in pairs:
            cluster.read(first)

    following = _cycle(importers)
    values["probe.cluster.memo_import_us"] = batch_us(
        lambda: cluster.read(following()), len(importers),
        before_batch=refill,
    )
    imports = cluster.memo_stats.imports
    if imports != 6 * len(importers):
        raise RuntimeError(
            f"memo-import probe imported {imports} times,"
            f" expected {6 * len(importers)}"
        )


def _workload(values: dict[str, float], number: int) -> None:
    spec = ChurnSpec(
        n_events=number, n_documents=20_000, n_live_start=10_000,
        zipf_alpha=1.1, p_write=0.05, p_publish=0.002, p_perish=0.002,
        mean_think_time_ms=1.0, seed=_SEED,
    )
    values["probe.workload.generate_churn_us_per_event"] = (
        batch_us(lambda: sum(1 for _ in generate_churn(spec)), 1) / number
    )
    kernel = PlacelessKernel()
    catalog = ChurnCatalog(
        kernel, kernel.create_user("owner"),
        CorpusSpec(
            n_documents=6 * 64, seed=_SEED,
            min_size=_DOCUMENT_BYTES, max_size=_DOCUMENT_BYTES,
        ),
    )
    fresh = itertools.count()
    values["probe.workload.mint_document_us"] = batch_us(
        lambda: catalog.document(next(fresh)), 64
    )


def run_probes(scratch: Path, smoke: bool = False) -> dict[str, float]:
    """Every probe, by metric name."""
    number = 100 if smoke else 1000
    seams = _Seams(scratch)
    values = {"probe.calibration_us": calibration_us()}

    kernel, corpus = _corpus(64)
    plain = corpus[0].reference
    values["probe.placeless.kernel_read_plain_us"] = batch_us(
        lambda: kernel.read(plain), number // 4
    )
    chained = kernel.space(kernel.create_user("reader")).add_reference(
        plain.base
    )
    chained.attach(SpellingCorrectorProperty())
    chained.attach(TranslationProperty())
    values["probe.placeless.kernel_read_chain2_us"] = batch_us(
        lambda: kernel.read(chained), number // 4
    )
    for repository in ("nfs", "parcweb", "www"):
        provider = next(
            d.provider for d in corpus if d.repository == repository
        )
        values[f"probe.providers.fetch_us.{repository}"] = batch_us(
            provider.fetch, number
        )

    blob = generate_text(64 * 1024, seed=_SEED)
    signature = sign(blob)
    store = ContentStore()

    def put_and_release() -> None:
        store.put_signed(blob, signature)
        store.release(signature)

    values["probe.content.put_signed_us_per_kib"] = (
        batch_us(put_and_release, number // 10) / 64
    )

    values["probe.cache.hit_us.fastlane"] = _hit_us(2 * number)
    values["probe.cache.hit_us.pipeline"] = _hit_us(number, fast_lane=False)
    values["probe.cache.hit_blocks"] = _hit_blocks()
    # Subscribed after construction, which is what drops reads off the
    # fast lane.
    values["probe.cache.hit_us.extra_subscriber"] = _hit_us(
        number, late_subscriber=lambda event: None
    )
    _replacement(values, number // 2)
    _instrumentation(values, 2 * number)

    for seam in (
        "memo", "storage", "overload", "containment", "concurrency",
        "recovery", "all",
    ):
        values[f"probe.seam.hit_us.{seam}"] = _hit_us(number, **seams(seam))
    values["probe.seam.miss_us.none"] = _miss_us()
    for seam in ("memo", "storage", "all"):
        values[f"probe.seam.miss_us.{seam}"] = _miss_us(**seams(seam))

    cache, references = _warm_cache(
        concurrency_policy=DefaultConcurrencyPolicy()
    )
    for width in (1, 8):
        batches = _cycle([
            references[start:start + width]
            for start in range(0, len(references), width)
        ])
        values[f"probe.sim.scheduler.read_many_us_per_read.b{width}"] = (
            batch_us(lambda: cache.read_many(batches()), number // 4) / width
        )

    _storage(values, scratch, number // 4)
    _cluster(values, number)
    _workload(values, 5 * number)
    return values
