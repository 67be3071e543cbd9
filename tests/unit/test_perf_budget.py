"""Per-read budgets: allocations on the hit path, counts on the miss path.

The A20 hot-path work turned steady-state hits into a near-allocation-
free loop: interned keys, memoized signatures, O(1) stat accumulation,
and — since the hit prefix became the one hit path — no
``ReadContext``, deadline budget or generator on a hit in *any*
configuration.  This test pins the budget so a regression (say, a new
per-read dict or closure on the hit path) fails loudly in tier 1 rather
than showing up later as a throughput drop in A20.

The probe counts *net* heap blocks per read with the collector
disabled, after a warmup that populates every cache and memo the
steady state relies on.

The miss path's budgets are exact counts, which a shared CI box can
hold where it cannot hold a wall-clock number: MD5 constructions per
miss (each byte string is hashed once), files opened per L2 demotion,
promotion and tombstone (none: the segment descriptors are held),
positioned writes and reads per demotion and promotion (two frames and
no JSON encode; one read), breakers created by fault-free traffic
through a contained cache (none), and
Python-level calls per miss
and per plain kernel read, which must not depend on how many users'
notifiers are armed on the document.  A write-through write has a call
budget too, and a second write to a reference re-derives no stream
chain.  A verified hit has a call budget as well — plain, contained,
and through a cluster wired like perfbench's ``seams_on`` —, a
fault-free contained hit builds no breaker key, and a cluster shard's
core is slotted, so no attribute load on it pays for a dict past
CPython's shared-key limit.  Hits and re-misses also have an
exact budget of *zero* Python ``__hash__`` / ``__eq__`` frames: ids are
``str`` subclasses and the invalidation reasons hash by identity, so
every key probe runs in C.

Events have exact budgets too: a cache counts where it decides and
``CacheCore.emit`` only publishes, so a ``StageEvent`` is built only
for a subscriber — none for a miss, a hit, an eviction, a write
fan-out, a flush or a crash nobody listens to, one per emitted event
for a subscriber, and none in a cluster, whose health tracker is told
where a read ends.  A write-back write nobody forwards builds no
``Event``.

So does what a world keeps alive: the objects the cyclic collector
tracks, and the heap bytes and blocks left allocated, per new
reference and per first read (three notifiers armed).
Every holder and every armed notifier is long-lived, so each one they
cost is walked by every full collection for the rest of the run.
"""

from __future__ import annotations

import builtins
import gc
import io
import itertools
import json
import os
import sys
import tracemalloc
from collections import Counter

import pytest

from repro.bench.perf import allocation_probe, peak_rss_kb
from repro.cache.core import CacheCore
from repro.cache.entry import EntryKey
from repro.cache.instrumentation import StageEvent
from repro.cache.manager import DocumentCache, WriteMode
from repro.cache.policies import (
    ConcurrencyPolicy,
    ContainmentPolicy,
    MemoPolicy,
    OverloadPolicy,
    RecoveryPolicy,
    StoragePolicy,
)
from repro.cluster import CacheCluster, ClusterPolicy
from repro.placeless.document import BaseDocument
from repro.placeless.kernel import PlacelessKernel
from repro.placeless.reference import DocumentReference
from repro.properties.spellcheck import SpellingCorrectorProperty
from repro.providers.memory import MemoryProvider
from repro.workload.documents import CorpusSpec, build_corpus

#: Net heap blocks allowed per steady-state hit.  The path currently
#: sits well under this; the headroom absorbs interpreter-version noise
#: without letting a stray per-read allocation site slip in.
HIT_ALLOCATION_BUDGET = 40.0

#: The configurations that used to fall off the fast lane: the default
#: cache, one with a subscriber attached after construction, and the
#: ``seams_on`` benchmark's overload setting (deadlines on — a hit
#: builds no ``DeadlineBudget``).
_CONFIGURATIONS = {
    "default": {},
    "late-subscriber": {},
    "overload": {
        "overload_policy": OverloadPolicy(shedding=False, hedging=False),
    },
}


def _warm_cache(n_documents: int = 16, **cache_kwargs):
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    corpus = build_corpus(
        kernel, owner, CorpusSpec(n_documents=n_documents, seed=13)
    )
    cache = DocumentCache(kernel, capacity_bytes=1 << 28, **cache_kwargs)
    for document in corpus:
        cache.read(document.reference)
    return cache, corpus


@pytest.mark.parametrize("configuration", list(_CONFIGURATIONS))
def test_hit_stays_under_allocation_budget(configuration):
    cache, corpus = _warm_cache(**_CONFIGURATIONS[configuration])
    if configuration == "late-subscriber":
        cache.instrumentation.subscribe(lambda event: None)
    cycle = itertools.cycle([document.reference for document in corpus])

    def one_hit() -> None:
        cache.read(next(cycle))

    blocks = allocation_probe(one_hit, iterations=256, warmup=64)
    hits_before = cache.stats.hits
    cache.read(corpus[0].reference)
    assert cache.stats.hits == hits_before + 1  # the loop measured hits
    assert blocks <= HIT_ALLOCATION_BUDGET, (
        f"{configuration} hit allocates {blocks:.1f} blocks/read "
        f"(budget {HIT_ALLOCATION_BUDGET})"
    )


def test_peak_rss_helper():
    assert peak_rss_kb() > 0.0


# -- miss-path count budgets ----------------------------------------------------

#: Python-level key-probe frames; a hit and a re-miss must run none.
_KEY_DUNDERS = ("__hash__", "__eq__")


def _armed_world(n_users: int, **cache_kwargs):
    """One document read once through one cache by each of *n_users*
    (so each has armed its notifiers); user 0 personalises."""
    kernel = PlacelessKernel()
    base = kernel.create_document(
        kernel.create_user("owner"),
        MemoryProvider(kernel.ctx, b"teh quick brown fox " * 40), "doc",
    )
    references = [
        kernel.space(kernel.create_user(f"user-{i}")).add_reference(base)
        for i in range(n_users)
    ]
    references[0].attach(SpellingCorrectorProperty())
    cache = DocumentCache(kernel, capacity_bytes=1 << 28, **cache_kwargs)
    for reference in references:
        cache.read(reference)
    return kernel, cache, references


def test_each_byte_string_is_hashed_once_per_miss(md5_calls):
    kernel, cache, (reference, *_) = _armed_world(2)
    newcomer = kernel.import_document(
        reference.owner, MemoryProvider(kernel.ctx, b"first sight"), "new"
    )
    # First sight: the source bytes and the output bytes, once each.
    md5_calls.clear()
    assert cache.read(newcomer).disposition == "miss"
    assert len(md5_calls) == 2
    # Unchanged source: its signature is the provider's memo; only the
    # (re-transformed) output is hashed.  A hit hashes nothing.
    cache.invalidate_document(reference.document_id)
    md5_calls.clear()
    assert cache.read(reference).disposition == "miss"
    assert len(md5_calls) == 1
    assert cache.read(reference).hit
    assert len(md5_calls) == 1


@pytest.fixture
def open_calls(monkeypatch) -> list:
    """The path of every file opened (``open`` / ``io.open`` or
    ``os.open``) since the last ``clear()``."""
    calls: list = []

    def counting(real):
        def opener(path, *args, **kwargs):
            calls.append(path)
            return real(path, *args, **kwargs)
        return opener

    monkeypatch.setattr(builtins, "open", counting(io.open))
    monkeypatch.setattr(io, "open", counting(io.open))
    monkeypatch.setattr(os, "open", counting(os.open))
    return calls


def _l2_world(tmp_path) -> tuple[DocumentCache, list]:
    """Four one-size documents through two L1 slots, over a built tier,
    with the first two read: the next new document demotes one."""
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    references = [
        kernel.import_document(
            owner, MemoryProvider(kernel.ctx, b"%d" % i * 300), f"d{i}"
        )
        for i in range(4)
    ]
    cache = DocumentCache(
        kernel, capacity_bytes=600,
        storage_policy=StoragePolicy(directory=str(tmp_path)),
    )
    cache.read(references[0])
    cache.read(references[1])
    return cache, references


def _demoted(cache: DocumentCache, references: list):
    """The one reference whose entry sits in the L2 tier."""
    (demoted,) = [
        reference for reference in references
        if EntryKey.for_reference(reference) in cache.storage
    ]
    return demoted


def test_l2_records_reuse_the_held_segment_files(open_calls, tmp_path):
    cache, references = _l2_world(tmp_path)
    stats, tier = cache.storage_stats, cache.storage
    try:
        open_calls.clear()
        cache.read(references[2])  # evicts: one demotion of new bytes
        assert stats.demotions == 1
        assert open_calls == []
        # A served promotion: the record read and its tombstone (plus
        # the demotion that makes room for it).
        demoted = _demoted(cache, references)
        assert cache.read(demoted).disposition == "miss-promoted"
        assert (stats.promotions, stats.demotions) == (1, 2)
        assert open_calls == []
        # A tombstone alone.
        tier.drop(tier.catalog_keys()[0])
        assert stats.by_reason["invalidated"] == 1
        assert open_calls == []
    finally:
        cache.shutdown()


@pytest.fixture
def io_calls(monkeypatch) -> Counter:
    """Calls of ``os.pwritev`` and ``os.pread``, and JSON encodes (as
    ``json``), since the last ``clear()``."""
    calls: Counter = Counter()

    def counting(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in ("pwritev", "pread"):
        monkeypatch.setattr(os, name, counting(name, getattr(os, name)))
    for name in ("encode", "iterencode"):
        real = getattr(json.JSONEncoder, name)
        monkeypatch.setattr(json.JSONEncoder, name, counting("json", real))
    return calls


def test_l2_demotion_writes_two_frames_and_no_json(io_calls, tmp_path):
    cache, references = _l2_world(tmp_path)
    try:
        io_calls.clear()
        cache.read(references[2])  # evicts: one demotion of new bytes
        assert cache.storage_stats.demotions == 1
        # The content frame and the catalog record, binary-encoded.
        assert io_calls == Counter(pwritev=2)
    finally:
        cache.shutdown()


def test_l2_promotion_reads_its_frame_with_one_pread(io_calls, tmp_path):
    cache, references = _l2_world(tmp_path)
    try:
        cache.read(references[2])
        demoted = _demoted(cache, references)
        io_calls.clear()
        assert cache.read(demoted).disposition == "miss-promoted"
        # The slot knows its frame's length: header and payload in one
        # read (then the tombstone and the room-making demotion write).
        assert io_calls["pread"] == 1
        assert io_calls["json"] == 0
    finally:
        cache.shutdown()


def test_fault_free_traffic_creates_no_breaker():
    # Reads through a wrapper property, verified hits, a write's notifier
    # fan-out and the re-misses after it: every guarded call succeeds,
    # and a breaker that never failed is no breaker at all.
    kernel, cache, references = _armed_world(
        4, containment_policy=ContainmentPolicy()
    )
    stats, guard = cache.stats, cache.containment
    for reference in references:
        assert cache.read(reference).hit
    delivered = stats.notifier_deliveries
    cache.write(references[0], b"a new version " * 40)
    for reference in references:
        cache.read(reference)
    assert stats.notifier_deliveries > delivered
    assert stats.verifier_executions and stats.misses > len(references)
    registries = (guard.wrappers, guard.verifiers, guard.notifiers)
    assert [len(registry) for registry in registries] == [0, 0, 0]


def _calls(action, names: tuple[str, ...] = ()) -> int:
    """Python and C function calls *action* makes (``sys.setprofile``);
    with *names*, only the Python frames of functions so named.

    The collector is off while *action* runs: a collection that happens
    to fall inside it runs ``gc.callbacks`` (hypothesis installs one,
    four profiled calls per collection once any property test has run)
    and the finalizers of other tests' garbage, none of which *action*
    made — whether one falls there depends on every allocation before."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if names:
            if event == "call" and frame.f_code.co_name in names:
                count += 1
        elif event in ("call", "c_call"):
            count += 1

    was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(tracer)
    try:
        action()
    finally:
        sys.setprofile(None)
        if was_enabled:
            gc.enable()
    return count


def _calls_per_read(n_users: int) -> tuple[int, int]:
    """(calls of a re-miss of user 0's entry, calls of a plain kernel
    read by the last user) with *n_users* armed on the document."""
    kernel, cache, references = _armed_world(n_users)
    cache.invalidate_document(references[0].document_id, references[0].owner)
    misses = cache.stats.misses
    remiss = _calls(lambda: cache.read(references[0]))
    assert cache.stats.misses == misses + 1
    return remiss, _calls(lambda: kernel.read(references[-1]))


def test_miss_and_kernel_read_do_not_scan_armed_users():
    assert _calls_per_read(64) == _calls_per_read(2)


def test_key_probes_run_no_python_hash_or_eq():
    # Every read probes ``dirty`` and ``entries`` by (document, user), and
    # an invalidation counts its reason: Python frames there tax each one.
    kernel, cache, (reference, *_) = _armed_world(2)
    hits = cache.stats.hits
    assert _calls(lambda: cache.read(reference), _KEY_DUNDERS) == 0
    assert cache.stats.hits == hits + 1

    def invalidate_and_remiss() -> None:
        cache.invalidate_document(reference.document_id)
        assert cache.read(reference).disposition == "miss"

    assert _calls(invalidate_and_remiss, _KEY_DUNDERS) == 0


def test_a_verified_hit_builds_no_verifier_result():
    # The entry carries a ModificationTimeVerifier; its VALID verdict is
    # a shared instance, so no ``VerifierResult.__post_init__`` runs.
    kernel, cache, (reference, *_) = _armed_world(2)
    assert cache.core.entries[EntryKey.for_reference(reference)].verifiers
    assert _calls(lambda: cache.read(reference), ("__post_init__",)) == 0


#: Python and C calls of one verified hit of a corpus document (one
#: verifier on the entry): on a plain cache, through a containment guard,
#: and through a 4-shard cluster wired like perfbench's ``seams_on``.
#: Measured on CPython 3.11 (3.12 counts the same).  While the hit ran
#: every seam whether or not it could act they took 44, 54 and 72: the
#: guard built a breaker key per verifier twice per hit (gate and
#: success note), the quarantine and the budget check were asked with
#: nothing to say, and the cluster walked its failover and asked an
#: admission gate it does not have.
HIT_CALL_BUDGET = {"plain": 41, "contained": 41, "cluster": 52}


def _hit_front(arm: str, directory):
    """A front for *arm* whose next read of the returned reference is a
    verified hit, and the shards it built (to shut down)."""
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    corpus = build_corpus(kernel, owner, CorpusSpec(n_documents=8, seed=13))
    guarded = {"containment_policy": ContainmentPolicy()}
    if arm == "cluster":
        front = CacheCluster(
            kernel, 4, capacity_bytes=1 << 26,
            cluster_policy=ClusterPolicy(),
            memo_policy=MemoPolicy(),
            concurrency_policy=ConcurrencyPolicy(),
            overload_policy=OverloadPolicy(shedding=False, hedging=False),
            shard_kwargs={
                "storage_policy": StoragePolicy(directory=str(directory)),
                **guarded,
            },
        )
        shards = list(front.shards.values())
    else:
        front = DocumentCache(
            kernel, capacity_bytes=1 << 28,
            **(guarded if arm == "contained" else {}),
        )
        shards = [front]
    reference = corpus[0].reference
    front.read(reference)
    assert front.read(reference).hit
    return front, shards, reference


@pytest.mark.parametrize("arm", list(HIT_CALL_BUDGET))
def test_a_hit_stays_within_its_call_budget(arm, tmp_path):
    front, shards, reference = _hit_front(arm, tmp_path)
    try:
        calls = _calls(lambda: front.read(reference))
        assert calls <= HIT_CALL_BUDGET[arm], (
            f"{arm} hit made {calls} calls (budget {HIT_CALL_BUDGET[arm]})"
        )
    finally:
        for shard in shards:
            shard.shutdown()


def test_a_fault_free_contained_hit_builds_no_verifier_key():
    # No verifier has failed, so no breaker exists to look a key up in.
    front, _, reference = _hit_front("contained", None)
    hits = front.stats.hits
    assert _calls(lambda: front.read(reference), ("verifier_key",)) == 0
    assert front.stats.hits == hits + 1
    assert front.stats.verifier_executions


def test_a_shard_core_has_no_instance_dict(tmp_path):
    # A core past 29 dict attributes leaves CPython 3.11's shared-key
    # layout and slows every attribute load; a slotted core cannot.
    _, shards, _ = _hit_front("cluster", tmp_path)
    try:
        for shard in shards:
            assert shard.core.health is not None
            assert not hasattr(shard.core, "__dict__")
    finally:
        for shard in shards:
            shard.shutdown()


# -- write-path count budgets ---------------------------------------------------


@pytest.fixture
def built_stages(monkeypatch) -> Counter:
    """The stage of every ``StageEvent`` constructed, by count."""
    built: Counter = Counter()
    real = StageEvent.__new__

    def counting(cls, *args, **kwargs):
        built[args[0] if args else kwargs["stage"]] += 1
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(StageEvent, "__new__", staticmethod(counting))
    return built


@pytest.fixture
def emitted(monkeypatch) -> Counter:
    """The stage of every ``CacheCore.emit`` call, by count."""
    calls: Counter = Counter()
    real = CacheCore.emit

    def counting(self, stage, *args, **kwargs):
        calls[stage] += 1
        return real(self, stage, *args, **kwargs)

    monkeypatch.setattr(CacheCore, "emit", counting)
    return calls


@pytest.mark.parametrize("late_subscriber", [False, True])
def test_notifier_deliveries_build_events_only_for_listeners(
    built_stages, late_subscriber
):
    # A write fans out one delivery per armed notifier of another user:
    # the bus counts it and the cache adds it into its own sinks, so an
    # event is built only for a subscriber that is not one of them.
    kernel, cache, (writer, *_) = _armed_world(8)
    if late_subscriber:
        cache.instrumentation.subscribe(lambda event: None)
    sent, stats = cache.core.bus.stats, cache.stats
    delivered, received = sent.deliveries, stats.notifier_deliveries
    built_stages.clear()
    cache.write(writer, b"a new version " * 40)
    fanned_out = stats.notifier_deliveries - received
    assert fanned_out == sent.deliveries - delivered > 0
    assert built_stages["notifier"] == (fanned_out if late_subscriber else 0)
    assert built_stages["bus"] == 0


#: Python and C calls of one write-through write that fans out 15
#: deliveries (the first user of ``_armed_world(8)`` writes), plain and
#: through a containment guard.  Measured on CPython 3.11 (3.12 counts
#: six fewer); before the compiled write chain, the one inlined delivery
#: body and the guard's lazy breaker key it took 937 and 1 075, and 631
#: and 664 while every dropped entry still built its ``invalidation``
#: emit (``reason.value`` included) for an empty bus.
WRITE_CALL_BUDGET = {"plain": 607, "contained": 640}


@pytest.mark.parametrize("arm", list(WRITE_CALL_BUDGET))
def test_a_write_fan_out_stays_within_its_call_budget(arm):
    guarded = {"containment_policy": ContainmentPolicy()}
    kernel, cache, (writer, *_) = _armed_world(
        8, **(guarded if arm == "contained" else {})
    )
    sent = cache.core.bus.stats
    delivered = sent.deliveries
    calls = _calls(lambda: cache.write(writer, b"a new version " * 40))
    assert sent.deliveries - delivered == 15
    assert calls <= WRITE_CALL_BUDGET[arm], (
        f"{arm} write made {calls} calls "
        f"(budget {WRITE_CALL_BUDGET[arm]})"
    )


def test_a_second_write_reuses_the_compiled_write_chains():
    # Both halves of the write path (reference, then base) wrap the
    # chain compiled by the first write: nothing is re-derived.
    kernel, cache, (writer, *_) = _armed_world(8)
    cache.write(writer, b"a new version " * 40)
    again = _calls(
        lambda: cache.write(writer, b"and another " * 40), ("stream_chain",)
    )
    assert again == 0


def _budget_steps(
    built: Counter, emitted: Counter, subscriber=None
) -> dict[str, tuple]:
    """Per step: ``(events built, events emitted)``.  Two caches of
    two-user worlds — one write-through, squeezed so one more document
    evicts, and one write-back with a recovery policy — each with
    *subscriber* on its bus, if given."""

    def step(cache, action) -> tuple[int, int]:
        built.clear()
        emitted.clear()
        action()
        return sum(built.values()), sum(emitted.values())

    kernel, through, (writer, _) = _armed_world(2)
    # Room for what is resident now, so one more document evicts.
    through.core.capacity_bytes = through.core.store.physical_bytes
    _, back, (buffered, _) = _armed_world(
        2, write_mode=WriteMode.WRITE_BACK, recovery_policy=RecoveryPolicy(),
    )
    other = kernel.space(writer.owner).add_reference(
        kernel.create_document(
            writer.owner, MemoryProvider(kernel.ctx, b"other " * 10), "other"
        )
    )
    through.invalidate_document(writer.document_id, writer.owner)
    if subscriber is not None:
        through.instrumentation.subscribe(subscriber)
        back.instrumentation.subscribe(subscriber)
    steps = {
        "miss": (through, lambda: through.read(writer)),
        "hit": (through, lambda: through.read(writer)),
        "eviction": (through, lambda: through.read(other)),
        "write-through fan-out": (
            through, lambda: through.write(writer, b"a new version"),
        ),
        "write-back": (back, lambda: back.write(buffered, b"buffered")),
        "flush": (back, back.flush_all),
        "crash + restart": (back, lambda: (back.crash(), back.restart())),
    }
    counts = {name: step(*pair) for name, pair in steps.items()}
    assert through.stats.evictions and through.stats.notifier_deliveries
    assert back.stats.flushes and back.recovery_stats.restarts
    return counts


def test_an_unobserved_cache_builds_no_stage_event(built_stages, emitted):
    counts = _budget_steps(built_stages, emitted)
    assert all(reported for _, reported in counts.values()), counts
    built = {name: built for name, (built, _) in counts.items()}
    assert built == dict.fromkeys(counts, 0)


def test_a_catch_all_gets_one_event_per_emitted_event(built_stages, emitted):
    seen: list = []
    counts = _budget_steps(built_stages, emitted, seen.append)
    assert all(built == reported for built, reported in counts.values())
    assert len(seen) == sum(built for built, _ in counts.values())


def test_a_cluster_builds_no_stage_event(built_stages):
    # The shards tell the health tracker where a read ends: with no
    # subscriber on any shard's bus, nothing is built for it.
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    corpus = build_corpus(kernel, owner, CorpusSpec(n_documents=8, seed=13))
    cluster = CacheCluster(
        kernel, 2, capacity_bytes=1 << 28, overload_policy=OverloadPolicy()
    )
    built_stages.clear()
    for _ in range(2):
        for document in corpus:
            cluster.read(document.reference)
    cluster.write(corpus[0].reference, b"a new version")
    health = cluster.health_snapshot().values()
    assert sum(row["reads"] for row in health) == 2 * len(corpus)
    assert built_stages == Counter()


def test_write_back_without_a_forward_listener_builds_no_event(monkeypatch):
    kernel, cache, (reference, *_) = _armed_world(
        2, write_mode=WriteMode.WRITE_BACK
    )
    made: list = []
    for holder in (BaseDocument, DocumentReference):
        real = holder.make_event

        def counting(self, event_type, *args, _real=real, **kwargs):
            made.append(event_type)
            return _real(self, event_type, *args, **kwargs)

        monkeypatch.setattr(holder, "make_event", counting)
    cache.write(reference, b"buffered")
    assert cache.stats.writes_backed == 1
    assert made == []


# -- tracked-object budgets -----------------------------------------------------


def _tracked(action) -> int:
    """Net objects the cyclic collector tracks after *action* (counted
    with the collector off, so nothing is freed behind the count)."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        action()
        return len(gc.get_objects()) - before
    finally:
        gc.enable()


def _allocated(action) -> tuple[int, int]:
    """Net heap bytes and blocks *action* leaves allocated (traced with
    the collector off; the snapshots' own allocations are filtered
    out)."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        action()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
        gc.enable()
    own = [tracemalloc.Filter(False, tracemalloc.__file__)]
    diff = after.filter_traces(own).compare_to(
        before.filter_traces(own), "filename"
    )
    return sum(d.size_diff for d in diff), sum(d.count_diff for d in diff)


def _per_step(measure) -> dict:
    """*measure* of a new reference, of a document's first read (three
    notifiers armed) and of a second user's first read of it.  The
    cache has served another document first, so what it builds once
    (its notifier-name table) is not charged to this one."""
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    base, other = (
        kernel.create_document(
            owner, MemoryProvider(kernel.ctx, b"teh quick brown fox " * 40),
            name,
        )
        for name in ("doc", "other")
    )
    cache = DocumentCache(kernel, capacity_bytes=1 << 28)
    first, second = (
        kernel.space(kernel.create_user(f"user-{i}")) for i in range(2)
    )
    cache.read(second.add_reference(other))
    references: list = []
    counts = {
        "add_reference": measure(
            lambda: references.append(first.add_reference(base))
        )
    }
    references.append(second.add_reference(base))
    counts["first_read"] = measure(lambda: cache.read(references[0]))
    counts["second_user_first_read"] = measure(
        lambda: cache.read(references[1])
    )
    return counts


def test_holders_and_armed_notifiers_track_few_objects():
    # A holder lists only the event types something watches (a new
    # reference watches none), and a notifier registers once for its
    # whole watch set: one ``Registration`` whose handler is the
    # notifier itself, with no closure and no bound method.
    _per_step(_tracked)  # process-wide memos and interned ids
    assert _per_step(_tracked) == {
        "add_reference": 5,
        "first_read": 35,
        "second_user_first_read": 21,
    }


#: Net (bytes, blocks) a document's first read (three notifiers armed)
#: and a second user's first read may leave allocated.  Measured at
#: about 5 850 B / 83 and 4 110 B / 61 on CPython 3.11 (3.12 within
#: 60 B); a closure, a bound method and a fresh interest set per
#: notifier, or a list per watched type, put them at 6 680 / 99 and
#: 4 680 / 71.
ARMING_BUDGET = {
    "first_read": (6_200, 88),
    "second_user_first_read": (4_400, 65),
}


def test_arming_stays_under_its_memory_budget():
    _per_step(_allocated)  # process-wide memos and interned ids
    measured = _per_step(_allocated)
    for step, (max_bytes, max_blocks) in ARMING_BUDGET.items():
        size, blocks = measured[step]
        assert size <= max_bytes and blocks <= max_blocks, (
            f"{step} leaves {size} B in {blocks} blocks allocated "
            f"(budget {max_bytes} B, {max_blocks} blocks)"
        )
