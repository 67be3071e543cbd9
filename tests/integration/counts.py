"""What one operation costs, counted: the measurements behind
``golden/counts.json`` (compared by ``tests/unit/test_perf_budget.py``
and ``python -m tests.integration.snapshot [--update] counts``; no
``pytest`` import, so any interpreter can measure).

A key is ``group.scenario.counter``: a step on a small hand-built world
(``hit.cluster.calls``) or an operation class over a fixed slice of a
perfbench world at smoke size (``seams_on.hit.calls``).  Counters, zeros
left out: Python + C ``calls`` (``sys.setprofile``, collector off), the
calls of each :data:`COUNTED` function, Python frames of the functions a
scenario names, heap ``blocks`` / ``bytes``, ``tracked`` objects, and
per world the objects tracked after set-up and the ``repro`` objects
the collector frees after teardown.  A group is measured twice and the
second pass kept, so process-wide memos are full either way; ``heap``
runs in a fresh interpreter, since net blocks depend on what the
process freed before.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import heapq
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

from repro.bench.perf import allocation_probe
from repro.cache.core import CacheCore
from repro.cache.entry import CacheEntry, EntryKey
from repro.cache.instrumentation import StageEvent
from repro.cache.manager import DocumentCache, WriteMode
from repro.cache.notifiers import NotifierProperty
from repro.cache.policies import (
    ConcurrencyPolicy,
    ContainmentPolicy,
    MemoPolicy,
    OverloadPolicy,
    RecoveryPolicy,
    StoragePolicy,
)
from repro.cluster import CacheCluster, ClusterPolicy
from repro.events.types import Event
from repro.placeless.kernel import PlacelessKernel
from repro.properties.spellcheck import SpellingCorrectorProperty
from repro.providers.memory import MemoryProvider
from repro.workload.churn import ChurnEventKind
from repro.workload.documents import CorpusSpec, build_corpus

ROOT = Path(__file__).parents[2]

#: Counter -> the C functions and Python code objects whose calls it counts.
COUNTED = {
    "md5": (hashlib.md5,),
    "open": (os.open, io.open),
    "pread": (os.pread,),
    "pwritev": (os.pwritev,),
    "fsync": (os.fsync,),
    "json": (json.JSONEncoder.encode.__code__,
             json.JSONEncoder.iterencode.__code__),
    "emit": (CacheCore.emit.__code__,),
    "stage_events": (StageEvent.__new__.__code__,),
    "events": (Event.__init__.__code__,),
    "notifier_attaches": (NotifierProperty.__init__.__code__,),
    "entry_builds": (CacheEntry.__init__.__code__,),
    "heap_pushes": (heapq.heappush,),
}
HIT_ARMS = ("plain", "contained", "cluster")
WORLDS = ("hot_hits", "miss_chain", "churn_mixed", "seams_on")


def tally(action, names: tuple[str, ...] = ()) -> dict[str, int]:
    """The counters of one call of *action*, and the Python frames of
    the functions called *names*."""
    calls: Counter = Counter()

    def tracer(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1
        elif event == "c_call":
            calls[arg] += 1

    was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(tracer)
    try:
        action()
    finally:
        sys.setprofile(None)
        if was_enabled:
            gc.enable()
    counts = {"calls": sum(calls.values())}
    for counter, functions in COUNTED.items():
        counts[counter] = sum(calls[function] for function in functions)
    for name in names:
        counts[name] = sum(count for code, count in calls.items()
                           if getattr(code, "co_name", None) == name)
    return {counter: count for counter, count in counts.items() if count}


# -- hand-built worlds --------------------------------------------------------


def armed_world(n_users: int, **cache_kwargs):
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


def _corpus(kernel, n_documents: int) -> list:
    owner = kernel.create_user("owner")
    return build_corpus(kernel, owner,
                        CorpusSpec(n_documents=n_documents, seed=13))


def hit_front(arm: str, directory):
    """A front for *arm* whose next read of the returned reference is a
    verified hit (one verifier on the entry), and the shards it built:
    a plain cache, one behind a containment guard, or a 4-shard cluster
    wired like perfbench's ``seams_on``."""
    kernel = PlacelessKernel()
    corpus = _corpus(kernel, 8)
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
        front = DocumentCache(kernel, capacity_bytes=1 << 28,
                              **(guarded if arm == "contained" else {}))
        shards = [front]
    reference = corpus[0].reference
    front.read(reference)
    assert front.read(reference).hit
    return front, shards, reference


def group_hit() -> dict:
    """One verified hit per arm."""
    scenarios = {}
    with tempfile.TemporaryDirectory(prefix="counts-") as directory:
        for arm in HIT_ARMS:
            front, shards, reference = hit_front(arm, directory)
            try:
                counts = scenarios[arm] = tally(
                    lambda: front.read(reference),
                    ("__hash__", "__eq__", "verifier_key", "__post_init__"),
                )
                for counter in ("hits", "verifier_executions"):
                    counts[counter] = sum(
                        getattr(shard.stats, counter) for shard in shards
                    )
            finally:
                for shard in shards:
                    shard.shutdown()
    return scenarios


def group_miss() -> dict:
    """A first-sight miss, a re-miss of an unchanged source and the hit
    after it; a re-miss and a kernel read with 2 and with 64 users armed."""
    kernel, cache, (reference, *_) = armed_world(2)
    newcomer = kernel.import_document(
        reference.owner, MemoryProvider(kernel.ctx, b"first sight"), "new"
    )

    def invalidate_and_remiss() -> None:
        cache.invalidate_document(reference.document_id)
        cache.read(reference)

    dunders = ("__hash__", "__eq__")
    scenarios = {
        "first_sight": tally(lambda: cache.read(newcomer), dunders),
        "unchanged_source": tally(invalidate_and_remiss, dunders),
        "after_remiss_hit": tally(lambda: cache.read(reference)),
    }
    for n_users in (2, 64):
        kernel, cache, references = armed_world(n_users)
        cache.invalidate_document(references[0].document_id,
                                  references[0].owner)
        scenarios[f"armed{n_users}_remiss"] = tally(
            lambda: cache.read(references[0]))
        scenarios[f"armed{n_users}_kernel_read"] = tally(
            lambda: kernel.read(references[-1]))
    return scenarios


def _demoted(cache: DocumentCache, references: list):
    """The one reference whose entry sits in the L2 tier."""
    (demoted,) = [reference for reference in references
                  if EntryKey.for_reference(reference) in cache.storage]
    return demoted


def group_l2() -> dict:
    """Four one-size documents through two L1 slots over a built tier:
    a demotion of new bytes, a served promotion (with its tombstone and
    the demotion that makes room) and a tombstone alone."""
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    references = [
        kernel.import_document(
            owner, MemoryProvider(kernel.ctx, b"%d" % i * 300), f"d{i}")
        for i in range(4)
    ]
    with tempfile.TemporaryDirectory(prefix="counts-") as directory:
        cache = DocumentCache(
            kernel, capacity_bytes=600,
            storage_policy=StoragePolicy(directory=directory),
        )
        try:
            cache.read(references[0])
            cache.read(references[1])
            scenarios = {"demotion": tally(lambda: cache.read(references[2]))}
            demoted = _demoted(cache, references)
            scenarios["promotion"] = tally(lambda: cache.read(demoted))
            dropped = EntryKey.for_reference(_demoted(cache, references))
            scenarios["tombstone"] = tally(lambda: cache.storage.drop(dropped))
            stats = cache.storage_stats
            scenarios["tier"] = {
                "demotions": stats.demotions, "promotions": stats.promotions,
                "invalidated": stats.by_reason["invalidated"],
            }
        finally:
            cache.shutdown()
    return scenarios


def group_breaker() -> dict:
    """What a contained cache holds after fault-free reads, verified
    hits, a write's notifier fan-out and the re-misses after it."""
    _, cache, references = armed_world(
        4, containment_policy=ContainmentPolicy())
    for reference in references:
        cache.read(reference)
    cache.write(references[0], b"a new version " * 40)
    for reference in references:
        cache.read(reference)
    guard, stats = cache.containment, cache.stats
    return {"fault_free": {
        "wrappers": len(guard.wrappers),
        "verifiers": len(cache.core.quarantine),
        "notifiers": len(guard.notifiers),
        "deliveries": stats.notifier_deliveries,
        "verifier_executions": stats.verifier_executions,
    }}


def group_write() -> dict:
    """A write-through write that fans out one delivery per armed
    notifier of the seven other users: plain, with a late subscriber
    and contained; then a second write to the same reference."""
    scenarios = {}
    for arm, kwargs in (("plain", {}), ("subscribed", {}),
                        ("contained", {"containment_policy":
                                       ContainmentPolicy()})):
        _, cache, (writer, *_) = armed_world(8, **kwargs)
        if arm == "subscribed":
            cache.instrumentation.subscribe(lambda event: None)
        sent = cache.core.bus.stats
        delivered = sent.deliveries
        scenarios[arm] = tally(
            lambda: cache.write(writer, b"a new version " * 40))
        scenarios[arm]["deliveries"] = sent.deliveries - delivered
    scenarios["second"] = tally(
        lambda: cache.write(writer, b"and another " * 40), ("_build_chain",))
    return scenarios


def _steps(subscriber=None) -> dict[str, dict]:
    """One tally per step of two caches of two-user worlds — one
    write-through, squeezed so one more document evicts, and one
    write-back with a recovery policy — each with *subscriber* on its
    bus, if given."""
    kernel, through, (writer, _) = armed_world(2)
    through.core.capacity_bytes = through.core.store.physical_bytes
    _, back, (buffered, _) = armed_world(
        2, write_mode=WriteMode.WRITE_BACK, recovery_policy=RecoveryPolicy())
    other = kernel.space(writer.owner).add_reference(kernel.create_document(
        writer.owner, MemoryProvider(kernel.ctx, b"other " * 10), "other"))
    through.invalidate_document(writer.document_id, writer.owner)
    if subscriber is not None:
        through.instrumentation.subscribe(subscriber)
        back.instrumentation.subscribe(subscriber)
    steps = {
        "miss": lambda: through.read(writer),
        "hit": lambda: through.read(writer),
        "eviction": lambda: through.read(other),
        "write_through": lambda: through.write(writer, b"a new version"),
        "write_back": lambda: back.write(buffered, b"buffered"),
        "flush": back.flush_all,
        "crash_restart": lambda: (back.crash(), back.restart()),
    }
    counts = {name: tally(step) for name, step in steps.items()}
    counts["totals"] = {
        "evictions": through.stats.evictions,
        "deliveries": through.stats.notifier_deliveries,
        "flushes": back.stats.flushes,
        "restarts": back.recovery_stats.restarts,
    }
    return counts


def group_events() -> dict:
    """Every step of :func:`_steps` unobserved and with a catch-all
    subscriber (``seen``: the events it got), and a two-shard cluster's
    reads and a write with nobody subscribed."""
    seen: list = []
    scenarios = {
        **_steps(),
        **{f"subscribed_{n}": c for n, c in _steps(seen.append).items()},
    }
    scenarios["subscribed_totals"]["seen"] = len(seen)
    kernel = PlacelessKernel()
    corpus = _corpus(kernel, 8)
    cluster = CacheCluster(kernel, 2, capacity_bytes=1 << 28,
                           overload_policy=OverloadPolicy())

    def reads_and_a_write() -> None:
        for document in corpus + corpus:
            cluster.read(document.reference)
        cluster.write(corpus[0].reference, b"a new version")

    scenarios["cluster"] = tally(reads_and_a_write)
    scenarios["cluster"]["reads"] = sum(
        row["reads"] for row in cluster.health_snapshot().values())
    return scenarios


def _tracked(action) -> dict:
    """Net objects the collector tracks after *action* (collector off)."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        action()
        return {"tracked": len(gc.get_objects()) - before}
    finally:
        gc.enable()


def _allocated(action) -> dict:
    """Net heap bytes and blocks *action* leaves allocated (collector
    off; the snapshots' own allocations are filtered out)."""
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
    diff = after.filter_traces(own).compare_to(before.filter_traces(own),
                                               "filename")
    return {"bytes": sum(d.size_diff for d in diff),
            "blocks": sum(d.count_diff for d in diff)}


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
            name)
        for name in ("doc", "other")
    )
    cache = DocumentCache(kernel, capacity_bytes=1 << 28)
    first, second = (kernel.space(kernel.create_user(f"user-{i}"))
                     for i in range(2))
    cache.read(second.add_reference(other))
    references: list = []
    counts = {"add_reference": measure(
        lambda: references.append(first.add_reference(base)))}
    references.append(second.add_reference(base))
    counts["first_read"] = measure(lambda: cache.read(references[0]))
    counts["second_user_first_read"] = measure(
        lambda: cache.read(references[1]))
    return counts


def group_arming() -> dict:
    """Per step of :func:`_per_step`: calls and tracked objects."""
    tallied, tracked = _per_step(tally), _per_step(_tracked)
    return {step: {**tallied[step], **tracked[step]} for step in tallied}


#: Configurations whose steady-state hits are allocation-probed: the
#: default cache, one with a subscriber attached after construction,
#: and ``seams_on``'s overload setting (a hit builds no deadline budget).
ALLOCATION_CONFIGURATIONS = {
    "default": {},
    "late_subscriber": {},
    "overload": {"overload_policy":
                 OverloadPolicy(shedding=False, hedging=False)},
}


def group_heap() -> dict:
    """Net heap blocks of 256 steady-state hits per configuration (and
    the hits the probe's 320 reads served); bytes and blocks per step
    of :func:`_per_step`."""
    scenarios = {}
    for configuration, kwargs in ALLOCATION_CONFIGURATIONS.items():
        kernel = PlacelessKernel()
        corpus = _corpus(kernel, 16)
        cache = DocumentCache(kernel, capacity_bytes=1 << 28, **kwargs)
        for document in corpus:
            cache.read(document.reference)
        if configuration == "late_subscriber":
            cache.instrumentation.subscribe(lambda event: None)
        cycle = itertools.cycle([document.reference for document in corpus])
        hits = cache.stats.hits
        per_hit = allocation_probe(lambda: cache.read(next(cycle)),
                                   iterations=256, warmup=64)
        scenarios[f"hit_{configuration}"] = {
            "blocks": round(per_hit * 256), "hits": cache.stats.hits - hits,
        }
    return {**scenarios, **_per_step(_allocated)}


# -- perfbench worlds ---------------------------------------------------------

#: perfbench's first round stream at ``--seed 61``; the pass-A operations
#: counted, and the burst writes after them.
WORLD_SEED, PASS_SLICE, BURST_SLICE = 6100, 200, 20


def _operations(world, name: str):
    """``(class, action)`` per counted operation: pass A's slice, then
    the burst's.  A churn event's document is minted here, uncounted."""
    front, catalog = world.front, world.catalog
    for operation in world.passes[0][:PASS_SLICE]:
        if name != "churn_mixed":
            yield "read", functools.partial(front.read, operation)
            continue
        world.kernel.ctx.clock.advance(operation.think_time_ms)
        index = operation.document_index
        if operation.kind is ChurnEventKind.READ:
            yield "read", functools.partial(
                front.read, catalog.document(index).reference)
        elif operation.kind is ChurnEventKind.WRITE:
            yield "write", functools.partial(
                front.write, catalog.document(index).reference,
                b"churn-update-%d" % operation.detail)
        elif (operation.kind is ChurnEventKind.PERISH
              and catalog.peek(index) is not None):
            front.invalidate_document(
                catalog.peek(index).reference.base.document_id)
    for n, reference in enumerate(world.burst[:BURST_SLICE]):
        yield "write", functools.partial(
            front.write, reference, b"counts burst write %d " % n * 90)


def _count(world, name: str) -> dict:
    scenarios: dict = {}
    for kind, action in _operations(world, name):
        served: list = []
        counts = tally(lambda: served.append(action()))
        if kind == "read":
            kind = "hit" if served[0].hit else "miss"
        scenarios.setdefault(kind, Counter()).update(ops=1, **counts)
    return {kind: dict(counts) for kind, counts in scenarios.items()}


def _shut(world) -> None:
    for cache in world.caches:
        cache.shutdown()
    world.close()


def _freed() -> int:
    """Objects of ``repro``'s own types the collector frees now."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return sum(type(o).__module__.startswith("repro.")
                   for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def measure_world(name: str) -> dict:
    """A perfbench world at smoke size: objects tracked after set-up,
    hit, miss and write counters, and what the collector frees once it
    is shut down and dropped.  Everything older is frozen meanwhile, so
    the collector walks only what the world made."""
    from perfbench.workloads import BUILDERS, SIZES

    with tempfile.TemporaryDirectory(prefix="counts-") as scratch:
        gc.collect()
        gc.freeze()
        try:
            world = BUILDERS[name](WORLD_SEED, SIZES[name]["smoke"],
                                   Path(scratch))
            gc.collect()
            scenarios = {"tracked": dict(Counter(
                type(o).__name__ for o in gc.get_objects()))}
            scenarios.update(_count(world, name))
            _shut(world)
            gc.collect()
            del world
            scenarios["world"] = {"freed": _freed()}
        finally:
            gc.unfreeze()
    return scenarios


#: Group -> its measurement, ``{scenario: {counter: value}}``.
GROUPS = {
    "hit": group_hit,
    "miss": group_miss,
    "l2": group_l2,
    "breaker": group_breaker,
    "write": group_write,
    "events": group_events,
    "arming": group_arming,
    "heap": group_heap,
    **{name: functools.partial(measure_world, name) for name in WORLDS},
}


def _measure(group: str) -> dict[str, int]:
    GROUPS[group]()
    return {
        f"{group}.{scenario}.{counter}": value
        for scenario, counters in GROUPS[group]().items()
        for counter, value in counters.items()
    }


def measure(group: str) -> dict[str, int]:
    """One group's counts, keyed ``group.scenario.counter``."""
    if group != "heap":
        return _measure(group)
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; from tests.integration.counts import _measure;"
         " json.dump(_measure('heap'), sys.stdout)"],
        cwd=ROOT, capture_output=True, text=True, check=True,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join((str(ROOT / "src"), str(ROOT)))},
    )
    return json.loads(done.stdout)


def measure_all() -> dict[str, int]:
    return {key: value for group in GROUPS for key, value in
            measure(group).items()}


# -- the snapshot's sections --------------------------------------------------


def version() -> str:
    """This interpreter's section: its CPython minor version."""
    return "%d.%d" % sys.version_info[:2]


def view(golden: dict, found: dict) -> tuple[dict, dict, list[str]]:
    """``(pinned, found, unmeasured keys)`` to compare here.

    ``counts.json`` holds a ``measured`` section per version ``--update``
    ran on, compared exactly, and ``carried`` sections for versions it
    never ran on (``other``: any version without one): the bounds the
    hand-written budgets held, a number exact and ``"<= N"`` a ceiling,
    an absent counter counting 0.  A key a carried section does not
    hold is unmeasured: listed, not compared."""
    measured = golden["measured"].get(version())
    if measured is not None:
        return measured, found, []
    carried = golden["carried"].get(version(), golden["carried"]["other"])
    pins, compared = {}, {}
    for key, pin in carried.items():
        value = compared[key] = found.get(key, 0)
        ceiling = isinstance(pin, str) and value <= float(pin.split()[1])
        pins[key] = value if ceiling else pin
    return pins, compared, sorted(found.keys() - carried.keys())


def pin(golden: dict, found: dict) -> dict:
    """*golden* with this version's section measured as *found*."""
    return {
        "measured": {**golden["measured"], version(): found},
        "carried": {name: section
                    for name, section in golden["carried"].items()
                    if name != version()},
    }
