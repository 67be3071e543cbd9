"""The four workloads: world builders and the closed-loop drivers.

Each workload is a function ``(seed, size, scratch) -> World``.  Building
the world *is* the benchmark's set-up (corpus, population, cache, trace
generation, warm-up); the :class:`World` then exposes two drivers over
its pre-generated operations — an untimed-lap pass (throughput) and a
lap-timed pass (latency percentiles) — which never share a loop, plus a
write burst and a served-bytes check.  One client, one thread: the next
operation is issued when the previous one returns.

``seed`` drives the request stream: which documents are read in what
order by which user, the churn events (writes, publishes, perishes,
flash crowds, think times), the burst targets and the check samples.
The *site* is the workload's definition and stays fixed, so that runs at
different seeds measure the same system and stay comparable: the corpus
(``CORPUS_SEED``: document sizes, repositories and text — a seeded
corpus alone moves ``hit_ratio`` by 8 % and ``virtual_ms_per_read`` by
17 % between seeds, against 1.5 % for the request stream), the eight
users' chain assignment (``POPULATION_SEED``; an 8-way draw at
``personalized_fraction=0.5`` swings between 2 and 7 transforming users)
and the structural sizes in :data:`SIZES`.
"""

from __future__ import annotations

import random
import shutil
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from repro.cache.manager import DocumentCache
from repro.cache.policies import (
    DefaultConcurrencyPolicy,
    DefaultContainmentPolicy,
    DefaultMemoPolicy,
    DefaultOverloadPolicy,
    DefaultStoragePolicy,
)
from repro.cache.replacement import make_policy
from repro.cache.stats import CacheStats
from repro.cluster import CacheCluster, DefaultClusterPolicy
from repro.placeless.kernel import PlacelessKernel
from repro.workload.churn import (
    ChurnCatalog,
    ChurnEventKind,
    ChurnSpec,
    generate_churn,
)
from repro.workload.documents import CorpusSpec
from repro.workload.trace import zipf_indices
from repro.workload.users import build_population

CORPUS_SEED = 61
#: Chain assignment of the eight ``miss_chain``/``seams_on`` users
#: (spellcheck, plain, summarize, plain, summarize,
#: spellcheck+translate, spellcheck, translate).
POPULATION_SEED = 61
N_USERS = 8

#: Payload of every burst write: a counter plus filler, 2 KiB — the
#: corpus's median document size.
_WRITE_FILLER = b"perfbench burst write. " * 90


@dataclass(frozen=True)
class Size:
    """Operation counts and population sizes of one workload."""

    documents: int
    #: Operations replayed untimed in set-up (0: pre-read every document).
    warmup: int
    #: Operations in *each* of the two timed passes.
    per_pass: int
    #: Nominal wall-clock seconds of passes A+B on the reference box;
    #: ``--seconds`` divided by this is the number of rounds in a run.
    round_s: float
    burst_writes: int = 400
    check_samples: int = 500
    #: Web documents' TTL on the virtual clock (``hot_hits`` only: its
    #: few misses are TTL expiries, and a smoke run is too short to see
    #: the default minute pass).
    ttl_ms: float = 60_000.0


_SMOKE = {"round_s": 0.1, "burst_writes": 40, "check_samples": 60}

#: Fixed on every commit.  ``full`` is what BENCHMARK.json measures (a
#: 10 s run holds 3-4 rounds of ~3 s); ``smoke`` is for the self-tests.
SIZES = {
    "hot_hits": {
        "full": Size(256, warmup=0, per_pass=150_000, round_s=2.6),
        "smoke": Size(64, warmup=0, per_pass=3_000, ttl_ms=300.0, **_SMOKE),
    },
    "miss_chain": {
        "full": Size(2_000, warmup=4_000, per_pass=6_000, round_s=2.6),
        "smoke": Size(150, warmup=200, per_pass=400, **_SMOKE),
    },
    "churn_mixed": {
        "full": Size(200_000, warmup=4_000, per_pass=10_000, round_s=2.6),
        "smoke": Size(4_000, warmup=300, per_pass=800, **_SMOKE),
    },
    "seams_on": {
        "full": Size(2_000, warmup=4_000, per_pass=6_000, round_s=3.5),
        "smoke": Size(150, warmup=200, per_pass=400, **_SMOKE),
    },
}


@dataclass
class Laps:
    """What one driver call did: operation counts plus whatever
    per-operation wall-clock laps (seconds) that driver takes."""

    attempted: int = 0
    failed: int = 0
    #: ``repr`` of the first exception an operation raised, if any.
    first_error: str = ""
    hits: array = field(default_factory=lambda: array("d"))
    misses: array = field(default_factory=lambda: array("d"))
    writes: array = field(default_factory=lambda: array("d"))

    def fail(self, error: Exception) -> None:
        self.failed += 1
        self.first_error = self.first_error or repr(error)


class World:
    """One built workload instance: the system under test plus inputs.

    ``passes`` holds the pre-generated operations of the two timed
    passes; subclasses interpret them.  ``caches`` lists every
    :class:`DocumentCache` (one, or the cluster's shards) so counters
    and content stores can be summed.
    """

    def __init__(
        self,
        *,
        kernel: PlacelessKernel,
        front,
        caches: list[DocumentCache],
        passes: tuple[list, list],
        catalog: ChurnCatalog,
    ) -> None:
        self.kernel = kernel
        #: ``DocumentCache`` or ``CacheCluster``: what the client calls.
        self.front = front
        self.caches = caches
        self.passes = passes
        #: References the write burst writes to, in order, and the
        #: references the served-bytes check reads.
        self.burst: list = []
        self.samples: list = []
        self.catalog = catalog
        #: Reads whose bytes differed from a direct kernel read.
        self.wrong_bytes = 0
        self._writes = 0

    def choose_targets(self, population: list, seed: int, size: Size) -> None:
        """Draw the burst and check references from *population*."""
        rng = random.Random(seed + 3)
        self.burst = _sample(rng, population, size.burst_writes)
        self.samples = _sample(rng, population, size.check_samples)

    # -- counters ------------------------------------------------------------

    def stats(self) -> CacheStats:
        """Cache counters summed over every cache of this world."""
        return CacheStats.merged([cache.stats for cache in self.caches])

    def stored_bytes(self) -> tuple[int, int]:
        """``(physical, logical)`` content-store bytes, summed."""
        return (
            sum(cache.store.physical_bytes for cache in self.caches),
            sum(cache.store.logical_bytes for cache in self.caches),
        )

    def storage_bytes_appended(self) -> int:
        """Bytes in durable-tier segment files (none without a tier)."""
        return 0

    # -- drivers -------------------------------------------------------------

    def run_plain(self, operations: list) -> Laps:
        """Replay *operations* in a tight loop; the caller times it."""
        laps = Laps(attempted=len(operations))
        read = self.front.read
        for reference in operations:
            try:
                read(reference)
            except Exception as error:
                laps.fail(error)
        return laps

    def run_lapped(self, operations: list) -> Laps:
        """Replay *operations* with one wall-clock lap per operation."""
        laps = Laps(attempted=len(operations))
        read = self.front.read
        hits, misses = laps.hits, laps.misses
        for reference in operations:
            lap = perf_counter()
            try:
                outcome = read(reference)
            except Exception as error:
                laps.fail(error)
                continue
            elapsed = perf_counter() - lap
            if outcome.hit:
                hits.append(elapsed)
            else:
                misses.append(elapsed)
        return laps

    def run_burst(self, references: list, check: bool) -> Laps:
        """Lap-timed writes of a 2 KiB payload to *references*.

        With *check*, every write is read back through the cache and
        compared with a direct kernel read (read-your-write).
        """
        laps = Laps(attempted=len(references))
        write, read = self.front.write, self.front.read
        for reference in references:
            self._writes += 1
            payload = b"%08d " % self._writes + _WRITE_FILLER
            lap = perf_counter()
            try:
                write(reference, payload)
            except Exception as error:
                laps.fail(error)
                continue
            laps.writes.append(perf_counter() - lap)
            if check and not self._served_correctly(read, reference):
                self.wrong_bytes += 1
        return laps

    def check_served_bytes(self) -> None:
        """Sample reads through the cache vs. direct kernel reads."""
        read = self.front.read
        for reference in self.samples:
            if not self._served_correctly(read, reference):
                self.wrong_bytes += 1

    def _served_correctly(self, read, reference) -> bool:
        served = read(reference).content
        return served == self.kernel.read(reference).content

    def close(self) -> None:
        """Release what the world holds outside the heap."""


class ChurnWorld(World):
    """``churn_mixed``: operations are churn events, minted lazily."""

    def run_plain(self, operations: list) -> Laps:
        laps = Laps(attempted=len(operations))
        cache, catalog = self.front, self.catalog
        clock = self.kernel.ctx.clock
        read_kind, write_kind = ChurnEventKind.READ, ChurnEventKind.WRITE
        perish_kind = ChurnEventKind.PERISH
        for event in operations:
            if event.think_time_ms:
                clock.advance(event.think_time_ms)
            kind = event.kind
            try:
                if kind is read_kind:
                    cache.read(
                        catalog.document(event.document_index).reference
                    )
                elif kind is write_kind:
                    cache.write(
                        catalog.document(event.document_index).reference,
                        b"churn-update-%d" % event.detail,
                    )
                elif kind is perish_kind:
                    document = catalog.peek(event.document_index)
                    if document is not None:
                        cache.invalidate_document(
                            document.reference.base.document_id
                        )
                # PUBLISH is bookkeeping: the newcomer is minted by the
                # first READ that touches it.
            except Exception as error:
                laps.fail(error)
        return laps

    def run_lapped(self, operations: list) -> Laps:
        # Laps bracket ``cache.read`` only: minting is the workload
        # engine's cost and shows in ``ops_per_s``, not in read latency.
        laps = Laps(attempted=len(operations))
        cache, catalog = self.front, self.catalog
        clock = self.kernel.ctx.clock
        hits, misses = laps.hits, laps.misses
        read_kind, write_kind = ChurnEventKind.READ, ChurnEventKind.WRITE
        perish_kind = ChurnEventKind.PERISH
        for event in operations:
            if event.think_time_ms:
                clock.advance(event.think_time_ms)
            kind = event.kind
            try:
                if kind is read_kind:
                    reference = catalog.document(
                        event.document_index
                    ).reference
                    lap = perf_counter()
                    outcome = cache.read(reference)
                    elapsed = perf_counter() - lap
                    if outcome.hit:
                        hits.append(elapsed)
                    else:
                        misses.append(elapsed)
                elif kind is write_kind:
                    cache.write(
                        catalog.document(event.document_index).reference,
                        b"churn-update-%d" % event.detail,
                    )
                elif kind is perish_kind:
                    document = catalog.peek(event.document_index)
                    if document is not None:
                        cache.invalidate_document(
                            document.reference.base.document_id
                        )
            except Exception as error:
                laps.fail(error)
        return laps


class SeamsWorld(World):
    """``seams_on``: owns the L2 tier's segment directories."""

    def __init__(self, *, directory: Path, **kwargs) -> None:
        super().__init__(**kwargs)
        self.directory = directory

    def storage_bytes_appended(self) -> int:
        """Bytes in every shard's segment files."""
        return sum(
            path.stat().st_size for path in self.directory.rglob("*.seg")
        )

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


# -- builders ------------------------------------------------------------------


def _split(operations: list, size: Size) -> tuple[list, tuple[list, list]]:
    """``(warm-up, (pass A, pass B))`` — consecutive trace segments."""
    first = size.warmup
    second = first + size.per_pass
    return operations[:first], (
        operations[first:second],
        operations[second:second + size.per_pass],
    )


def _sample(rng: random.Random, population: list, count: int) -> list:
    return [population[rng.randrange(len(population))] for _ in range(count)]


def build_hot_hits(seed: int, size: Size, scratch: Path) -> World:
    """Working set fits: every document resident, Zipf(0.8) reads."""
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    catalog = ChurnCatalog(
        kernel, owner,
        CorpusSpec(
            n_documents=size.documents, seed=CORPUS_SEED, ttl_ms=size.ttl_ms,
        ),
    )
    corpus = catalog.materialize_all()
    cache = DocumentCache(kernel, capacity_bytes=1 << 30, name="hot-hits")
    trace = zipf_indices(
        size.documents, 2 * size.per_pass, 0.8, seed=seed + 1
    )
    references = [corpus[index].reference for index in trace]
    _, passes = _split(references, size)
    world = World(
        kernel=kernel, front=cache, caches=[cache], passes=passes,
        catalog=catalog,
    )
    world.choose_targets(references, seed, size)
    for document in corpus:  # warm: every later read can hit
        cache.read(document.reference)
    return world


def _chain_inputs(seed: int, size: Size):
    """The shared ``miss_chain`` / ``seams_on`` world and trace."""
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    catalog = ChurnCatalog(
        kernel, owner,
        CorpusSpec(
            n_documents=size.documents, seed=CORPUS_SEED,
            max_size=32_000, ttl_ms=3_600_000,
        ),
    )
    corpus = catalog.materialize_all()
    population = build_population(
        kernel, corpus, N_USERS,
        personalized_fraction=0.5, seed=POPULATION_SEED,
    )
    n_references = size.warmup + 2 * size.per_pass
    trace = zipf_indices(size.documents, n_references, 0.9, seed=seed + 1)
    users = random.Random(seed + 2)
    references = [
        population.reference(users.randrange(N_USERS), index)
        for index in trace
    ]
    # 5 % of what all users' versions would occupy; the floor only binds
    # at smoke size, where a shard must still hold its largest document.
    capacity = max(
        1 << 20, int(0.05 * N_USERS * sum(d.size_bytes for d in corpus))
    )
    return kernel, catalog, references, capacity


def build_miss_chain(seed: int, size: Size, scratch: Path) -> World:
    """Working set >> cache: personalised chains, 5 % capacity."""
    kernel, catalog, references, capacity = _chain_inputs(seed, size)
    cache = DocumentCache(kernel, capacity_bytes=capacity, name="miss-chain")
    warmup, passes = _split(references, size)
    world = World(
        kernel=kernel, front=cache, caches=[cache], passes=passes,
        catalog=catalog,
    )
    world.choose_targets(references, seed, size)
    for reference in warmup:
        cache.read(reference)
    return world


def build_seams_on(seed: int, size: Size, scratch: Path) -> World:
    """The ``miss_chain`` inputs behind a 4-shard, every-seam cluster."""
    kernel, catalog, references, capacity = _chain_inputs(seed, size)
    directory = scratch / "l2"
    cluster = CacheCluster(
        kernel, 4, capacity // 4,
        cluster_policy=DefaultClusterPolicy(),
        memo_policy=DefaultMemoPolicy(),
        concurrency_policy=DefaultConcurrencyPolicy(),
        overload_policy=DefaultOverloadPolicy(shedding=False, hedging=False),
        name="seams-on",
        shard_kwargs={
            "storage_policy": DefaultStoragePolicy(directory=str(directory)),
            "containment_policy": DefaultContainmentPolicy(),
        },
    )
    warmup, passes = _split(references, size)
    world = SeamsWorld(
        directory=directory,
        kernel=kernel, front=cluster, caches=list(cluster.shards.values()),
        passes=passes, catalog=catalog,
    )
    world.choose_targets(references, seed, size)
    for reference in warmup:
        cluster.read(reference)
    return world


def build_churn_mixed(seed: int, size: Size, scratch: Path) -> World:
    """Lazily-minted catalog under publish/perish churn, 5 % writes."""
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    catalog = ChurnCatalog(
        kernel, owner,
        CorpusSpec(n_documents=size.documents, seed=CORPUS_SEED),
    )
    n_events = size.warmup + 2 * size.per_pass
    events = list(generate_churn(ChurnSpec(
        n_events=n_events,
        n_documents=size.documents,
        n_live_start=size.documents // 2,
        n_users=4,
        zipf_alpha=1.1,
        p_write=0.05,
        p_publish=0.002,
        p_perish=0.002,
        p_flash=0.0005,
        flash_duration=400,
        flash_share=0.6,
        cycle_period=max(1, n_events // 8),
        day_fraction=0.7,
        night_think_factor=4.0,
        mean_think_time_ms=1.0,
        seed=seed,
    )))
    total = sum(catalog.size_of(index) for index in range(len(catalog)))
    cache = DocumentCache(
        kernel,
        capacity_bytes=max(1 << 20, int(total * 0.02)),
        policy=make_policy("gds"),
        name="churn-mixed",
    )
    warmup, passes = _split(events, size)
    world = ChurnWorld(
        kernel=kernel, front=cache, caches=[cache], passes=passes,
        catalog=catalog,
    )
    world.run_plain(warmup)
    # Burst and check targets are documents the warm-up minted, so
    # choosing them mints nothing the trace would not have.
    minted = [
        catalog.peek(event.document_index).reference
        for event in warmup
        if event.kind is ChurnEventKind.READ
    ]
    world.choose_targets(minted, seed, size)
    return world


BUILDERS: dict[str, Callable[[int, Size, Path], World]] = {
    "hot_hits": build_hot_hits,
    "miss_chain": build_miss_chain,
    "churn_mixed": build_churn_mixed,
    "seams_on": build_seams_on,
}
