"""Million-entry churn workloads: lazy corpora + lifecycle traces.

The Table-1-era workloads (:mod:`repro.workload.documents`,
:mod:`repro.workload.trace`) materialize every document up front and
draw a closed population of indices — fine at 10^2 documents, hopeless
at 10^6, where eager materialization alone (text generation, provider
objects, origin records) costs minutes of wall clock and gigabytes of
RSS before the first read.  This module adds the scale pieces:

* :class:`ZipfSampler` — inverse-CDF Zipf over an ``array('d')``
  cumulative table, samplable over any live prefix, so one table built
  once serves a population that grows by publishes;
* :class:`ChurnCatalog` — a *lazy* corpus.  One seeded RNG pass fixes
  every document's size and repository at construction (the same draws,
  in the same order, :func:`~repro.workload.documents.build_corpus`
  makes), but text generation, provider construction and kernel import
  happen per document on first touch.  Materializing all documents in
  index order is byte-identical to the eager builder — a pinned-digest
  test holds the two together;
* :class:`ChurnSpec` / :func:`generate_churn` — a streaming trace
  generator with the dynamics a long-lived document population actually
  has: Zipf popularity over the *live* set, publish/perish churn, flash
  crowds, day/night load cycles and a personal/universal document mix.

Everything is a pure function of the spec's seed: same spec, same
events, on every platform (``random.Random`` is stable across CPython
versions for the methods used here).
"""

from __future__ import annotations

import enum
import random
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

from repro.errors import WorkloadError
from repro.ids import UserId
from repro.placeless.kernel import PlacelessKernel
from repro.providers.base import BitProvider
from repro.providers.filesystem import FileSystemProvider
from repro.providers.simfs import SimulatedFileSystem
from repro.providers.web import WebOrigin, WebProvider
from repro.workload.documents import (
    CorpusDocument,
    CorpusSpec,
    generate_text,
)

__all__ = [
    "ZipfSampler",
    "ChurnCatalog",
    "ChurnEventKind",
    "ChurnEvent",
    "ChurnSpec",
    "generate_churn",
]


class ZipfSampler:
    """Inverse-CDF Zipf(alpha) sampling over ranks ``[0, n_items)``.

    The cumulative harmonic table lives in an ``array('d')`` — 8 bytes
    per rank instead of a boxed float per rank, which at 10^6 ranks is
    the difference between an 8 MB table and ~36 MB of float objects.
    :meth:`sample` draws over a caller-chosen live prefix, so a
    population that grows by publishes reuses one table instead of
    rebuilding the distribution per event.
    """

    __slots__ = ("n_items", "alpha", "_cumulative")

    def __init__(self, n_items: int, alpha: float = 0.8) -> None:
        if n_items <= 0:
            raise WorkloadError(f"n_items must be positive: {n_items}")
        if alpha < 0:
            raise WorkloadError(f"alpha must be non-negative: {alpha}")
        self.n_items = n_items
        self.alpha = alpha
        cumulative = array("d")
        total = 0.0
        for rank in range(n_items):
            total += 1.0 / (rank + 1) ** alpha
            cumulative.append(total)
        self._cumulative = cumulative

    def sample(self, rng: random.Random, n_live: int | None = None) -> int:
        """One rank draw, restricted to the first *n_live* ranks."""
        if n_live is None:
            n_live = self.n_items
        elif not 0 < n_live <= self.n_items:
            raise WorkloadError(
                f"n_live must be in (0, {self.n_items}]: {n_live}"
            )
        cumulative = self._cumulative
        total = cumulative[n_live - 1]
        return bisect_left(cumulative, rng.random() * total, 0, n_live - 1)


#: The web repositories a catalog can mint into, beside the ``nfs`` filer.
_WEB_HOSTS = ("parcweb", "www")


class ChurnCatalog:
    """A lazily-materialized synthetic corpus.

    Construction performs exactly one pass over the spec's RNG, fixing
    each index's size and repository with the *same draws in the same
    order* as the eager :func:`~repro.workload.documents.build_corpus`
    loop — the scalars land in ``array`` columns (9 bytes per document)
    instead of built documents.  :meth:`document` materializes index
    *i* on first touch: deterministic text (seeded per index,
    independent of materialization order), the provider, the kernel
    import.  A churn run over a million-document catalog therefore pays
    materialization only for the documents the trace actually touches.

    Materializing every index in order (:meth:`materialize_all`) yields
    a corpus byte-identical to the eager builder's — including document
    ids, which the kernel mints in import order.
    """

    def __init__(
        self,
        kernel: "PlacelessKernel",
        owner: "UserId",
        spec: CorpusSpec | None = None,
    ) -> None:
        spec = spec or CorpusSpec()
        weights = [w for _, w in spec.repository_mix]
        names = [n for n, _ in spec.repository_mix]
        if abs(sum(weights) - 1.0) > 1e-9:
            raise WorkloadError("repository_mix probabilities must sum to 1")
        for name in names:
            if name != "nfs" and name not in _WEB_HOSTS:
                raise WorkloadError(
                    f"repository_mix names {name!r}: the catalog mints "
                    f"only nfs, {', '.join(_WEB_HOSTS)}"
                )
        self.kernel = kernel
        self.owner = owner
        self.spec = spec
        self._names = names
        # The one RNG pass: identical draw order to the eager builder
        # (lognormvariate then choices, per index), so the per-index
        # scalars are the same no matter which builder ran.  The bisect
        # is the draw ``rng.choices(names, weights)`` makes, without its
        # rebuilding the cumulative weights per index.
        rng = random.Random(spec.seed)
        cumulative = list(accumulate(weights))
        total = cumulative[-1]
        last = len(names) - 1
        sizes = array("l")
        repositories = array("b")
        for _ in range(spec.n_documents):
            size = int(rng.lognormvariate(spec.size_mu, spec.size_sigma))
            sizes.append(max(spec.min_size, min(spec.max_size, size)))
            repositories.append(
                bisect_right(cumulative, rng.random() * total, 0, last)
            )
        self._sizes = sizes
        self._repositories = repositories
        self._filesystem = SimulatedFileSystem(kernel.ctx.clock)
        self._origins = {
            host: WebOrigin(kernel.ctx.clock, host=host) for host in _WEB_HOSTS
        }
        self._documents: dict[int, CorpusDocument] = {}
        #: One containment test bounds an index, a negative one too.
        self._indices = range(spec.n_documents)

    def __len__(self) -> int:
        return self.spec.n_documents

    @property
    def materialized_count(self) -> int:
        """Documents built so far (the lazy saving is ``len - this``)."""
        return len(self._documents)

    def size_of(self, index: int) -> int:
        """Index *i*'s content size, without materializing it."""
        if index not in self._indices:
            raise self._out_of_range(index)
        return self._sizes[index]

    def repository_of(self, index: int) -> str:
        """Index *i*'s repository name, without materializing it."""
        if index not in self._indices:
            raise self._out_of_range(index)
        return self._names[self._repositories[index]]

    def _out_of_range(self, index: int) -> WorkloadError:
        return WorkloadError(f"document index out of range: {index} "
                             f"(catalog holds {len(self)})")

    def peek(self, index: int) -> CorpusDocument | None:
        """The document if already materialized, else ``None``."""
        return self._documents.get(index)

    def document(self, index: int) -> CorpusDocument:
        """Index *i*'s document, materializing it on first touch."""
        built = self._documents.get(index)
        if built is not None:
            return built
        spec = self.spec
        size = self.size_of(index)
        content = generate_text(size, seed=spec.seed * 100_003 + index)
        repository = self._names[self._repositories[index]]
        label = f"doc-{index:04d}"
        provider: "BitProvider"
        if repository == "nfs":
            path = f"/corpus/{label}.txt"
            self._filesystem.write(path, content)
            provider = FileSystemProvider(
                self.kernel.ctx, self._filesystem, path
            )
        else:
            origin = self._origins[repository]
            url = f"/{label}.html"
            origin.publish(url, content, ttl_ms=spec.ttl_ms)
            provider = WebProvider(self.kernel.ctx, origin, url)
        reference = self.kernel.import_document(self.owner, provider, label)
        built = CorpusDocument(
            reference=reference,
            provider=provider,
            repository=repository,
            size_bytes=size,
            label=label,
        )
        self._documents[index] = built
        return built

    def materialize_all(self) -> list[CorpusDocument]:
        """Every document, in index order (the eager builder's output)."""
        return [self.document(index) for index in range(self.spec.n_documents)]


# -- churn traces ---------------------------------------------------------------


class ChurnEventKind(enum.Enum):
    """What one churn-trace step does."""

    READ = "read"
    WRITE = "write"
    PUBLISH = "publish"
    PERISH = "perish"


@dataclass(slots=True)
class ChurnEvent:
    """One step of a churn trace."""

    kind: ChurnEventKind
    document_index: int
    user_index: int
    #: Virtual milliseconds to advance before executing this event.
    think_time_ms: float = 0.0
    #: Step-specific detail (e.g. new content seed for a WRITE).
    detail: int = 0


@dataclass
class ChurnSpec:
    """Configuration for :func:`generate_churn`.

    The trace runs over a catalog of ``n_documents`` indices of which
    ``n_live_start`` exist at time zero; PUBLISH events bring the rest
    into existence in index order and PERISH events retire live ones.
    Popularity is Zipf over the live set's *rank order* (publish order;
    a perish swap-fills the vacated rank from the tail, a deterministic
    small perturbation).  A flash crowd redirects ``flash_share`` of
    reads to one document for ``flash_duration`` events.  The day/night
    cycle stretches think times by ``night_think_factor`` for the night
    fraction of each ``cycle_period``-event period.
    """

    n_events: int = 10_000
    n_documents: int = 1000
    n_live_start: int = 500
    n_users: int = 4
    zipf_alpha: float = 0.8
    #: Per-event probabilities; the remainder of 1 is READ.
    p_write: float = 0.02
    p_publish: float = 0.01
    p_perish: float = 0.005
    #: Probability per event of *starting* a flash crowd (when idle).
    p_flash: float = 0.0005
    flash_duration: int = 500
    flash_share: float = 0.6
    #: Day/night load cycle; 0 disables it.
    cycle_period: int = 0
    day_fraction: float = 0.7
    night_think_factor: float = 4.0
    mean_think_time_ms: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        """Raise on an unsatisfiable configuration."""
        if not 0 < self.n_live_start <= self.n_documents:
            raise WorkloadError(
                "n_live_start must be in (0, n_documents]: "
                f"{self.n_live_start} of {self.n_documents}"
            )
        if self.n_users <= 0:
            raise WorkloadError(f"n_users must be positive: {self.n_users}")
        total = self.p_write + self.p_publish + self.p_perish
        if total > 1.0 + 1e-9:
            raise WorkloadError("event-kind probabilities exceed 1")


def generate_churn(spec: ChurnSpec) -> Iterator[ChurnEvent]:
    """Yield *spec.n_events* churn events deterministically.

    Streaming: state is O(live documents), never O(events), so a
    10^7-event trace over a 10^6-document catalog generates in constant
    memory beyond the live list.  Invariants (pinned by the hypothesis
    suite):

    * same spec → identical event stream, every time;
    * no READ/WRITE of a document before its PUBLISH or after its
      PERISH;
    * a PUBLISH introduces each index at most once, in index order;
    * popularity is monotone in rank over the stable prefix.
    """
    spec.validate()
    rng = random.Random(spec.seed)
    zipf = ZipfSampler(spec.n_documents, spec.zipf_alpha)
    #: Live documents in rank order; index into this list is the
    #: popularity rank the Zipf draw selects.
    live: list[int] = list(range(spec.n_live_start))
    next_index = spec.n_live_start
    flash_document = -1
    flash_remaining = 0
    night_start = (
        int(spec.cycle_period * spec.day_fraction)
        if spec.cycle_period > 0
        else 0
    )

    for step in range(spec.n_events):
        think = 0.0
        if spec.mean_think_time_ms > 0:
            think = rng.expovariate(1.0 / spec.mean_think_time_ms)
            if spec.cycle_period > 0:
                if (step % spec.cycle_period) >= night_start:
                    think *= spec.night_think_factor

        roll = rng.random()
        if roll < spec.p_write:
            kind = ChurnEventKind.WRITE
        elif roll < spec.p_write + spec.p_publish:
            kind = ChurnEventKind.PUBLISH
        elif roll < spec.p_write + spec.p_publish + spec.p_perish:
            kind = ChurnEventKind.PERISH
        else:
            kind = ChurnEventKind.READ

        if kind is ChurnEventKind.PUBLISH:
            if next_index < spec.n_documents:
                live.append(next_index)
                yield ChurnEvent(
                    kind=kind,
                    document_index=next_index,
                    user_index=0,
                    think_time_ms=think,
                )
                next_index += 1
                continue
            kind = ChurnEventKind.READ  # catalog exhausted: read instead
        elif kind is ChurnEventKind.PERISH:
            if len(live) > 1:
                victim_rank = rng.randrange(len(live))
                victim = live[victim_rank]
                # Swap-remove: the tail document inherits the vacated
                # rank.  O(1), deterministic, and the rank perturbation
                # only ever *demotes* popularity mass toward the tail.
                live[victim_rank] = live[-1]
                live.pop()
                if victim == flash_document:
                    flash_remaining = 0
                    flash_document = -1
                yield ChurnEvent(
                    kind=kind,
                    document_index=victim,
                    user_index=0,
                    think_time_ms=think,
                )
                continue
            kind = ChurnEventKind.READ  # nothing perishable: read instead

        # Flash-crowd bookkeeping (READ/WRITE events only).
        if flash_remaining > 0:
            flash_remaining -= 1
            if flash_remaining == 0:
                flash_document = -1
        elif spec.p_flash > 0 and rng.random() < spec.p_flash:
            flash_document = live[zipf.sample(rng, len(live))]
            flash_remaining = spec.flash_duration

        if (
            flash_document >= 0
            and kind is ChurnEventKind.READ
            and rng.random() < spec.flash_share
        ):
            document = flash_document
        else:
            document = live[zipf.sample(rng, len(live))]

        yield ChurnEvent(
            kind=kind,
            document_index=document,
            user_index=rng.randrange(spec.n_users),
            think_time_ms=think,
            detail=rng.randrange(1 << 30),
        )
