"""Trace runner: executes a generated trace against a deployment.

The benches each hand-roll a small loop over
:class:`~repro.workload.trace.TraceEvent`; the runner is the reusable,
fully-general version covering every event kind — demand reads through a
cache (or bare kernel), in-band writes (through the cache or by a
separate writer principal), out-of-band repository mutation, property
attach/detach toggling, chain reordering and external-value changes —
with per-kind accounting.  Experiments that need bespoke bookkeeping
(e.g. A1's per-configuration staleness) keep their own loops; new
experiments and user studies can start from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.cache.manager import DocumentCache
from repro.errors import UNAVAILABLE_ERRORS, WorkloadError
from repro.placeless.kernel import PlacelessKernel
from repro.placeless.reference import DocumentReference
from repro.properties.translate import TranslationProperty
from repro.workload.documents import CorpusDocument, generate_text
from repro.workload.trace import TraceEvent, TraceEventKind

__all__ = ["RunnerReport", "TraceRunner"]


@dataclass
class RunnerReport:
    """Per-kind accounting of one trace execution."""

    events: int = 0
    reads: int = 0
    read_latency_ms: float = 0.0
    hits: int = 0
    #: Reads that failed with a provider error (outage/unavailability)
    #: even after the cache's retries and degradation modes.
    read_failures: int = 0
    #: Reads answered in a degradation mode (stale-on-error, or a
    #: containment skip's ``miss-degraded``).
    degraded_reads: int = 0
    writes: int = 0
    #: In-band writes rejected by an offline repository.
    write_failures: int = 0
    out_of_band_updates: int = 0
    property_attaches: int = 0
    property_detaches: int = 0
    reorders: int = 0
    external_changes: int = 0
    #: Per-document external values after the run (for assertions).
    externals: dict[int, int] = field(default_factory=dict)

    @property
    def mean_read_latency_ms(self) -> float:
        """Average virtual read latency (0.0 with no reads)."""
        return self.read_latency_ms / self.reads if self.reads else 0.0

    @property
    def hit_ratio(self) -> float:
        """Hits over reads (0.0 with no reads)."""
        return self.hits / self.reads if self.reads else 0.0

    @property
    def availability(self) -> float:
        """Successfully answered reads over reads (1.0 with no reads).

        Degraded serves count as available — that is what the
        degradation modes buy.
        """
        if self.reads == 0:
            return 1.0
        return (self.reads - self.read_failures) / self.reads


class TraceRunner:
    """Executes trace events against a corpus + user population.

    Parameters
    ----------
    kernel:
        The deployment's kernel.
    corpus:
        The documents, indexed by the trace's ``document_index``.
    references:
        ``references[user_index][document_index]`` — each user's handle
        to each document (a single-user run passes one row).
    caches:
        ``None`` (no caching: reads go straight through the kernel), one
        shared cache, or one cache per user.
    writes_via_cache:
        When True, WRITE events go through the acting user's cache; when
        False (default) they are issued by a dedicated *writer* principal
        directly through the kernel — modelling other applications
        updating documents behind the readers' backs (but in-band).
    seed_salt:
        Mixed into generated write contents so two runners with the same
        trace can still produce distinct bytes if desired.
    """

    def __init__(
        self,
        kernel: PlacelessKernel,
        corpus: list[CorpusDocument],
        references: list[list[DocumentReference]],
        caches: DocumentCache | list[DocumentCache] | None = None,
        writes_via_cache: bool = False,
        seed_salt: int = 0,
    ) -> None:
        if not references or not all(
            len(row) == len(corpus) for row in references
        ):
            raise WorkloadError(
                "references must be a user x document matrix over the corpus"
            )
        self.kernel = kernel
        self.corpus = corpus
        self.references = references
        if caches is None or isinstance(caches, DocumentCache):
            self._caches = [caches] * len(references)
        else:
            if len(caches) != len(references):
                raise WorkloadError("need one cache per user (or one shared)")
            self._caches = list(caches)
        self.writes_via_cache = writes_via_cache
        self.seed_salt = seed_salt
        self._writer_refs: dict[int, DocumentReference] = {}
        self._writer = None
        #: Per-document external values mutated by EXTERNAL_CHANGE events;
        #: external-dependency properties may sample these.
        self.externals: dict[int, int] = {}

    # -- helpers ---------------------------------------------------------------

    def external_value(self, document_index: int) -> int:
        """Current external value for a document (0 before any change)."""
        return self.externals.get(document_index, 0)

    def _writer_reference(self, document_index: int) -> DocumentReference:
        if self._writer is None:
            self._writer = self.kernel.create_user("trace-writer")
        reference = self._writer_refs.get(document_index)
        if reference is None:
            reference = self.kernel.space(self._writer).add_reference(
                self.corpus[document_index].reference.base
            )
            self._writer_refs[document_index] = reference
        return reference

    def _toggle_property(
        self, reference: DocumentReference, report: RunnerReport
    ) -> None:
        name = "runner-translate"
        if reference.has_property(name):
            reference.detach_by_name(name)
            report.property_detaches += 1
        else:
            reference.attach(TranslationProperty(name=name))
            report.property_attaches += 1

    def _rotate_chain(
        self, reference: DocumentReference, report: RunnerReport
    ) -> None:
        chain = [
            p for p in reference.active_properties()
            if not getattr(p, "is_infrastructure", False)
        ]
        if len(chain) < 2:
            return
        infra = [
            p.property_id for p in reference.active_properties()
            if getattr(p, "is_infrastructure", False)
        ]
        ids = [p.property_id for p in chain]
        reference.reorder(ids[1:] + ids[:1] + infra)
        report.reorders += 1

    # -- execution ------------------------------------------------------------

    def execute(self, events: Iterable[TraceEvent]) -> RunnerReport:
        """Run every event; returns the accounting report."""
        report = RunnerReport()
        for event in events:
            report.events += 1
            if event.think_time_ms:
                self.kernel.ctx.clock.advance(event.think_time_ms)
            document = self.corpus[event.document_index]
            reference = self.references[event.user_index][event.document_index]
            cache = self._caches[event.user_index]

            if event.kind is TraceEventKind.READ:
                report.reads += 1
                try:
                    if cache is None:
                        outcome = self.kernel.read(reference)
                        report.read_latency_ms += outcome.elapsed_ms
                    else:
                        outcome = cache.read(reference)
                        report.read_latency_ms += outcome.elapsed_ms
                        if outcome.hit:
                            report.hits += 1
                        if outcome.degraded:
                            report.degraded_reads += 1
                except UNAVAILABLE_ERRORS:
                    # The repository/link is down (or active-property
                    # code blew up mid-path) and every degradation mode
                    # was exhausted; the trace carries on — that is
                    # precisely what availability measures.
                    report.read_failures += 1
            elif event.kind is TraceEventKind.WRITE:
                content = generate_text(
                    document.size_bytes,
                    seed=event.detail ^ self.seed_salt,
                )
                try:
                    if self.writes_via_cache and cache is not None:
                        cache.write(reference, content)
                    else:
                        self.kernel.write(
                            self._writer_reference(event.document_index),
                            content,
                        )
                except UNAVAILABLE_ERRORS:
                    report.write_failures += 1
                else:
                    report.writes += 1
            elif event.kind is TraceEventKind.OUT_OF_BAND_UPDATE:
                content = generate_text(
                    document.size_bytes,
                    seed=(event.detail ^ self.seed_salt) + 1,
                )
                document.provider.mutate_out_of_band(content)
                report.out_of_band_updates += 1
            elif event.kind is TraceEventKind.PROPERTY_CHANGE:
                self._toggle_property(reference, report)
            elif event.kind is TraceEventKind.PROPERTY_REORDER:
                self._rotate_chain(reference, report)
            elif event.kind is TraceEventKind.EXTERNAL_CHANGE:
                self.externals[event.document_index] = (
                    self.externals.get(event.document_index, 0) + 1
                )
                report.external_changes += 1
        report.externals = dict(self.externals)
        return report
