"""Workload generation: corpora, user populations and access traces.

Everything the benchmark harness replays: the three Table-1 documents
(sizes taken from the paper), synthetic multi-repository corpora with
heterogeneous property chains, deterministic text generation (so the
transform properties have something real to chew on), Zipf-popularity
access traces interleaved with the mutation events that drive the four
invalidation classes, and multi-user populations with personalized
property assignments.
"""

from repro.workload.churn import (
    ChurnCatalog,
    ChurnEvent,
    ChurnEventKind,
    ChurnSpec,
    ZipfSampler,
    generate_churn,
)
from repro.workload.documents import (
    CorpusDocument,
    CorpusSpec,
    build_corpus,
    build_table1_documents,
    generate_text,
)
from repro.workload.trace import (
    TraceEvent,
    TraceEventKind,
    TraceSpec,
    generate_trace,
    zipf_indices,
)
from repro.workload.runner import RunnerReport, TraceRunner
from repro.workload.users import Population, build_population

__all__ = [
    "ChurnCatalog",
    "ChurnEvent",
    "ChurnEventKind",
    "ChurnSpec",
    "ZipfSampler",
    "generate_churn",
    "generate_text",
    "CorpusDocument",
    "CorpusSpec",
    "build_corpus",
    "build_table1_documents",
    "TraceEvent",
    "TraceEventKind",
    "TraceSpec",
    "generate_trace",
    "zipf_indices",
    "Population",
    "build_population",
    "TraceRunner",
    "RunnerReport",
]
