"""The paper's core contribution: active-property-aware content caching.

Everything §3 describes lives here: per-(document, user) cache entries
indirecting through MD5 content signatures, the three-level cacheability
vote with most-restrictive aggregation, notifier- and verifier-based
consistency covering the four invalidation classes, cost-aware
Greedy-Dual-Size replacement seeded by bit-provider retrieval costs and
property execution times, and write-through/write-back modes with
operation-event forwarding.

The cache itself is a staged pipeline (:mod:`repro.cache.pipeline`)
over a shared :mod:`core <repro.cache.core>`, with each opt-in seam
configured by one :mod:`policy <repro.cache.policies>` dataclass,
every counter written where its event is decided, and stage events
published, for whoever subscribes, on the
:mod:`instrumentation <repro.cache.instrumentation>` bus;
:mod:`manager <repro.cache.manager>` is the wiring plus public API.
"""

from repro.cache.containment import (
    BreakerConfig,
    BreakerRegistry,
    BreakerState,
    CircuitBreaker,
    ContainmentGuard,
    ContainmentStats,
    ExecutionBudget,
)
from repro.cache.entry import CacheEntry, EntryKey
from repro.cache.instrumentation import (
    CounterProjection,
    InstrumentationBus,
    StageEvent,
    StageRecorder,
)
from repro.cache.manager import CacheReadOutcome, DocumentCache, WriteMode
from repro.cache.notifiers import (
    InvalidationBus,
    NotifierProperty,
    install_minimum_notifiers,
)
from repro.cache.pipeline import ReadPipeline, WritePipeline
from repro.cache.policies import (
    AdmissionDecision,
    ConcurrencyPolicy,
    ContainmentPolicy,
    DefaultConcurrencyPolicy,
    DefaultContainmentPolicy,
    DefaultDegradationPolicy,
    DefaultRecoveryPolicy,
    DefaultStoragePolicy,
    DegradationPolicy,
    RecoveryPolicy,
    StoragePolicy,
)
from repro.cache.recovery import (
    ConsistencyRecoveryManager,
    NotifierLease,
    RecoveryStats,
    WriteBackJournal,
)
from repro.cache.replacement import (
    FIFOPolicy,
    GreedyDualPolicy,
    GreedyDualSizePolicy,
    LFUPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    SizePolicy,
    make_policy,
)
from repro.cache.stats import CacheStats, ConcurrencyStats
from repro.contract.cacheability import Cacheability
from repro.contract.consistency import (
    Invalidation,
    InvalidationClass,
    InvalidationReason,
)
from repro.contract.verifiers import (
    AlwaysInvalidVerifier,
    AlwaysValidVerifier,
    CompositeVerifier,
    ModificationTimeVerifier,
    PredicateVerifier,
    ThresholdVerifier,
    TTLVerifier,
    Verdict,
    Verifier,
    VerifierResult,
)

__all__ = [
    "Cacheability",
    "Invalidation",
    "InvalidationClass",
    "InvalidationReason",
    "CacheEntry",
    "EntryKey",
    "DocumentCache",
    "CacheReadOutcome",
    "WriteMode",
    "ReadPipeline",
    "WritePipeline",
    "InstrumentationBus",
    "StageEvent",
    "StageRecorder",
    "CounterProjection",
    "AdmissionDecision",
    "DegradationPolicy",
    "DefaultDegradationPolicy",
    "ContainmentPolicy",
    "DefaultContainmentPolicy",
    "ConcurrencyPolicy",
    "DefaultConcurrencyPolicy",
    "ConcurrencyStats",
    "ContainmentGuard",
    "ContainmentStats",
    "BreakerConfig",
    "BreakerState",
    "BreakerRegistry",
    "CircuitBreaker",
    "ExecutionBudget",
    "RecoveryPolicy",
    "DefaultRecoveryPolicy",
    "StoragePolicy",
    "DefaultStoragePolicy",
    "ConsistencyRecoveryManager",
    "NotifierLease",
    "RecoveryStats",
    "WriteBackJournal",
    "InvalidationBus",
    "NotifierProperty",
    "install_minimum_notifiers",
    "ReplacementPolicy",
    "GreedyDualSizePolicy",
    "GreedyDualPolicy",
    "LRUPolicy",
    "LFUPolicy",
    "FIFOPolicy",
    "SizePolicy",
    "RandomPolicy",
    "make_policy",
    "CacheStats",
    "Verifier",
    "Verdict",
    "VerifierResult",
    "AlwaysValidVerifier",
    "AlwaysInvalidVerifier",
    "TTLVerifier",
    "ModificationTimeVerifier",
    "PredicateVerifier",
    "CompositeVerifier",
    "ThresholdVerifier",
]
