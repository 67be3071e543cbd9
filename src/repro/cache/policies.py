"""Cache policies and per-seam configuration.

Two kinds of object live here, one import surface for both:

* **Decisions.**  :func:`vote_admission` is §3's fill rule — honour the
  read path's most-restrictive cacheability vote, refuse content larger
  than the whole cache.  What may be cached travels with the content,
  so the cache has no admission hook of its own.
  :class:`~repro.cache.replacement.ReplacementPolicy` — who leaves when
  space runs out, the one decision with several implementations — is
  re-exported unchanged.
* **Seam configuration** is one frozen dataclass per opt-in seam:
  :class:`MemoPolicy`, :class:`ConcurrencyPolicy`,
  :class:`RecoveryPolicy`, :class:`StoragePolicy`,
  :class:`OverloadPolicy` (declared beside its gate in
  :mod:`repro.overload.gate`, re-exported here),
  :class:`ContainmentPolicy` and :class:`DegradationPolicy` (the cluster's
  :class:`~repro.cluster.policy.ClusterPolicy` follows the same shape).
  Passing an instance to ``DocumentCache`` switches the seam on;
  ``None`` (the default everywhere) builds nothing and keeps the cache
  byte-identical to its behaviour without the seam.  Each class
  validates in ``__post_init__`` (raising
  :class:`~repro.errors.CacheError`), is immutable — one instance is
  safely shared by every shard of a cluster — and is also importable
  under its historical ``DefaultXPolicy`` name.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.cache.containment import BreakerConfig, ExecutionBudget
from repro.cache.replacement import GreedyDualSizePolicy, ReplacementPolicy
from repro.errors import CacheError
from repro.overload.gate import OverloadPolicy
from repro.placeless.document import PathMeta

__all__ = [
    "AdmissionDecision",
    "vote_admission",
    "DegradationPolicy",
    "DefaultDegradationPolicy",
    "ContainmentPolicy",
    "DefaultContainmentPolicy",
    "MemoPolicy",
    "DefaultMemoPolicy",
    "ConcurrencyPolicy",
    "DefaultConcurrencyPolicy",
    "RecoveryPolicy",
    "DefaultRecoveryPolicy",
    "StoragePolicy",
    "DefaultStoragePolicy",
    "OverloadPolicy",
    "DefaultOverloadPolicy",
    "ReplacementPolicy",
    "GreedyDualSizePolicy",
]


class AdmissionDecision(enum.Enum):
    """What :func:`vote_admission` decided about fetched content."""

    ADMIT = "admit"
    UNCACHEABLE = "uncacheable"
    OVERSIZE = "oversize"


def vote_admission(
    content: bytes, meta: "PathMeta", capacity_bytes: int
) -> AdmissionDecision:
    """§3's fill rule: the cacheability vote gates, whole-cache size caps."""
    if not meta.cacheability.allows_caching:
        return AdmissionDecision.UNCACHEABLE
    if len(content) > capacity_bytes:
        return AdmissionDecision.OVERSIZE
    return AdmissionDecision.ADMIT


@dataclass(frozen=True)
class ContainmentPolicy:
    """Containment of misbehaving active-property code.

    The first cache constructed with a containment policy builds its
    kernel context's :class:`~repro.cache.containment.ContainmentGuard`
    around the three untrusted-code seams (stream wrappers, verifiers,
    notifier callbacks), all sharing one breaker configuration; later
    caches on that context must pass an equal policy to attach.
    """

    #: The closed → open → half-open tuning shared by every breaker
    #: (see :class:`~repro.cache.containment.BreakerConfig`).
    failure_threshold: int = 3
    probation_delay_ms: float | None = 1_000.0
    half_open_successes: int = 1
    #: Per-invocation execution caps; both ``None`` disables budgets.
    max_cost_ms: float | None = None
    max_bytes: int | None = None
    #: Escalate a tripped *required* transformer from force-miss to a
    #: typed denial.
    deny_required: bool = False

    def __post_init__(self) -> None:
        # Both derived configs carry the CacheError validation.
        self.breaker_config()
        self.execution_budget()

    def breaker_config(self) -> BreakerConfig:
        """The breaker tuning for all three seams."""
        return BreakerConfig(
            failure_threshold=self.failure_threshold,
            probation_delay_ms=self.probation_delay_ms,
            half_open_successes=self.half_open_successes,
        )

    def execution_budget(self) -> ExecutionBudget | None:
        """The per-invocation caps, or ``None`` when neither is set."""
        if self.max_cost_ms is None and self.max_bytes is None:
            return None
        return ExecutionBudget(
            max_cost_ms=self.max_cost_ms, max_bytes=self.max_bytes
        )

    def fallback(self, role: str) -> str:
        """Fallback for a tripped breaker, given the property's role.

        *role* is ``"optional"`` (the property does not transform read
        content) or ``"required"`` (it does).  Returns ``"skip"`` (serve
        without the property, marked degraded), ``"force-miss"`` (skip
        but never admit the untransformed result, so every access goes
        to the kernel) or ``"deny"`` (refuse with
        :class:`~repro.errors.CircuitOpenError`).
        """
        if role == "required":
            return "deny" if self.deny_required else "force-miss"
        return "skip"


@dataclass(frozen=True)
class MemoPolicy:
    """The transform memoization plane.

    A cache constructed with a memo policy gets a bounded
    :class:`~repro.cache.memo.TransformMemo` consulted by the read
    pipeline's memo step: a miss whose ``(current source signature,
    chain fingerprint)`` pair was recorded by an earlier admission — any
    user's — is answered with the recorded output's content signature
    instead of a provider fetch plus a full property-chain execution:
    the cache's one way to share transformed content across users
    (which chains may share: :class:`~repro.placeless.chain.ReadPlan`).
    An UNCACHEABLE-voting chain records nothing and is never served
    from the memo.
    A record that carries verifiers (the paper's class-(d) external
    conditions) re-runs them on every serve.  The table holds
    :data:`~repro.cache.memo.MEMO_CAPACITY` records; there is nothing to
    set — constructing the policy is the opt-in.
    """


@dataclass(frozen=True)
class ConcurrencyPolicy:
    """The concurrent read path.

    A cache constructed with a concurrency policy interleaves
    ``DocumentCache.read_many`` batches under
    :func:`~repro.sim.scheduler.run_batch` and, when ``coalesce``
    is on, single-flights concurrent misses: the pipeline's
    single-flight step (:meth:`~repro.cache.pipeline.ReadPipeline._coalesce`)
    shares one
    provider fetch and one property-chain execution among every
    concurrent requester of the same ``(document, user)`` key — and,
    when a memo policy supplies the probed pair, the same ``(source
    signature, chain fingerprint)`` pair across *different* users.
    """

    #: Coalesce concurrent misses into single flights (``False``
    #: interleaves the batch with no coalescing — the A16 ablation arm).
    coalesce: bool = True


@dataclass(frozen=True)
class RecoveryPolicy:
    """The consistency-recovery layer.

    A cache constructed with a recovery policy gets a leased, sequenced
    notifier channel — (epoch, sequence) stamps with gap detection, and
    an anti-entropy resync whenever the channel is suspect or the lease
    lapsed — plus a crash-recovery journal for buffered write-backs.
    """

    #: Lease term on the notifier registration; renewals run at half the
    #: term on the virtual clock, so a suspect or lapsed channel is
    #: resynced within one term (the bounded-staleness guarantee).
    lease_term_ms: float = 2_000.0

    def __post_init__(self) -> None:
        if self.lease_term_ms <= 0:
            raise CacheError(
                f"lease_term_ms must be positive: {self.lease_term_ms}"
            )


@dataclass(frozen=True)
class StoragePolicy:
    """The durable L2 tier.

    A cache constructed with a storage policy gets an
    :class:`~repro.storage.tier.L2Tier`: evictions demote their bytes
    and metadata to checksummed on-disk segments, misses promote them
    back (chain-, source-, CRC- and verifier-gated), the transform memo
    spills to disk, and ``DocumentCache.restart()`` recovers the
    catalog and the memo after a crash.  With a recovery policy too,
    the write-back journal is mirrored to disk and loaded back only
    when a cache opens the directory.
    """

    #: Directory holding the tier's segments (one subdirectory per
    #: cache name, open in one live cache at a time), or ``None`` for a
    #: private temporary directory (fresh per cache — durable across
    #: crashes within a run, not across processes).
    directory: "str | None" = None
    #: Consecutive disk failures before the storage breaker trips open
    #: and the cache falls back to L1-only.
    breaker_failure_threshold: int = 3

    def __post_init__(self) -> None:
        if self.breaker_failure_threshold < 1:
            raise CacheError(
                "breaker_failure_threshold must be >= 1: "
                f"{self.breaker_failure_threshold}"
            )


@dataclass(frozen=True)
class DegradationPolicy:
    """How far the cache may degrade while failures are in progress.

    Unlike the other seams this one is always present (``DocumentCache``
    builds an all-off one when none is passed).  Pure configuration: the
    quarantine state the threshold governs lives on each cache's
    :class:`~repro.cache.core.CacheCore`.
    """

    #: Serve a stale entry when the fetch behind a miss fails …
    serve_stale_on_error: bool = False
    #: … but only if the entry is at most this old (``None`` = any age).
    stale_serve_max_age_ms: float | None = None
    #: Quarantine a verifier after this many consecutive raises
    #: (``None`` = never quarantine).
    verifier_quarantine_threshold: int | None = None

    def __post_init__(self) -> None:
        if (
            self.stale_serve_max_age_ms is not None
            and self.stale_serve_max_age_ms < 0
        ):
            raise CacheError(
                "stale_serve_max_age_ms must be non-negative: "
                f"{self.stale_serve_max_age_ms}"
            )
        threshold = self.verifier_quarantine_threshold
        if threshold is not None and threshold < 1:
            raise CacheError(
                f"verifier_quarantine_threshold must be >= 1: {threshold}"
            )

    def stale_age_acceptable(self, age_ms: float) -> bool:
        """May stale bytes of this age be served on fetch failure?"""
        if self.stale_serve_max_age_ms is None:
            return True
        return age_ms <= self.stale_serve_max_age_ms


#: Historical constructor names, kept because benchmarks, tests and
#: examples build the configs under them.
DefaultContainmentPolicy = ContainmentPolicy
DefaultMemoPolicy = MemoPolicy
DefaultConcurrencyPolicy = ConcurrencyPolicy
DefaultRecoveryPolicy = RecoveryPolicy
DefaultStoragePolicy = StoragePolicy
DefaultOverloadPolicy = OverloadPolicy
DefaultDegradationPolicy = DegradationPolicy
