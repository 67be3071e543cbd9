"""Verifiers: per-entry validity checks executed on every cache hit.

"Verifiers are pieces of code returned to the cache along with the
document's content.  They are executed each time an entry is retrieved
from the cache and can determine whether the entry is still valid at that
time.  In particular, verifiers can check for conditions that may change
outside of Placeless control." (§3)

The paper's examples are all represented:

* the bit-provider's verifier that "polls the last-modification time of
  the file" — :class:`ModificationTimeVerifier`;
* a WWW verifier implementing "the TTL timeout as specified in the HTTP
  response" — :class:`TTLVerifier`;
* multi-source documents whose verifier "can check the consistency of
  each of the sources" — :class:`CompositeVerifier`;
* a financial-portfolio verifier that invalidates "only if there has been
  significant change in the stock quotes or even modify these values as
  needed" — :class:`ThresholdVerifier`, which can *revalidate* by patching
  the cached content in place.

In the cache, verifiers run in the read pipeline's hit prefix,
``ReadPipeline.serve`` (on every hit, behind the quarantine gate), and
before a memo record or a demoted L2 copy is served; each execution is charged to
the virtual clock and emitted as a ``verifier`` stage event.

Each verifier carries an execution cost in virtual milliseconds; the
cache charges it on every hit, which is exactly the trade-off §3 flags:
"verifier execution trades-off cache consistency with cache access time
latencies".
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import VerifierError

__all__ = [
    "Verdict",
    "VerifierResult",
    "Verifier",
    "AlwaysValidVerifier",
    "AlwaysInvalidVerifier",
    "TTLVerifier",
    "ModificationTimeVerifier",
    "PredicateVerifier",
    "CompositeVerifier",
    "ThresholdVerifier",
]


class Verdict(enum.Enum):
    """Outcome of running a verifier against a cache entry."""

    #: The entry is still valid; serve it.
    VALID = "valid"
    #: The entry is stale; the cache must invalidate and refetch.
    INVALID = "invalid"
    #: The entry was stale but the verifier repaired it in place
    #: (returned patched content); serve the patched bytes.
    REVALIDATED = "revalidated"


@dataclass(frozen=True, slots=True)
class VerifierResult:
    """Verdict plus, for :attr:`Verdict.REVALIDATED`, the patched bytes.

    A ``REVALIDATED`` verdict must carry them (``b""`` is a legal,
    empty, patch): the cache stores and serves exactly what it is
    handed, so one without bytes is refused here, as a failed verifier.
    Immutable: VALID and INVALID are answered with two shared instances.
    """

    verdict: Verdict
    patched_content: bytes | None = None

    def __post_init__(self) -> None:
        if self.patched_content is None and self.verdict is Verdict.REVALIDATED:
            raise VerifierError("a REVALIDATED verdict carries no patched content")


_VALID = VerifierResult(Verdict.VALID)
_INVALID = VerifierResult(Verdict.INVALID)


class Verifier(abc.ABC):
    """Base class for all verifiers.

    Subclasses implement :meth:`verify`; ``cost_ms`` is the simulated
    execution latency the cache charges per hit.  ``invalidation_label``
    names what an INVALID verdict means, so the cache manager can
    attribute the invalidation to the right consistency class:
    ``"source"`` → class 1 out-of-band, ``"external"`` → class 4.
    """

    #: What an INVALID verdict attributes to: "source" or "external".
    invalidation_label: str = "external"

    def __init__(self, cost_ms: float = 0.0) -> None:
        self.cost_ms = cost_ms
        self.executions = 0

    def fingerprint(self) -> str:
        """Stable identity of this verifier's code + configuration.

        Recorded alongside memoized transform outputs (the cache's memo
        plane and its L2 payloads) so a record can report *which* checks
        gate it; covers code identity, the invalidation label and the
        per-hit cost.  Subclasses with extra configuration that changes
        their verdict behaviour may extend the string.
        """
        cls = type(self)
        return (
            f"{cls.__module__}.{cls.__qualname__}"
            f"/{self.invalidation_label}/{self.cost_ms}"
        )

    def run(self, now_ms: float, content: bytes) -> VerifierResult:
        """Execute the verifier, tracking execution count.

        This method only counts and delegates: whatever :meth:`verify`
        raises propagates as it is, and the hit gate treats any raise
        as a failed verifier — the entry is invalidated and refetched.
        """
        self.executions += 1
        return self.verify(now_ms, content)

    @abc.abstractmethod
    def verify(self, now_ms: float, content: bytes) -> VerifierResult:
        """Check validity of *content* at virtual time *now_ms*."""


class AlwaysValidVerifier(Verifier):
    """Trivially valid — for content with no external dependencies."""

    def verify(self, now_ms: float, content: bytes) -> VerifierResult:
        return _VALID


class AlwaysInvalidVerifier(Verifier):
    """Trivially invalid — forces a refetch on every access (testing)."""

    def verify(self, now_ms: float, content: bytes) -> VerifierResult:
        return _INVALID


class TTLVerifier(Verifier):
    """HTTP-style time-to-live: valid until ``issued + ttl``.

    This is the "one TTL-based verifier" whose creation cost Table 1's
    miss column includes, and the WWW verifier example of §3.
    """

    invalidation_label = "source"

    def __init__(self, issued_ms: float, ttl_ms: float, cost_ms: float = 0.01) -> None:
        super().__init__(cost_ms)
        if ttl_ms < 0:
            raise VerifierError(f"TTL must be non-negative: {ttl_ms}")
        self.issued_ms = issued_ms
        self.ttl_ms = ttl_ms

    @property
    def expires_ms(self) -> float:
        """Absolute virtual expiry instant."""
        return self.issued_ms + self.ttl_ms

    def verify(self, now_ms: float, content: bytes) -> VerifierResult:
        if now_ms < self.expires_ms:
            return _VALID
        return _INVALID


class ModificationTimeVerifier(Verifier):
    """Polls a source's last-modification time, as a filesystem
    bit-provider's verifier does in §3.

    *probe* returns the source's current mtime (virtual ms); the entry is
    valid while it matches the mtime observed at fill time.  Polling a
    repository is not free, so the default cost is higher than a local
    TTL check.
    """

    invalidation_label = "source"

    def __init__(
        self,
        probe: Callable[[], float],
        observed_mtime_ms: float,
        cost_ms: float = 0.5,
    ) -> None:
        super().__init__(cost_ms)
        self._probe = probe
        self.observed_mtime_ms = observed_mtime_ms

    def verify(self, now_ms: float, content: bytes) -> VerifierResult:
        current = self._probe()
        if current == self.observed_mtime_ms:
            return _VALID
        return _INVALID


class PredicateVerifier(Verifier):
    """Wraps an arbitrary ``(now_ms, content) → bool`` predicate.

    The general-purpose hook properties use to express document-specific
    validity conditions without defining a new class.
    """

    def __init__(
        self,
        predicate: Callable[[float, bytes], bool],
        cost_ms: float = 0.05,
        label: str = "predicate",
    ) -> None:
        super().__init__(cost_ms)
        self._predicate = predicate
        self.label = label

    def verify(self, now_ms: float, content: bytes) -> VerifierResult:
        if self._predicate(now_ms, content):
            return _VALID
        return _INVALID


class CompositeVerifier(Verifier):
    """All-of composition for multi-source documents.

    "Verifiers can also serve documents that are composed of multiple
    sources, like news summaries constructed from several web sites; in
    that case, verifiers can check the consistency of each of the
    sources." (§3)  The composite is valid only when every part is; its
    cost is the sum of part costs (each part is actually executed, so
    per-part execution counts stay truthful).  A part returning
    ``REVALIDATED`` demotes the composite to ``INVALID`` — patching a
    fragment of a composed document cannot be applied locally.
    """

    def __init__(self, parts: Sequence[Verifier]) -> None:
        super().__init__(cost_ms=sum(p.cost_ms for p in parts))
        if not parts:
            raise VerifierError("composite verifier needs at least one part")
        self.parts = list(parts)

    def verify(self, now_ms: float, content: bytes) -> VerifierResult:
        for part in self.parts:
            result = part.run(now_ms, content)
            if result.verdict is not Verdict.VALID:
                return _INVALID
        return _VALID


class ThresholdVerifier(Verifier):
    """Significant-change verifier with in-place patching.

    Models §3's "financial portfolio page" example: *observe* samples the
    live value (e.g. a stock quote); while the relative drift from the
    value at fill time stays below *threshold_fraction* the entry stays
    valid.  Beyond the threshold, if a *patcher* is supplied the verifier
    rewrites the cached content with the fresh value and reports
    :attr:`Verdict.REVALIDATED`; otherwise it invalidates.
    """

    def __init__(
        self,
        observe: Callable[[], float],
        baseline: float,
        threshold_fraction: float,
        patcher: Callable[[bytes, float], bytes] | None = None,
        cost_ms: float = 0.2,
    ) -> None:
        super().__init__(cost_ms)
        if threshold_fraction < 0:
            raise VerifierError(
                f"threshold must be non-negative: {threshold_fraction}"
            )
        self._observe = observe
        self.baseline = baseline
        self.threshold_fraction = threshold_fraction
        self._patcher = patcher

    def _drift(self, current: float) -> float:
        if self.baseline == 0:
            return abs(current)
        return abs(current - self.baseline) / abs(self.baseline)

    def verify(self, now_ms: float, content: bytes) -> VerifierResult:
        current = self._observe()
        if self._drift(current) <= self.threshold_fraction:
            return _VALID
        if self._patcher is None:
            return _INVALID
        patched = self._patcher(content, current)
        self.baseline = current
        return VerifierResult(Verdict.REVALIDATED, patched_content=patched)
