"""The middleware↔cache contract: what the middleware hands the cache.

§3 has bit-providers and active properties *define* three things the
cache merely *runs*: a cacheability vote per read path
(:mod:`~repro.contract.cacheability`), verifiers — "pieces of code
returned to the cache along with the document's content"
(:mod:`~repro.contract.verifiers`) — and the reasons an entry may be
invalidated (:mod:`~repro.contract.consistency`).  The package sits
below ``providers``, ``placeless`` and ``properties``, which speak this
vocabulary, and below ``cache``, which acts on it; it imports nothing
but ``errors`` and ``ids``.
"""

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
