"""What the paper's cache may serve, as an executable statement.

The right bytes are what the uncached kernel read returns at the same
virtual instant, fault plan and containment guard fenced off
(:meth:`CacheSpec.fresh`).  The spec — the §3 cache with no capacity,
no eviction and no seams — says *when* a cache may serve anything else
and *why* an entry had to go:

* ``(document, user) → signature → content``, each version with the
  verifiers and most-restrictive cacheability vote its path returned;
* a change a notifier sees — an in-band write (a), a property added or
  removed (b), a reorder (c) — makes the entries it covers go at once,
  labelled with their class; one only verifiers see — an out-of-band
  write (a), an external condition (d) — is caught by running the
  version's verifiers, as on every hit;
* a path voting ``UNCACHEABLE`` is never served from the cache; every
  serve of one voting below ``UNRESTRICTED`` reaches its read-event
  properties (:attr:`CacheSpec.observed`); a refused reader is refused;
* three declared stale windows, whose lengths the caller passes in:
  the verifier TTL, the notifier lease and the serve-stale bound.

It imports only the standard library, :mod:`repro.contract` and
:mod:`repro.placeless`, so nothing under ``repro.cache`` can lend the
spec its own mistakes.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass

from repro.contract.cacheability import Cacheability
from repro.contract.verifiers import TTLVerifier, Verdict

#: The four invalidation classes (§3): why an entry had to go.
SOURCE = "source"
PROPERTY_SET = "property-set"
PROPERTY_ORDER = "property-order"
EXTERNAL = "external"

#: The three declared windows a serve of other than the fresh bytes may
#: fall in, and the labels of the serves that need none.
TTL_WINDOW = "verifier-ttl"
LEASE_WINDOW = "lease"
STALE_ON_ERROR = "stale-on-error"
FRESH = "fresh"
DENIED = "denied"

#: Dispositions whose bytes the cache held, not read at the serve.
CACHE_SERVED = frozenset({
    "hit", "revalidated", "miss-memoized", "miss-promoted", "stale-on-error",
})


class SpecViolation(AssertionError):
    """A serve the paper's cache may not make."""


def signature(content: bytes) -> str:
    return hashlib.md5(content).hexdigest()


def key_of(reference) -> tuple:
    """The ``(document, user)`` pair a reference's entry is kept under."""
    return reference.base.document_id, reference.owner


@dataclass
class Fresh:
    """The uncached read of one key at one instant: its bytes and the
    path's facts, or the error the path raised."""

    content: bytes | None
    vote: Cacheability | None = None
    verifiers: tuple = ()
    error: BaseException | None = None


@dataclass
class Version:
    """Bytes a key's path produced, as the cache received them, the last
    instant they were fresh, and — once a notifier-visible change made
    its entries go — ``(class label, instant)``."""

    content: bytes
    seen_ms: float
    verifiers: tuple
    vote: Cacheability
    gone: tuple[str, float] | None = None


class CacheSpec:
    """The paper's cache as a judge of served reads.

    *lossy* says the bus may lose or delay a notification: an entry that
    had to go is then held only by its verifiers (or, with *lease_ms*,
    by the lease that bounds a lost notification).
    """

    def __init__(
        self,
        *,
        ttl_ms: float | None = None,
        lease_ms: float | None = None,
        stale_max_age_ms: float | None = None,
        lossy: bool = False,
    ) -> None:
        self.ttl_ms = ttl_ms
        self.lease_ms = lease_ms
        self.stale_max_age_ms = stale_max_age_ms
        self.lossy = lossy
        self.entries: dict[tuple, dict[str, Version]] = {}
        #: Reads the path's read-event properties must have seen, per key.
        self.observed: Counter = Counter()
        #: Judged serves per label: ``fresh``, ``denied`` or a window.
        self.windows: Counter = Counter()

    def fresh(self, kernel, reference) -> Fresh:
        """The uncached read now, faults and containment fenced off."""
        ctx = kernel.ctx
        fenced = ctx.faults, ctx.containment
        ctx.faults = ctx.containment = None
        try:
            outcome = kernel.read(reference)
        except Exception as error:  # noqa: BLE001 - the path's answer
            return Fresh(None, error=error)
        finally:
            ctx.faults, ctx.containment = fenced
        read = Fresh(
            outcome.content, Cacheability.aggregate(outcome.meta.votes),
            tuple(outcome.meta.verifiers),
        )
        self._observe(key_of(reference), read)
        return read

    def record(self, key: tuple, read: Fresh, now_ms: float) -> None:
        """*read* was *key*'s fresh answer at *now_ms*: a cache may hold
        it from here on."""
        if read.content is not None:
            self.entries.setdefault(key, {})[signature(read.content)] = (
                Version(read.content, now_ms, read.verifiers, read.vote)
            )

    def invalidate(self, document_id, user_id, label: str, now_ms: float):
        """A notifier-visible change to *document_id*, for one user's
        reference or (*user_id* ``None``) for everyone: every entry it
        covers has to go, because of *label*."""
        for (document, user), versions in self.entries.items():
            if document == document_id and user_id in (None, user):
                for version in versions.values():
                    version.gone = version.gone or (label, now_ms)

    def judge(self, key, read: Fresh, served, disposition, started_ms):
        """The label of what allowed this serve — *served* is the bytes
        the cache answered with, or the error it raised, for a read that
        began at *started_ms* — or :class:`SpecViolation`."""
        if read.error is not None:
            if not isinstance(served, type(read.error)):
                raise SpecViolation(f"{key}: the path refuses this reader "
                                    f"({read.error!r}); served {served!r}")
            return self._count(DENIED)
        if isinstance(served, BaseException):
            raise SpecViolation(f"{key}: the path reads; raised {served!r}")
        self._observe(key, read)
        cached = disposition in CACHE_SERVED
        if served == read.content:
            if cached and not read.vote.allows_caching:
                raise SpecViolation(f"{key}: {disposition} of a path that "
                                    "votes UNCACHEABLE")
            return self._count(FRESH)
        version = self.entries.get(key, {}).get(signature(served))
        if version is None or not cached:
            raise SpecViolation(
                f"{key}: {disposition} served {served!r}, which this path "
                f"never produced or no longer does ({read.content!r})"
            )
        return self._count(self._window(key, version, disposition, started_ms))

    def _window(self, key, version: Version, disposition, now_ms) -> str:
        age_ms = now_ms - version.seen_ms
        if disposition == STALE_ON_ERROR:
            if self.stale_max_age_ms is None or age_ms > self.stale_max_age_ms:
                raise SpecViolation(f"{key}: stale-on-error of bytes "
                                    f"{age_ms} ms old")
            return STALE_ON_ERROR
        if version.gone is not None:
            label, at_ms = version.gone
            if self.lease_ms is not None and now_ms <= at_ms + self.lease_ms:
                return LEASE_WINDOW
            if not self.lossy:
                raise SpecViolation(f"{key}: served an entry that had to go "
                                    f"({label}) {now_ms - at_ms} ms before")
        # Only the verifiers stand between this version and the reader.
        timed = False
        for verifier in version.verifiers:
            if isinstance(verifier, TTLVerifier):
                timed = True
                if self.ttl_ms is None or age_ms >= self.ttl_ms:
                    raise SpecViolation(f"{key}: served {age_ms} ms after "
                                        "it was fresh, past the TTL")
            elif verifier.run(now_ms, version.content).verdict is not (
                Verdict.VALID
            ):
                label = (SOURCE if verifier.invalidation_label == "source"
                         else EXTERNAL)
                raise SpecViolation(f"{key}: served an entry its "
                                    f"{type(verifier).__name__} rejects "
                                    f"({label})")
        if not timed:
            raise SpecViolation(f"{key}: stale; no declared window covers")
        return TTL_WINDOW

    def _observe(self, key: tuple, read: Fresh) -> None:
        if read.vote is not Cacheability.UNRESTRICTED:
            self.observed[key] += 1

    def _count(self, label: str) -> str:
        self.windows[label] += 1
        return label
