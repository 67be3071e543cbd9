"""Containment layer for misbehaving active-property code.

The paper's premise is that cached content is *produced by running
arbitrary property code*: stream transformers interpose on every read
and write (§2) and "verifiers … are executed each time an entry is
retrieved" (§3).  That code is the availability hazard — a single
raising, runaway or corrupt property poisons every access to its
document.  This module contains the blast radius with three mechanisms
wrapped around the three untrusted-code seams (stream wrappers, verifier
execution, notifier callbacks):

* per-(document, code-site) **circuit breakers** with the full
  closed → open → half-open probation state machine, driven by the
  virtual clock — repeated failures stop the code from running at all,
  a probation delay later one probe is let through, and enough
  consecutive probe successes close the circuit again;
* per-invocation **execution budgets** — virtual-ms and byte caps that
  abort runaway property code with
  :class:`~repro.errors.BudgetExceededError`;
* **exception firewalls** — raises from property code are caught at the
  seam, recorded against the breaker, and converted into a policy-chosen
  fallback instead of propagating to the application.

On a tripped breaker the fallback depends on the property's *role*:
an optional transformer (``transforms_reads`` False) is skipped and the
base-document content served with a ``degraded`` marker; a required
transformer forces the access to miss to the kernel (the untransformed
result is never admitted); or the policy may *deny* with a typed
:class:`~repro.errors.CircuitOpenError`.

Stream wrappers and notifier callbacks run in the *kernel's* world, not
in any one cache, so there is one guard per
:class:`~repro.sim.context.SimContext` (DESIGN.md §6.2): the first cache
that passes a ``containment_policy`` builds it, later caches passing an
equal policy attach to it, a different policy is refused.  The policy
opts a cache's *own* seams in (verifier gate, memo and single-flight
bail-outs); its kernel reads pass through the world's guard either way.

Everything here is **off by default**: on a context where no cache
passes a ``containment_policy`` no guard is built and every cache
behaves byte-identically to the uncontained pipeline (the golden-digest
equivalence tests pin this).  New counters live in
:class:`ContainmentStats`, written by the guard beside each
``containment`` stage event it reports —
:class:`~repro.cache.stats.CacheStats` gains no fields.
"""

from __future__ import annotations

import enum
import typing
from dataclasses import dataclass, fields
from typing import Any, Callable, NamedTuple

from repro.errors import BudgetExceededError, CacheError, CircuitOpenError
from repro.placeless.chain import property_site
from repro.placeless.document import PathMeta
from repro.placeless.properties import ActiveProperty
from repro.sim.context import SimContext
from repro.streams import chain as chains

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.cache.entry import CacheEntry
    from repro.cache.policies import ContainmentPolicy

__all__ = [
    "BreakerState",
    "BreakerConfig",
    "verifier_key",
    "CircuitBreaker",
    "BreakerRegistry",
    "ExecutionBudget",
    "ContainmentStats",
    "ContainmentGuard",
]

#: A breaker is keyed by (document id, code-site label); site labels are
#: ``stream:<property name>``, the verifier type name (matching the
#: legacy quarantine key shape), or ``notifier:<property name>``.
BreakerKey = tuple[Any, str]


class _EventKey(NamedTuple):
    """What a ``containment`` event is about: a document and no user,
    since property code runs in the kernel's world, not a user's."""

    document_id: Any
    user_id: None = None


def verifier_key(entry: "CacheEntry", verifier: Any) -> BreakerKey:
    """The breaker (and legacy quarantine) key for one entry's verifier:
    stable across refills (which rebuild verifier objects), so repeated
    failures accumulate per document and verifier type, not per object."""
    return (entry.document_id, type(verifier).__name__)


class BreakerState(enum.Enum):
    """Where a circuit breaker is in its state machine."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning for one family of circuit breakers.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that trip a closed breaker open.
    probation_delay_ms:
        Virtual time an open breaker waits before admitting a half-open
        probe.  ``None`` means *no probation*: the breaker stays open
        until explicitly reset — exactly the legacy permanent verifier
        quarantine, re-expressed.
    half_open_successes:
        Consecutive successful probes required to close again.
    """

    failure_threshold: int = 3
    probation_delay_ms: float | None = 1_000.0
    half_open_successes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise CacheError(
                f"failure_threshold must be >= 1: {self.failure_threshold}"
            )
        if self.probation_delay_ms is not None and self.probation_delay_ms < 0:
            raise CacheError(
                "probation_delay_ms must be non-negative: "
                f"{self.probation_delay_ms}"
            )
        if self.half_open_successes < 1:
            raise CacheError(
                f"half_open_successes must be >= 1: {self.half_open_successes}"
            )


class CircuitBreaker:
    """One (document, code-site) breaker: closed → open → half-open.

    All timing is virtual-clock milliseconds supplied by the caller, so
    the machine is deterministic and usable both with a clock (the
    containment guard) and without one (the quarantine re-expression,
    which never probes).
    """

    def __init__(self, config: BreakerConfig) -> None:
        self.config = config
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.probe_successes = 0
        self.opened_at_ms = 0.0

    def refuses(self, now_ms: float) -> bool:
        """Would :meth:`allow` refuse right now?  Changes nothing."""
        delay = self.config.probation_delay_ms
        return self.state is BreakerState.OPEN and (
            delay is None or now_ms - self.opened_at_ms < delay
        )

    def allow(self, now_ms: float) -> bool:
        """May the guarded code run right now?

        An open breaker whose probation delay has elapsed transitions to
        half-open and admits the caller as its probe.
        """
        if self.state is BreakerState.OPEN:
            if self.refuses(now_ms):
                return False
            self.state = BreakerState.HALF_OPEN
            self.probe_successes = 0
        return True

    def record_success(self, now_ms: float = 0.0) -> bool:
        """The guarded code completed cleanly; True when this closes."""
        if self.state is BreakerState.CLOSED:
            self.consecutive_failures = 0
            return False
        if self.state is BreakerState.HALF_OPEN:
            self.probe_successes += 1
            if self.probe_successes >= self.config.half_open_successes:
                self.state = BreakerState.CLOSED
                self.consecutive_failures = 0
                self.probe_successes = 0
                return True
        # A success observed while OPEN (e.g. a stream admitted before
        # the trip finishing cleanly) never closes the circuit.
        return False

    def record_failure(self, now_ms: float = 0.0) -> bool:
        """The guarded code failed; True when this (re)opens the circuit."""
        if self.state is BreakerState.HALF_OPEN:
            self.state = BreakerState.OPEN
            self.opened_at_ms = now_ms
            self.probe_successes = 0
            return True
        if self.state is BreakerState.CLOSED:
            self.consecutive_failures += 1
            if self.consecutive_failures >= self.config.failure_threshold:
                self.state = BreakerState.OPEN
                self.opened_at_ms = now_ms
                return True
        return False


def _notifier_key(prop: Any, event: Any) -> BreakerKey:
    """The breaker key of a notifier callback on *event*'s document."""
    return (getattr(event, "document_id", None), f"notifier:{prop.name}")


class BreakerRegistry:
    """Lazily-created breakers, one per (document, code-site) key.  A
    closed breaker with no failures behaves exactly like none, so the
    guard creates one (:meth:`get`) only for code that has failed."""

    def __init__(self, config: BreakerConfig) -> None:
        self.config = config
        self._breakers: dict[BreakerKey, CircuitBreaker] = {}

    def get(self, key: BreakerKey) -> CircuitBreaker:
        """The breaker for *key*, created (closed) on first use."""
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = self._breakers[key] = CircuitBreaker(self.config)
        return breaker

    def peek(self, key: BreakerKey) -> CircuitBreaker | None:
        """The breaker for *key* if one exists, without creating it."""
        return self._breakers.get(key)

    def open_keys(self) -> set[BreakerKey]:
        """Keys whose breaker is currently open (probation not reached)."""
        return {
            key
            for key, breaker in self._breakers.items()
            if breaker.state is BreakerState.OPEN
        }

    def reset_all(self) -> int:
        """Forget every breaker; returns how many were open."""
        opened = len(self.open_keys())
        self._breakers.clear()
        return opened

    def __len__(self) -> int:
        return len(self._breakers)


@dataclass(frozen=True)
class ExecutionBudget:
    """Per-invocation caps on property code: virtual-ms and bytes.

    ``None`` disables the corresponding cap.  The cost cap is checked
    before the invocation runs (declared/injected cost versus cap); the
    byte cap is enforced mid-stream by a counting wrapper.
    """

    max_cost_ms: float | None = None
    max_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.max_cost_ms is not None and self.max_cost_ms <= 0:
            raise CacheError(
                f"max_cost_ms must be positive: {self.max_cost_ms}"
            )
        if self.max_bytes is not None and self.max_bytes <= 0:
            raise CacheError(f"max_bytes must be positive: {self.max_bytes}")

    def check_cost(self, cost_ms: float, site: str) -> None:
        """Raise :class:`BudgetExceededError` when *cost_ms* busts the cap."""
        if self.max_cost_ms is not None and cost_ms > self.max_cost_ms:
            raise BudgetExceededError(
                f"{site}: invocation cost {cost_ms:.1f} ms exceeds "
                f"budget {self.max_cost_ms:.1f} ms"
            )


@dataclass
class ContainmentStats:
    """Counters for the containment layer, written by the guard.

    Deliberately separate from :class:`~repro.cache.stats.CacheStats`,
    which must not change shape while containment is off by default.
    """

    #: Property raises caught by an exception firewall (and converted
    #: into a fallback instead of reaching the application).
    failures_contained: int = 0
    #: Invocations aborted by an execution budget (ms or byte cap).
    budget_overruns: int = 0
    #: Failures that escaped mid-stream (recorded, but the access fails).
    escapes: int = 0
    #: Breakers newly tripped open from closed.
    trips: int = 0
    #: Half-open probes that failed and re-opened the circuit.
    reopens: int = 0
    #: Breakers that closed again after probation.
    closes: int = 0
    #: Half-open probes admitted through an open circuit.
    probes: int = 0
    #: Optional transformers skipped (served degraded).
    optional_skips: int = 0
    #: Accesses forced to miss to the kernel (required transformer or
    #: verifier-gate breaker open).
    forced_misses: int = 0
    #: Accesses denied with a typed error.
    denials: int = 0
    #: Notifier callbacks suppressed while their breaker was open.
    notifier_suppressed: int = 0

    @property
    def total(self) -> int:
        """Every containment action taken."""
        return sum(getattr(self, f.name) for f in fields(self))


class ContainmentGuard:
    """Coordinates breakers, budgets and firewalls across the three seams.

    One per simulation context, at ``ctx.containment``, where
    :mod:`repro.streams.chain` (stream wrappers) and
    :mod:`repro.cache.notifiers` (callbacks) find it; a cache built with
    its policy holds it as ``core.containment`` for the verifier gate.
    It writes its own :attr:`stats` and reports each event through
    *emit*, the ``emit`` of the cache that built it; no cache owns it,
    so shards may come and go under it.
    """

    def __init__(
        self,
        policy: "ContainmentPolicy",
        ctx: "SimContext",
        emit: Callable[..., None],
    ) -> None:
        self.policy = policy
        self.ctx = ctx
        self._report = emit
        self.budget: ExecutionBudget | None = policy.execution_budget()
        breaker_config = policy.breaker_config()
        self.wrappers = BreakerRegistry(breaker_config)
        self.verifiers = BreakerRegistry(breaker_config)
        self.notifiers = BreakerRegistry(breaker_config)
        self.stats = ContainmentStats()

    # -- event + breaker bookkeeping -------------------------------------------

    def _emit(
        self, outcome: str, document_id: Any, site: str, **payload: Any
    ) -> None:
        self._report(
            "containment", outcome, _EventKey(document_id),
            site=site, **payload,
        )

    def _allow(self, registry: BreakerRegistry, key: BreakerKey) -> bool:
        breaker = registry.peek(key)
        if breaker is None:
            return True
        was_open = breaker.state is BreakerState.OPEN
        allowed = breaker.allow(self.ctx.clock.now_ms)
        if allowed and was_open:
            self.stats.probes += 1
            self._emit("probe", key[0], key[1])
        return allowed

    def _failure(self, registry: BreakerRegistry, key: BreakerKey) -> None:
        breaker = registry.get(key)
        was_half_open = breaker.state is BreakerState.HALF_OPEN
        if breaker.record_failure(self.ctx.clock.now_ms):
            if was_half_open:
                self.stats.reopens += 1
                self._emit("reopened", *key)
            else:
                self.stats.trips += 1
                self._emit("tripped", *key)

    def _success(self, registry: BreakerRegistry, key: BreakerKey) -> None:
        breaker = registry.peek(key)
        if breaker is not None and breaker.record_success(
            self.ctx.clock.now_ms
        ):
            self.stats.closes += 1
            self._emit("closed", *key)

    # -- stream-wrapper seam: what streams.chain.interpose asks, in order -------

    def admit(self, key: BreakerKey) -> bool:
        """May the property behind *key* run?  (An open breaker past its
        probation admits the caller as the half-open probe.)"""
        return self._allow(self.wrappers, key)

    def over_budget(
        self, key: BreakerKey, cost_ms: float
    ) -> BudgetExceededError | None:
        """Pre-invocation cost-cap check; charges the capped time on abort."""
        budget = self.budget
        if budget is None:
            return None
        try:
            budget.check_cost(cost_ms, key[1])
        except BudgetExceededError as error:
            # The runaway code ran until the budget killed it: the cap,
            # not the full runaway cost, is what the access pays.
            self.ctx.charge(budget.max_cost_ms or 0.0)
            self.stats.budget_overruns += 1
            self._emit("budget-exceeded", *key, cost_ms=cost_ms)
            self._failure(self.wrappers, key)
            return error
        return None

    def contained(self, key: BreakerKey, error: BaseException) -> None:
        """The property raised while interposing; the breaker learns."""
        self.stats.failures_contained += 1
        self._emit("contained", *key, error=type(error).__name__)
        self._failure(self.wrappers, key)

    def fall_back(
        self,
        key: BreakerKey,
        prop: "ActiveProperty",
        stream: Any,
        meta: "PathMeta | None",
        cause: BaseException | None,
    ) -> Any:
        """The property will not run: hand back *stream* unwrapped, or deny.

        By role (:meth:`ContainmentPolicy.fallback`): an optional
        property is skipped, a required transformer forces a miss or is
        denied.  The write path (*meta* ``None``) has no degraded-serve
        option — skipping a *required* transformer there would store
        wrong bytes — so it skips optional properties and denies
        everything else.
        """
        required = getattr(prop, "transforms_reads", False)
        decision = self.policy.fallback("required" if required else "optional")
        if decision == "deny" or (meta is None and decision != "skip"):
            self.stats.denials += 1
            self._emit("denied", *key)
            raise CircuitOpenError(
                f"containment denied {key[1]} for document {key[0]}"
                + ("" if meta is not None else " (write)")
            ) from cause
        if decision == "force-miss":
            meta.contained_required += 1
            self.stats.forced_misses += 1
            self._emit("forced-miss", *key, seam="wrapper")
        else:
            if meta is not None:
                meta.contained_skips += 1
            self.stats.optional_skips += 1
            self._emit("skipped", *key)
        return stream

    def firewall(self, key: BreakerKey, wrapped: Any, reading: bool) -> Any:
        """Fence a property's stream: byte cap (reads), then the firewall
        that reports the stream's fate to the breaker exactly once."""

        def on_failure(error: BaseException) -> None:
            if isinstance(error, BudgetExceededError):
                self.stats.budget_overruns += 1
                outcome = "budget-exceeded"
            else:
                self.stats.escapes += 1
                outcome = "escaped"
            self._emit(outcome, *key, error=type(error).__name__)
            self._failure(self.wrappers, key)

        def on_success() -> None:
            self._success(self.wrappers, key)

        if not reading:
            return chains.FirewallOutputStream(wrapped, on_failure, on_success)
        budget = self.budget
        if budget is not None and budget.max_bytes is not None:
            wrapped = chains.ByteCapInputStream(
                wrapped, budget.max_bytes, key[1]
            )
        return chains.FirewallInputStream(wrapped, on_failure, on_success)

    def chain_blocked(self, document_id: Any, chain) -> bool:
        """True when any of *chain*'s wrapper breakers is open.

        Peeks rather than gets: consulting the memo or the flight table
        must neither create breakers nor consume half-open probe slots —
        probing is the fetch path's job.
        """
        for prop in chain:
            breaker = self.wrappers.peek(
                (document_id, property_site(prop))
            )
            if breaker is not None and breaker.state is BreakerState.OPEN:
                return True
        return False

    # -- verifier seam ---------------------------------------------------------

    def verifier_blocked(self, entry: "CacheEntry") -> bool:
        """Is any of the entry's verifiers behind an open breaker?

        A blocked verifier forces the access to miss to the kernel —
        the breaker-shaped successor of the quarantine's forced miss.
        An open breaker past its probation admits the caller as a probe
        instead of blocking.
        """
        blocked = False
        for verifier in entry.verifiers:
            if not self._allow(self.verifiers, verifier_key(entry, verifier)):
                blocked = True
        if blocked:
            self.stats.forced_misses += 1
            self._emit(
                "forced-miss", entry.document_id, "verifier-gate",
                seam="verifier",
            )
        return blocked

    def check_verifier_budget(
        self, entry: "CacheEntry", verifier: Any
    ) -> None:
        """Budget gate before a verifier runs; raises on overrun."""
        budget = self.budget
        if budget is None:
            return
        key = verifier_key(entry, verifier)
        try:
            budget.check_cost(verifier.cost_ms, key[1])
        except BudgetExceededError:
            self.stats.budget_overruns += 1
            self._emit("budget-exceeded", *key, cost_ms=verifier.cost_ms)
            raise

    def note_verifier_failure(
        self, entry: "CacheEntry", verifier: Any
    ) -> None:
        self._failure(self.verifiers, verifier_key(entry, verifier))

    def note_verifier_success(
        self, entry: "CacheEntry", verifier: Any
    ) -> None:
        self._success(self.verifiers, verifier_key(entry, verifier))

    # -- notifier seam ---------------------------------------------------------

    def run_notifier(
        self,
        prop: Any,
        event: Any,
        call: Callable[[Any], Any],
    ) -> Any:
        """Run a notifier callback behind its breaker + firewall.

        A raising notifier is contained (the dispatch continues to other
        handlers); while its breaker is open the callback is suppressed
        entirely — mirroring how a crashed notifier simply misses events.
        """
        breakers = self.notifiers._breakers  # empty until one has failed
        key = _notifier_key(prop, event) if breakers else None
        if key is not None and not self._allow(self.notifiers, key):
            self.stats.notifier_suppressed += 1
            self._emit("suppressed", *key)
            return None
        try:
            result = call(event)
        except Exception as error:
            key = key or _notifier_key(prop, event)
            self.stats.failures_contained += 1
            self._emit("contained", *key, error=type(error).__name__)
            self._failure(self.notifiers, key)
            return None
        if breakers:
            self._success(self.notifiers, key or _notifier_key(prop, event))
        return result

    # -- introspection ---------------------------------------------------------

    def open_sites(self) -> dict[str, set[BreakerKey]]:
        """Currently-open breakers per seam (for benches and bridges)."""
        return {
            "wrapper": self.wrappers.open_keys(),
            "verifier": self.verifiers.open_keys(),
            "notifier": self.notifiers.open_keys(),
        }
