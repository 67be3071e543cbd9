"""The fault plan: a seed-deterministic schedule of injected failures.

A :class:`FaultPlan` owns every fault-injection decision for one
simulation run.  Decisions come from two sources:

* **scheduled windows** (:class:`OutageWindow`) — absolute virtual-time
  intervals during which a repository, a topology link, or everything is
  unreachable;
* **probabilistic draws** — per-site seeded RNG streams (one for
  fetches, one for the invalidation bus, one for verifiers), so the
  decision sequence at one seam never perturbs another's.

All randomness is seeded with strings (``f"{seed}:{site}"``), which
Python hashes with SHA-512 — stable across processes, unaffected by
``PYTHONHASHSEED``.  All timing comes from the virtual clock.  Every
injected fault is appended to :attr:`FaultPlan.trace`, so two runs with
the same seed and workload produce *identical* injection traces — the
reproducibility contract the chaos tests assert.

The plan is consulted at the seams the system already has:

* :meth:`FaultPlan.check_fetch` — from :meth:`BitProvider.fetch`; raises
  :class:`~repro.errors.RepositoryOfflineError` inside an outage window
  and :class:`~repro.errors.ContentUnavailableError` on a probability
  hit.
* :meth:`FaultPlan.check_store` — from :meth:`BitProvider.store`; outage
  windows reject writes too (write-back flush retries exercise this).
* :meth:`FaultPlan.notifier_disposition` — from
  :meth:`InvalidationBus.deliver`; a delivery may be silently lost (the
  paper's lost-callback problem) or delayed.
* :meth:`FaultPlan.check_verifier` — from the cache manager's hit path;
  injects verifier exceptions and enforces a timeout budget.
* :meth:`FaultPlan.check_property` — from the stream-wrapper seam in
  :mod:`repro.streams.chain`; picks a property-misbehaviour mode
  (``raise`` / ``runaway`` / ``corrupt``) for one wrapper invocation.
* :meth:`FaultPlan.link_down` — from :meth:`SimContext.charge_hop` and
  the bus's delivery body; scheduled topology-link outages.
* :meth:`FaultPlan.check_disk_write` / :meth:`FaultPlan.check_disk_sync`
  / :meth:`FaultPlan.disk_io_delay_ms` — from the durable L2 tier in
  :mod:`repro.storage`; inject write failures, corrupted records,
  lost fsyncs and slow I/O at the disk seam.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.errors import (
    ContentUnavailableError,
    RepositoryOfflineError,
    VerifierError,
    WorkloadError,
)
from repro.sim.clock import VirtualClock

__all__ = [
    "OutageWindow",
    "FaultRecord",
    "FaultStats",
    "FaultPlan",
]


@dataclass(frozen=True)
class OutageWindow:
    """One scheduled unavailability interval ``[start_ms, end_ms)``.

    ``target`` narrows the window to one repository name (for fetch/store
    outages) or one hop name (for link outages); ``None`` matches every
    target at that seam.
    """

    start_ms: float
    end_ms: float
    target: str | None = None

    def __post_init__(self) -> None:
        if self.end_ms < self.start_ms:
            raise WorkloadError(
                f"outage window ends before it starts: {self}"
            )

    def covers(self, now_ms: float, target: str) -> bool:
        """True when *target* is inside this window at *now_ms*."""
        if not self.start_ms <= now_ms < self.end_ms:
            return False
        return self.target is None or self.target == target


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault, as recorded in the plan's trace."""

    at_ms: float
    site: str
    action: str
    target: str


@dataclass
class FaultStats:
    """Counters of injected faults, by seam."""

    fetch_unavailable: int = 0
    fetch_offline: int = 0
    store_offline: int = 0
    notifications_lost: int = 0
    notifications_delayed: int = 0
    #: Deliveries swallowed by a scheduled bus partition window (counted
    #: separately from probabilistic losses so experiments can tell a
    #: blackout apart from background lossiness).
    notifications_partition_dropped: int = 0
    verifier_failures: int = 0
    verifier_timeouts: int = 0
    link_outages: int = 0
    #: Property-misbehaviour injections at the stream-wrapper seam,
    #: by mode.
    properties_raised: int = 0
    properties_runaway: int = 0
    properties_corrupted: int = 0
    #: Disk-seam injections against the durable L2 tier.
    disk_write_failures: int = 0
    disk_fsyncs_lost: int = 0
    disk_records_corrupted: int = 0
    disk_slow_ios: int = 0
    #: Fetches slowed by a gray-failure window on their cache/shard —
    #: the shard is up and answering, just pathologically slow.
    gray_slow_fetches: int = 0

    @property
    def total(self) -> int:
        """Total faults injected across all seams."""
        return (
            self.fetch_unavailable + self.fetch_offline + self.store_offline
            + self.notifications_lost + self.notifications_delayed
            + self.notifications_partition_dropped
            + self.verifier_failures + self.verifier_timeouts
            + self.link_outages
            + self.properties_raised + self.properties_runaway
            + self.properties_corrupted
            + self.disk_write_failures + self.disk_fsyncs_lost
            + self.disk_records_corrupted + self.disk_slow_ios
            + self.gray_slow_fetches
        )


def _validate_probability(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise WorkloadError(f"{name} must be in [0, 1]: {value}")
    return value


class FaultPlan:
    """Deterministic fault-injection schedule for one simulation run.

    Parameters
    ----------
    clock:
        The run's virtual clock; every scheduled decision and every trace
        timestamp reads it (wall time is never consulted).
    seed:
        Seeds the per-site RNG streams.  Same seed + same workload →
        byte-identical injection trace.
    fetch_failure_probability:
        Per-fetch chance that the provider raises
        :class:`~repro.errors.ContentUnavailableError`.
    outages:
        Scheduled repository outage windows; fetches and in-band stores
        inside a window raise :class:`~repro.errors.RepositoryOfflineError`.
    notifier_loss_probability:
        Per-delivery chance the invalidation bus silently drops the
        notification (the lost-callback problem).
    notifier_delay_probability, notifier_delay_ms:
        Per-delivery chance the notification is deferred by
        ``notifier_delay_ms`` virtual milliseconds instead of arriving
        inline.
    verifier_failure_probability:
        Per-execution chance a verifier raises (the manager treats this
        as a conservative invalidation, and may quarantine the verifier).
    verifier_timeout_budget_ms:
        If set, any verifier whose declared ``cost_ms`` exceeds the
        budget is failed as a timeout before it runs.
    property_failure_probability:
        Per-invocation chance that a property's stream wrapper
        misbehaves.  The mode is drawn uniformly from
        ``property_failure_modes``: ``raise`` throws from the wrapper
        as it is applied, ``runaway`` burns
        ``property_runaway_cost_ms`` extra virtual time, ``corrupt``
        garbles the stream and then fails it mid-transfer.  Uncontained,
        all three poison the access; the containment layer converts
        them into breaker trips and fallbacks.
    property_failure_modes:
        The misbehaviour modes eligible for the draw.
    property_runaway_cost_ms:
        Extra virtual time a ``runaway`` invocation burns.
    link_outages:
        Scheduled topology-link outage windows, keyed by hop name;
        crossing a downed hop raises
        :class:`~repro.errors.RepositoryOfflineError`.
    bus_outages:
        Scheduled *partition* windows on the invalidation bus: every
        delivery attempted inside a window is silently dropped (the
        blackout variant of the lost-callback problem) and lease
        renewals are blocked, so leased channels lapse.  ``target``
        narrows a window to one cache id.
    cache_crashes:
        Virtual instants at which every cache built on this plan's
        context crashes and restarts, discarding its in-memory entry
        table and dirty write-back buffer.  A cache with a write-back
        journal replays unflushed writes on restart; one without loses
        them — the contrast the A13 bench measures.
    disk_write_fail_probability:
        Per-write chance a durable-tier append fails outright; the L2
        tier counts it against the storage breaker and skips the write
        (the entry simply stays L1-only).
    disk_fsync_lost_probability:
        Per-sync chance an fsync silently *lies*: the call returns but
        the durable watermark does not advance, so a crash loses the
        supposedly synced bytes — the torn-tail/double-append hazard
        the journal replay must tolerate.
    disk_corrupt_probability:
        Per-write chance the record's payload bytes are flipped on disk
        after the CRC is computed; the corruption is detected (CRC
        mismatch) at read or recovery time and the record is dropped.
    disk_slow_io_probability, disk_slow_io_ms:
        Per-operation chance a disk I/O burns ``disk_slow_io_ms`` extra
        virtual milliseconds.
    gray_windows, gray_slow_ms:
        Scheduled *gray-failure* windows: while a window covers a cache
        (the ``target`` matches the cache/shard name), every fetch
        through that cache burns ``gray_slow_ms`` extra virtual
        milliseconds — up, correct, and pathologically slow, the
        failure mode hedged reads exist for.
    """

    def __init__(
        self,
        clock: "VirtualClock",
        seed: int = 0,
        fetch_failure_probability: float = 0.0,
        outages: "Sequence[OutageWindow]" = (),
        notifier_loss_probability: float = 0.0,
        notifier_delay_probability: float = 0.0,
        notifier_delay_ms: float = 0.0,
        verifier_failure_probability: float = 0.0,
        verifier_timeout_budget_ms: float | None = None,
        property_failure_probability: float = 0.0,
        property_failure_modes: "Sequence[str]" = (
            "raise", "runaway", "corrupt",
        ),
        property_runaway_cost_ms: float = 25.0,
        link_outages: "Sequence[OutageWindow]" = (),
        bus_outages: "Sequence[OutageWindow]" = (),
        cache_crashes: "Sequence[float]" = (),
        disk_write_fail_probability: float = 0.0,
        disk_fsync_lost_probability: float = 0.0,
        disk_corrupt_probability: float = 0.0,
        disk_slow_io_probability: float = 0.0,
        disk_slow_io_ms: float = 5.0,
        gray_windows: "Sequence[OutageWindow]" = (),
        gray_slow_ms: float = 150.0,
    ) -> None:
        self.clock = clock
        self.seed = seed
        self.fetch_failure_probability = _validate_probability(
            "fetch_failure_probability", fetch_failure_probability
        )
        self.outages = tuple(outages)
        self.notifier_loss_probability = _validate_probability(
            "notifier_loss_probability", notifier_loss_probability
        )
        self.notifier_delay_probability = _validate_probability(
            "notifier_delay_probability", notifier_delay_probability
        )
        if notifier_delay_ms < 0:
            raise WorkloadError(
                f"notifier_delay_ms must be non-negative: {notifier_delay_ms}"
            )
        self.notifier_delay_ms = notifier_delay_ms
        self.verifier_failure_probability = _validate_probability(
            "verifier_failure_probability", verifier_failure_probability
        )
        if (
            verifier_timeout_budget_ms is not None
            and verifier_timeout_budget_ms < 0
        ):
            raise WorkloadError(
                "verifier_timeout_budget_ms must be non-negative: "
                f"{verifier_timeout_budget_ms}"
            )
        self.verifier_timeout_budget_ms = verifier_timeout_budget_ms
        self.property_failure_probability = _validate_probability(
            "property_failure_probability", property_failure_probability
        )
        modes = tuple(property_failure_modes)
        if not modes or any(
            mode not in ("raise", "runaway", "corrupt") for mode in modes
        ):
            raise WorkloadError(
                "property_failure_modes must be a non-empty subset of "
                f"raise/runaway/corrupt: {modes}"
            )
        self.property_failure_modes = modes
        if property_runaway_cost_ms < 0:
            raise WorkloadError(
                "property_runaway_cost_ms must be non-negative: "
                f"{property_runaway_cost_ms}"
            )
        self.property_runaway_cost_ms = property_runaway_cost_ms
        self.link_outages = tuple(link_outages)
        self.bus_outages = tuple(bus_outages)
        for instant in cache_crashes:
            if instant < 0:
                raise WorkloadError(
                    f"cache_crashes instants must be non-negative: {instant}"
                )
        self.cache_crashes = tuple(sorted(cache_crashes))
        self.disk_write_fail_probability = _validate_probability(
            "disk_write_fail_probability", disk_write_fail_probability
        )
        self.disk_fsync_lost_probability = _validate_probability(
            "disk_fsync_lost_probability", disk_fsync_lost_probability
        )
        self.disk_corrupt_probability = _validate_probability(
            "disk_corrupt_probability", disk_corrupt_probability
        )
        self.disk_slow_io_probability = _validate_probability(
            "disk_slow_io_probability", disk_slow_io_probability
        )
        if disk_slow_io_ms < 0:
            raise WorkloadError(
                f"disk_slow_io_ms must be non-negative: {disk_slow_io_ms}"
            )
        self.disk_slow_io_ms = disk_slow_io_ms
        self.gray_windows = tuple(gray_windows)
        if gray_slow_ms < 0:
            raise WorkloadError(
                f"gray_slow_ms must be non-negative: {gray_slow_ms}"
            )
        self.gray_slow_ms = gray_slow_ms
        # One RNG stream per seam; string seeding is hash-salt-proof.
        self._rng_fetch = random.Random(f"{seed}:fetch")
        self._rng_bus = random.Random(f"{seed}:bus")
        self._rng_verifier = random.Random(f"{seed}:verifier")
        self._rng_property = random.Random(f"{seed}:property")
        self._rng_disk = random.Random(f"{seed}:disk")
        self.stats = FaultStats()
        self.trace: list[FaultRecord] = []

    # -- trace ---------------------------------------------------------------

    def _record(self, site: str, action: str, target: str) -> None:
        self.trace.append(
            FaultRecord(
                at_ms=self.clock.now_ms, site=site, action=action,
                target=target,
            )
        )

    def injection_trace(self) -> tuple[FaultRecord, ...]:
        """The injections so far, as an immutable comparable sequence."""
        return tuple(self.trace)

    # -- provider seam -------------------------------------------------------

    def check_fetch(self, repository: str) -> None:
        """Gate one provider fetch; raises to inject a failure."""
        now = self.clock.now_ms
        for window in self.outages:
            if window.covers(now, repository):
                self.stats.fetch_offline += 1
                self._record("provider", "offline-window", repository)
                raise RepositoryOfflineError(
                    f"repository {repository!r} is inside a scheduled "
                    f"outage window at t={now:.1f}ms"
                )
        if (
            self.fetch_failure_probability
            and self._rng_fetch.random() < self.fetch_failure_probability
        ):
            self.stats.fetch_unavailable += 1
            self._record("provider", "unavailable", repository)
            raise ContentUnavailableError(
                f"injected fetch failure at {repository!r} (t={now:.1f}ms)"
            )

    def check_store(self, repository: str) -> None:
        """Gate one in-band store; outage windows reject writes too."""
        now = self.clock.now_ms
        for window in self.outages:
            if window.covers(now, repository):
                self.stats.store_offline += 1
                self._record("provider", "store-offline-window", repository)
                raise RepositoryOfflineError(
                    f"repository {repository!r} rejected a store inside a "
                    f"scheduled outage window at t={now:.1f}ms"
                )

    # -- invalidation-bus seam -----------------------------------------------

    def bus_partitioned(self, target: str) -> bool:
        """True while *target*'s bus channel is inside a partition window.

        Pure window check — no RNG draw, no trace record — so lease
        renewals can poll it without perturbing the per-delivery
        disposition stream.
        """
        now = self.clock.now_ms
        return any(window.covers(now, target) for window in self.bus_outages)

    def check_bus_delivery(self, target: str) -> bool:
        """Gate one bus delivery against partition windows.

        Returns True (and records the injection) when the delivery must
        be dropped because the channel is partitioned.  Consulted before
        the probabilistic :meth:`notifier_disposition` draw, so runs
        without partition windows keep byte-identical RNG streams.
        """
        if self.bus_partitioned(target):
            self.stats.notifications_partition_dropped += 1
            self._record("bus", "partition-drop", target)
            return True
        return False

    def notifier_disposition(self, target: str) -> tuple[str, float]:
        """Decide one bus delivery: ``("deliver"|"drop"|"delay", delay_ms)``."""
        if (
            self.notifier_loss_probability
            and self._rng_bus.random() < self.notifier_loss_probability
        ):
            self.stats.notifications_lost += 1
            self._record("bus", "drop", target)
            return "drop", 0.0
        if (
            self.notifier_delay_probability
            and self._rng_bus.random() < self.notifier_delay_probability
        ):
            self.stats.notifications_delayed += 1
            self._record("bus", "delay", target)
            return "delay", self.notifier_delay_ms
        return "deliver", 0.0

    # -- verifier seam -------------------------------------------------------

    def check_verifier(self, cost_ms: float, label: str = "verifier") -> None:
        """Gate one verifier execution; raises to inject a failure."""
        if (
            self.verifier_timeout_budget_ms is not None
            and cost_ms > self.verifier_timeout_budget_ms
        ):
            self.stats.verifier_timeouts += 1
            self._record("verifier", "timeout", label)
            raise VerifierError(
                f"{label} exceeded the timeout budget: cost {cost_ms}ms > "
                f"budget {self.verifier_timeout_budget_ms}ms"
            )
        if (
            self.verifier_failure_probability
            and self._rng_verifier.random() < self.verifier_failure_probability
        ):
            self.stats.verifier_failures += 1
            self._record("verifier", "raise", label)
            raise VerifierError(
                f"injected {label} failure at t={self.clock.now_ms:.1f}ms"
            )

    # -- property (stream-wrapper) seam ---------------------------------------

    def check_property(self, label: str = "property") -> str | None:
        """Decide one property stream-wrapper invocation's misbehaviour.

        Returns ``None`` (behave) or one of the configured modes.  Zero
        probability consumes no RNG draw, so runs without property
        faults keep byte-identical injection streams.
        """
        if (
            not self.property_failure_probability
            or self._rng_property.random()
            >= self.property_failure_probability
        ):
            return None
        mode = self._rng_property.choice(list(self.property_failure_modes))
        if mode == "raise":
            self.stats.properties_raised += 1
        elif mode == "runaway":
            self.stats.properties_runaway += 1
        else:
            self.stats.properties_corrupted += 1
        self._record("property", mode, label)
        return mode

    # -- disk seam -----------------------------------------------------------

    def check_disk_write(self, target: str = "disk") -> str | None:
        """Decide one durable-tier write: ``None`` / ``"fail"`` / ``"corrupt"``.

        ``"fail"`` means the append never happens (the tier counts a
        storage-breaker failure and skips); ``"corrupt"`` means the
        bytes land on disk garbled after the CRC was computed, so the
        damage surfaces later as a checksum mismatch.  Zero-probability
        draws consume no RNG, keeping fault-free runs byte-identical.
        """
        if (
            self.disk_write_fail_probability
            and self._rng_disk.random() < self.disk_write_fail_probability
        ):
            self.stats.disk_write_failures += 1
            self._record("disk", "write-fail", target)
            return "fail"
        if (
            self.disk_corrupt_probability
            and self._rng_disk.random() < self.disk_corrupt_probability
        ):
            self.stats.disk_records_corrupted += 1
            self._record("disk", "corrupt", target)
            return "corrupt"
        return None

    def check_disk_sync(self, target: str = "disk") -> bool:
        """True when one fsync is silently lost (watermark not advanced)."""
        if (
            self.disk_fsync_lost_probability
            and self._rng_disk.random() < self.disk_fsync_lost_probability
        ):
            self.stats.disk_fsyncs_lost += 1
            self._record("disk", "fsync-lost", target)
            return True
        return False

    def disk_io_delay_ms(self, target: str = "disk") -> float:
        """Extra virtual ms one disk I/O burns (0.0 when healthy)."""
        if (
            self.disk_slow_io_probability
            and self._rng_disk.random() < self.disk_slow_io_probability
        ):
            self.stats.disk_slow_ios += 1
            self._record("disk", "slow-io", target)
            return self.disk_slow_io_ms
        return 0.0

    # -- gray-failure seam ---------------------------------------------------

    def gray_fetch_delay_ms(self, cache_name: str) -> float:
        """Extra virtual ms one fetch burns on a gray-failing cache.

        A *gray* failure is the nastiest kind for a cluster: the shard
        answers every request correctly, just pathologically slowly, so
        nothing trips an error-based breaker.  Window-based and
        RNG-free — like :meth:`bus_partitioned` — so plans without gray
        windows keep byte-identical injection streams.  The window's
        ``target`` matches the cache/shard *name* (e.g. a cluster's
        ``"cluster-shard0"``); ``None`` grays every cache.
        """
        if not self.gray_windows:
            return 0.0
        now = self.clock.now_ms
        for window in self.gray_windows:
            if window.covers(now, cache_name):
                self.stats.gray_slow_fetches += 1
                self._record("shard", "gray-slow", cache_name)
                return self.gray_slow_ms
        return 0.0

    # -- topology seam -------------------------------------------------------

    def link_down(self, hop: str) -> bool:
        """True (and recorded) when *hop* is inside a link-outage window."""
        now = self.clock.now_ms
        for window in self.link_outages:
            if window.covers(now, hop):
                self.stats.link_outages += 1
                self._record("link", "down", hop)
                return True
        return False
