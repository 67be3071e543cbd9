"""A13 — consistency recovery: bounded staleness and crash durability.

The notifier architecture keeps cached entries fresh only while every
notification arrives.  A12 showed verifiers catching *some* of what lost
callbacks miss; this experiment isolates the failure mode completely —
verifiers off, plain untransformed documents, a writer and a reader on
separate references — and measures what the consistency-recovery layer
(leased + sequenced notifier channels, gap detection, anti-entropy
resync, write-back journal) buys at each of its three seams:

* **staleness vs. notification loss** — one writer keeps updating a
  document while a reader polls it through the cache; the *staleness
  window* of one write is the virtual time from the write until the
  reader first observes it.  Without recovery, a write whose
  notifications are all lost is never observed (the window is unbounded
  — reported against the measurement horizon); with recovery, the
  renewal-time checkpoint comparison exposes the loss and the resync
  repairs it within one lease term.
* **partition convergence** — an invalidation-bus blackout swallows a
  mid-window write; the recovery cache must converge within one lease
  term of the partition healing, the baseline cache never converges.
* **crash durability** — a write-back cache takes acknowledged writes,
  flushes some, then a fault-plan-scheduled crash wipes its volatile
  state.  The journalled cache replays the unflushed suffix on restart
  (idempotently — a second replay restores nothing twice) and the final
  flush makes every acknowledged write byte-identical at the provider
  with zero duplicate flushes; the unjournalled cache silently loses
  every unflushed write.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import fmt, table, write_artifact
from repro.cache.manager import DocumentCache
from repro.cache.pipeline import WriteMode
from repro.cache.policies import DefaultRecoveryPolicy
from repro.faults.plan import FaultPlan, OutageWindow
from repro.placeless.kernel import PlacelessKernel
from repro.providers.memory import MemoryProvider
from repro.sim.context import SimContext

__all__ = [
    "LEASE_TERM_MS",
    "ConvergenceResult",
    "PartitionResult",
    "CrashResult",
    "run_convergence",
    "run_partition",
    "run_crash",
    "main",
]

#: Lease term used by every recovery-enabled cache in this experiment;
#: the headline claim is staleness bounded by (roughly) this.
LEASE_TERM_MS = 2_000.0
#: The reader polls the cache this often (virtual time).
_POLL_MS = 100.0
#: A write not observed within this horizon counts as unbounded.
_HORIZON_MS = 8_000.0
#: Idle gap between convergence rounds.
_SETTLE_MS = 250.0


def _deployment(
    seed: int,
    recovery: bool,
    loss_rate: float = 0.0,
    bus_outages: tuple[OutageWindow, ...] = (),
    name: str = "a13",
):
    """One writer/reader pair around a single plain document."""
    ctx = SimContext()
    ctx.faults = FaultPlan(
        ctx.clock,
        seed=seed,
        notifier_loss_probability=loss_rate,
        bus_outages=bus_outages,
    )
    kernel = PlacelessKernel(ctx)
    reader = kernel.create_user("reader")
    writer = kernel.create_user("writer")
    provider = MemoryProvider(ctx, b"v0")
    reader_ref = kernel.import_document(reader, provider, "doc")
    writer_ref = kernel.space(writer).add_reference(reader_ref.base, "doc-w")
    cache = DocumentCache(
        kernel,
        capacity_bytes=1 << 20,
        # Verifiers off: nothing but notifications (and the recovery
        # layer) can tell this cache its entry went stale.
        use_verifiers=False,
        recovery_policy=(
            DefaultRecoveryPolicy(lease_term_ms=LEASE_TERM_MS)
            if recovery else None
        ),
        name=name,
    )
    return kernel, cache, reader_ref, writer_ref


@dataclass
class ConvergenceResult:
    """Staleness-window statistics for one (loss rate, recovery) cell."""

    loss_rate: float
    recovery: bool
    rounds: int
    converged: int
    unbounded: int
    mean_staleness_ms: float
    max_staleness_ms: float
    gaps_detected: int
    checkpoint_gaps: int
    resyncs: int


def run_convergence(
    loss_rate: float, recovery: bool, seed: int = 7, rounds: int = 12
) -> ConvergenceResult:
    """Writer updates, reader polls; measure per-write staleness windows."""
    kernel, cache, reader_ref, writer_ref = _deployment(
        seed, recovery, loss_rate=loss_rate,
        name=f"a13-loss{int(loss_rate * 100)}-{'rec' if recovery else 'base'}",
    )
    clock = kernel.ctx.clock
    cache.read(reader_ref)  # initial fill
    windows: list[float] = []
    unbounded = 0
    for round_no in range(rounds):
        payload = f"round-{round_no}".encode()
        write_at = clock.now_ms
        kernel.write(writer_ref, payload)
        staleness = None
        while clock.now_ms - write_at < _HORIZON_MS:
            if cache.read(reader_ref).content == payload:
                staleness = clock.now_ms - write_at
                break
            clock.advance(_POLL_MS)
        if staleness is None:
            unbounded += 1
        else:
            windows.append(staleness)
        clock.advance(_SETTLE_MS)
    stats = cache.recovery_stats
    return ConvergenceResult(
        loss_rate=loss_rate,
        recovery=recovery,
        rounds=rounds,
        converged=len(windows),
        unbounded=unbounded,
        mean_staleness_ms=(
            sum(windows) / len(windows) if windows else float("nan")
        ),
        max_staleness_ms=max(windows) if windows else float("nan"),
        gaps_detected=stats.gaps_detected if stats else 0,
        checkpoint_gaps=stats.checkpoint_gaps if stats else 0,
        resyncs=stats.resyncs if stats else 0,
    )


@dataclass
class PartitionResult:
    """Convergence after a bus blackout swallowed a write."""

    recovery: bool
    partition_end_ms: float
    write_at_ms: float
    converged: bool
    staleness_ms: float | None
    #: The headline bound: observed within one lease term of the
    #: partition healing.
    within_one_lease_term: bool
    dropped_by_partition: int
    lease_lapses: int
    resyncs: int


def run_partition(recovery: bool, seed: int = 7) -> PartitionResult:
    """One write inside a bus blackout; does the reader ever see it?"""
    window = OutageWindow(2_000.0, 5_000.0)
    kernel, cache, reader_ref, writer_ref = _deployment(
        seed, recovery, bus_outages=(window,),
        name=f"a13-partition-{'rec' if recovery else 'base'}",
    )
    clock = kernel.ctx.clock
    cache.read(reader_ref)
    clock.advance_to(3_000.0)  # inside the blackout
    payload = b"written-during-partition"
    write_at = clock.now_ms
    kernel.write(writer_ref, payload)
    staleness = None
    horizon = window.end_ms + 4 * LEASE_TERM_MS
    while clock.now_ms < horizon:
        if cache.read(reader_ref).content == payload:
            staleness = clock.now_ms - write_at
            break
        clock.advance(_POLL_MS)
    stats = cache.recovery_stats
    plan = kernel.ctx.faults
    return PartitionResult(
        recovery=recovery,
        partition_end_ms=window.end_ms,
        write_at_ms=write_at,
        converged=staleness is not None,
        staleness_ms=staleness,
        within_one_lease_term=(
            staleness is not None
            and write_at + staleness <= window.end_ms + LEASE_TERM_MS
        ),
        dropped_by_partition=plan.stats.notifications_partition_dropped,
        lease_lapses=stats.lease_lapses if stats else 0,
        resyncs=stats.resyncs if stats else 0,
    )


@dataclass
class CrashResult:
    """Durability of acknowledged write-backs across an injected crash."""

    journal: bool
    acknowledged: int
    flushed_before_crash: int
    replayed: int
    replay_skipped_on_second_pass: int
    restored_byte_identical: int
    lost: int
    total_flushes: int
    duplicate_flushes: int


def run_crash(journal: bool, seed: int = 7, n_documents: int = 6) -> CrashResult:
    """Acknowledge writes, flush some, crash mid-run, replay, verify."""
    crash_at = 4_000.0
    ctx = SimContext()
    ctx.faults = FaultPlan(ctx.clock, seed=seed, cache_crashes=(crash_at,))
    kernel = PlacelessKernel(ctx)
    user = kernel.create_user("author")
    providers = []
    references = []
    for i in range(n_documents):
        provider = MemoryProvider(ctx, b"original")
        providers.append(provider)
        references.append(
            kernel.import_document(user, provider, f"wb-{i}")
        )
    cache = DocumentCache(
        kernel,
        capacity_bytes=1 << 20,
        write_mode=WriteMode.WRITE_BACK,
        use_verifiers=False,
        recovery_policy=(
            DefaultRecoveryPolicy(lease_term_ms=LEASE_TERM_MS)
            if journal else None
        ),
        name=f"a13-crash-{'journal' if journal else 'bare'}",
    )
    acknowledged = {}
    flushed_early = n_documents // 3
    for i, reference in enumerate(references):
        payload = f"acknowledged-write-{i}".encode()
        cache.write(reference, payload)  # returning == acknowledged
        acknowledged[i] = payload
        if i < flushed_early:
            cache.flush(reference)
    clock = ctx.clock
    clock.advance_to(crash_at + 1.0)  # fires the scheduled crash+restart
    skipped_before = (
        cache.recovery_stats.journal_replays_skipped
        if cache.recovery_stats else 0
    )
    if cache.recovery is not None:
        # Idempotency probe: a second replay must restore nothing twice.
        cache.recovery.replay_journal()
    skipped = (
        cache.recovery_stats.journal_replays_skipped - skipped_before
        if cache.recovery_stats else 0
    )
    cache.flush_all()
    restored = sum(
        1 for i, provider in enumerate(providers)
        if provider.peek() == acknowledged[i]
    )
    stats = cache.recovery_stats
    return CrashResult(
        journal=journal,
        acknowledged=n_documents,
        flushed_before_crash=flushed_early,
        replayed=stats.journal_replayed if stats else 0,
        replay_skipped_on_second_pass=skipped,
        restored_byte_identical=restored,
        lost=n_documents - restored,
        total_flushes=cache.stats.flushes,
        duplicate_flushes=max(0, cache.stats.flushes - n_documents),
    )


CONVERGENCE_COLUMNS = (
    ("loss rate", fmt("loss_rate", ".0%")),
    ("recovery", "recovery"),
    ("converged", "converged"),
    ("unbounded", "unbounded"),
    ("mean stale ms", "mean_staleness_ms"),
    ("max stale ms", "max_staleness_ms"),
    ("gaps", "gaps_detected"),
    ("ckpt gaps", "checkpoint_gaps"),
    ("resyncs", "resyncs"),
)

PARTITION_COLUMNS = (
    ("recovery", "recovery"),
    ("partition drops", "dropped_by_partition"),
    ("converged", "converged"),
    ("stale ms", fmt("staleness_ms", ".0f")),
    ("within 1 term", "within_one_lease_term"),
    ("lapses", "lease_lapses"),
    ("resyncs", "resyncs"),
)

CRASH_COLUMNS = (
    ("journal", "journal"),
    ("acked", "acknowledged"),
    ("pre-flushed", "flushed_before_crash"),
    ("replayed", "replayed"),
    ("2nd-replay skips", "replay_skipped_on_second_pass"),
    ("byte-identical", "restored_byte_identical"),
    ("lost", "lost"),
    ("dup flushes", "duplicate_flushes"),
)


def main(smoke: bool = False) -> None:
    """Print the A13 consistency-recovery tables (one size)."""
    convergence = [
        run_convergence(loss_rate, recovery)
        for loss_rate in (0.0, 0.25, 0.5)
        for recovery in (False, True)
    ]
    print(
        table(
            convergence,
            CONVERGENCE_COLUMNS,
            title=(
                "A13a. Staleness window vs notification-loss rate "
                f"(12 writes, horizon {_HORIZON_MS:.0f}ms = unbounded, "
                f"lease term {LEASE_TERM_MS:.0f}ms, verifiers off)"
            ),
        )
    )
    print()
    partition = [run_partition(recovery) for recovery in (False, True)]
    print(
        table(
            partition,
            PARTITION_COLUMNS,
            title=(
                "A13b. Convergence after a 3s invalidation-bus blackout "
                "swallows a write (recovery bound: partition end + one "
                "lease term)"
            ),
        )
    )
    print()
    crash = [run_crash(journal) for journal in (False, True)]
    print(
        table(
            crash,
            CRASH_COLUMNS,
            title=(
                "A13c. Write-back durability across an injected cache "
                "crash (journal replays the unflushed suffix; double "
                "replay is a no-op)"
            ),
        )
    )
    write_artifact(
        "a13",
        {"convergence": convergence, "partition": partition, "crash": crash},
    )

