"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``bench [EXPERIMENT] [--smoke] [--faults [SCENARIO]]``
    Run one experiment (``table1``, ``a1`` … ``a20``) or all of them;
    ``--smoke`` runs each at its reduced size (an experiment with one
    size runs that size) and every run writes ``BENCH_<ID>.json``;
    ``--faults`` runs it under a named chaos fault scenario
    (``standard`` when the name is omitted, ``partition`` / ``crash``
    to add a bus blackout or a mid-run cache crash, ``diskchaos`` to
    add a hostile disk under the durable L2 tier, or ``grayshard`` to
    slow one cluster shard's fetches without erroring).
``doctor``
    Run a seeded smoke workload through a fully-wired two-shard
    cluster and print a health report: smoke-read outcomes, the
    per-shard health table, overload counters, circuit-breaker states,
    memo occupancy, durable-tier stats and every shard's entries.  Exit
    code 0 when healthy.
``demo``
    Run the quickstart scenario inline (no file needed).
``info``
    Print the library version, module inventory and experiment index.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main"]

#: THE experiment index: name → module, in run order.  A later name for
#: a module already listed is its alias.  Everything else the CLI says
#: about experiments — accepted ids, the parser epilog, the ``bench``
#: help, ``repro info``, the ``all`` run — is derived from this table
#: and from the first docstring line of each module.
_EXPERIMENT_MODULES = {
    "table1": "repro.bench.table1",
    "a1": "repro.bench.notifier_verifier",
    "a2": "repro.bench.replacement",
    "a3": "repro.bench.sharing",
    "a4": "repro.bench.cacheability",
    "a5": "repro.bench.invalidation",
    "a6": "repro.bench.qos",
    "a7": "repro.bench.chains",
    "a8": "repro.bench.placement",
    "a9": "repro.bench.collections",
    "a10": "repro.bench.external",
    "a11": "repro.bench.writes",
    "a12": "repro.bench.faults",
    "faults": "repro.bench.faults",
    "a13": "repro.bench.recovery",
    "recovery": "repro.bench.recovery",
    "a14": "repro.bench.containment",
    "containment": "repro.bench.containment",
    "a15": "repro.bench.memo",
    "memo": "repro.bench.memo",
    "a16": "repro.bench.stampede",
    "stampede": "repro.bench.stampede",
    "a17": "repro.bench.cluster",
    "cluster": "repro.bench.cluster",
    "a18": "repro.bench.persistence",
    "persistence": "repro.bench.persistence",
    "a19": "repro.bench.overload",
    "overload": "repro.bench.overload",
    "a20": "repro.bench.scale",
    "scale": "repro.bench.scale",
}


def _experiment_index() -> str:
    """One line per experiment: its names, then what it measures."""
    import importlib

    names: dict[str, list[str]] = {}
    for name, module_name in _EXPERIMENT_MODULES.items():
        names.setdefault(module_name, []).append(name)
    lines = []
    for module_name, (experiment_id, *aliases) in names.items():
        title = importlib.import_module(module_name).__doc__.splitlines()[0]
        alias = f" ({', '.join(aliases)})" if aliases else ""
        lines.append(f"  {experiment_id + alias:<22}{title}")
    return "\n".join(lines)


def _cmd_bench(args: argparse.Namespace) -> int:
    import importlib

    scenario_name = getattr(args, "faults", None)
    if scenario_name is not None:
        # Every SimContext built from here on carries the named chaos
        # scenario: "standard" injects only absorbable faults
        # (lossy/delayed notifiers, flaky verifiers) so fault-unaware
        # experiments still complete; "partition" adds an invalidation-
        # bus blackout window and "crash" a mid-run cache crash/restart,
        # the two failure modes the consistency-recovery layer repairs.
        from repro.faults import (
            NAMED_CHAOS_SCENARIOS,
            set_default_fault_scenario,
        )

        set_default_fault_scenario(NAMED_CHAOS_SCENARIOS[scenario_name])
    try:
        if args.experiment == "all":
            # Aliases share a module: each experiment runs once, in
            # registry order.
            selected = list(dict.fromkeys(_EXPERIMENT_MODULES.values()))
        elif args.experiment in _EXPERIMENT_MODULES:
            selected = [_EXPERIMENT_MODULES[args.experiment]]
        else:
            print(
                f"unknown experiment {args.experiment!r}; "
                f"choose from: all, {', '.join(_EXPERIMENT_MODULES)}",
                file=sys.stderr,
            )
            return 2
        for module_name in selected:
            module = importlib.import_module(module_name)
            if args.experiment == "all":
                title = module.__doc__.splitlines()[0]
                print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")
            module.main(smoke=args.smoke)
        return 0
    finally:
        if scenario_name is not None:
            from repro.faults import clear_default_fault_scenario

            clear_default_fault_scenario()


def describe_cache(cache) -> str:
    """Human-readable dump of one cache's state, one line per entry."""
    core = cache.core
    lines = [
        f"{core.cache_id}: {len(core.entries)} entries, "
        f"{core.store.physical_bytes}/{core.capacity_bytes} bytes "
        f"({len(core.store)} distinct contents), "
        f"policy={core.policy.name}, mode={core.write_mode.value}"
    ]
    for entry in sorted(core.entries.values(), key=lambda e: str(e.key)):
        lines.append(
            f"  {entry.key} -> {entry.signature.short} "
            f"{entry.size}B {entry.cacheability.name} "
            f"verifiers={len(entry.verifiers)} "
            f"cost={entry.replacement_cost_ms:.2f}ms "
            f"accesses={entry.access_count}"
            + (" [pinned]" if entry.pinned else "")
        )
    if core.dirty:
        lines.append(f"  dirty write-backs pending: {len(core.dirty)}")
    return "\n".join(lines)


def _cmd_doctor(args: argparse.Namespace) -> int:
    """Seeded smoke workload + health report over a wired cluster.

    Builds a two-shard cluster with every opt-in plane enabled
    (containment, memo, durable L2, overload), lands a small paced
    read workload, then prints the introspection surfaces an operator
    would reach for first: the effective configuration, the shard
    health table, overload counters, read-plan reuse, open breakers,
    memo occupancy, L2 stats and each shard's entry table.  Exits
    non-zero when the smoke reads misbehave or a shard is left
    unhealthy.
    """
    import dataclasses
    import random

    import repro
    from repro import MemoryProvider, PlacelessKernel
    from repro.cache.policies import (
        ContainmentPolicy,
        MemoPolicy,
        OverloadPolicy,
        StoragePolicy,
    )
    from repro.cluster import CacheCluster
    from repro.properties import SpellingCorrectorProperty

    seed = getattr(args, "seed", 7)
    rng = random.Random(seed)
    kernel = PlacelessKernel()
    wired = {
        "memo": MemoPolicy(),
        "overload": OverloadPolicy(),
        "containment": ContainmentPolicy(),
        "storage": StoragePolicy(),
    }
    cluster = CacheCluster(
        kernel,
        2,
        capacity_bytes=1 << 20,
        memo_policy=wired["memo"],
        overload_policy=wired["overload"],
        shard_kwargs={
            "containment_policy": wired["containment"],
            "storage_policy": wired["storage"],
        },
    )

    users = [kernel.create_user(f"user-{i}") for i in range(3)]
    references = []
    for n in range(4):
        body = bytes(rng.randrange(32, 127) for _ in range(96))
        document = kernel.create_document(
            users[n % len(users)],
            MemoryProvider(kernel.ctx, body),
            f"doc-{n}",
        )
        for user in users:
            reference = kernel.space(user).add_reference(document)
            if n % 2 == 0:
                reference.attach(SpellingCorrectorProperty())
            references.append(reference)

    # Two paced passes: the first fills, the second must hit.  Pacing
    # (8 virtual ms per read ≈ 125 req/s) keeps the smoke loop under
    # the default admission rate so nothing sheds on a healthy run.
    problems: list[str] = []
    first_pass: dict[int, bytes] = {}
    for sweep in range(2):
        for index, reference in enumerate(references):
            kernel.ctx.clock.charge(8.0)
            outcome = cluster.read(reference)
            if sweep == 0:
                first_pass[index] = outcome.content
            else:
                if outcome.disposition not in ("hit", "revalidated"):
                    problems.append(
                        f"re-read of {reference.document_id} was "
                        f"{outcome.disposition!r}, expected a hit"
                    )
                if outcome.content != first_pass[index]:
                    problems.append(
                        f"re-read of {reference.document_id} returned "
                        "different bytes"
                    )

    print(f"repro {repro.__version__} doctor — seed {seed}")
    print(f"smoke reads: {2 * len(references)} paced reads, "
          f"{len(problems)} problem(s)")
    for problem in problems:
        print(f"  !! {problem}")

    print("\nconfiguration:")
    for seam, policy in wired.items():
        print(f"  {seam:<12} " + (" ".join(
            f"{option}={value}"
            for option, value in dataclasses.asdict(policy).items()
        ) or "on"))

    print("\nshard health:")
    unhealthy = 0
    for name, row in cluster.health_snapshot().items():
        if row["state"] != "healthy":
            unhealthy += 1
        ewma = row["ewma_ms"]
        print(f"  {name:<12} {row['state']:<10} "
              f"reads={row['reads']:<5} fetches={row['fetches']:<4} "
              f"errors={row['errors']:<3} "
              f"ewma_ms={'-' if ewma is None else format(ewma, '.3f')}")

    stats = cluster.overload_stats
    print("\noverload:")
    print(f"  admitted={stats.admitted} shed={stats.shed} "
          f"deadline_exceeded={stats.deadline_exceeded} "
          f"deadline_violations={stats.deadline_violations}")
    print(f"  hedges launched={stats.hedges_launched} "
          f"won={stats.hedges_won} lost={stats.hedges_lost} "
          f"failovers={stats.failovers}")

    ctx = kernel.ctx
    print("\nread plan:")
    print(f"  plans cached={ctx.read_plans_built - ctx.read_plans_rebuilt} "
          f"rebuilds since start={ctx.read_plans_rebuilt}")

    # One guard fences the kernel's property code for every shard.
    print("\nbreakers (open):")
    print("  " + " ".join(
        f"{seam}={len(keys)}"
        for seam, keys in ctx.containment.open_sites().items()
    ))

    print("\nmemo:")
    for name, shard in cluster.shards.items():
        memo_stats = shard.memo_stats
        memo = shard.memo
        print(f"  {name:<12} records={len(memo)}/{memo.capacity} "
              f"adoptions={memo_stats.adoptions} "
              f"misses={memo_stats.misses}")

    print("\ndurable L2:")
    for name, shard in cluster.shards.items():
        storage = shard.storage_stats
        print(f"  {name:<12} demotions={storage.demotions} "
              f"promotions={storage.promotions} "
              f"write_failures={storage.write_failures}")

    print("\nentries:")
    for shard in cluster.shards.values():
        print("  " + describe_cache(shard).replace("\n", "\n  "))

    healthy = not problems and unhealthy == 0
    print(f"\nverdict: {'healthy' if healthy else 'UNHEALTHY'}")
    return 0 if healthy else 1


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import DocumentCache, MemoryProvider, PlacelessKernel
    from repro.properties import SpellingCorrectorProperty, TranslationProperty

    kernel = PlacelessKernel()
    eyal = kernel.create_user("eyal")
    doug = kernel.create_user("doug")
    base = kernel.create_document(
        eyal, MemoryProvider(kernel.ctx, b"Teh world of documents"), "demo"
    )
    eyal_ref = kernel.space(eyal).add_reference(base)
    doug_ref = kernel.space(doug).add_reference(base)
    eyal_ref.attach(SpellingCorrectorProperty())
    doug_ref.attach(TranslationProperty())
    cache = DocumentCache(kernel, capacity_bytes=1 << 20)
    print("eyal reads:", cache.read(eyal_ref).content.decode())
    print("doug reads:", cache.read(doug_ref).content.decode())
    hit = cache.read(eyal_ref)
    print(f"eyal again: {hit.disposition} in {hit.elapsed_ms:.3f} virtual ms")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    import repro

    print(f"repro {repro.__version__} — reproduction of "
          "'Caching Documents with Active Properties' (HotOS 1999)")
    print(f"public API symbols: {len(repro.__all__)}")
    print("experiments (repro bench <id>, or all):")
    print(_experiment_index())
    print("docs: README.md, DESIGN.md, EXPERIMENTS.md")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Placeless Documents active-property caching — "
        "paper reproduction toolkit",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "experiments (id, alias in brackets, what it measures):\n"
            f"{_experiment_index()}\n\n"
            "examples: 'repro bench a12', 'repro bench a16 --smoke', "
            "'repro bench a1 --faults',\n'repro bench table1 --faults "
            "partition', 'repro bench --faults' (all under chaos)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    bench = commands.add_parser(
        "bench",
        help="run experiments",
        description="Run one experiment or the whole suite.",
        epilog=(
            "The a12/faults experiment always injects its own fault "
            "scenarios; --faults additionally wraps ANY experiment in "
            "the standard chaos scenario to check it degrades "
            "gracefully rather than crashing."
        ),
    )
    bench.add_argument(
        "experiment", nargs="?", default="all",
        help="all (default), or one of: " + ", ".join(_EXPERIMENT_MODULES),
    )
    bench.add_argument(
        "--smoke", action="store_true",
        help="run at the reduced size the CI gates use (an experiment "
        "with one size runs that size; BENCH_<ID>.json is still written)",
    )
    bench.add_argument(
        "--faults", nargs="?", const="standard", default=None,
        choices=("standard", "partition", "crash", "diskchaos", "grayshard"),
        metavar="SCENARIO",
        help="inject a named chaos fault scenario into every simulation "
        "context built while the experiment runs.  'standard' (the "
        "default when the name is omitted): lossy/delayed notifier bus "
        "and flaky verifiers, absorbed via retries, bounded stale "
        "serves and verifier quarantine.  'partition': standard plus an "
        "invalidation-bus blackout window (drops notifications, blocks "
        "lease renewals).  'crash': standard plus a mid-run cache "
        "crash/restart (write-back journals replay unflushed writes; "
        "caches without one lose them).  'diskchaos': crash-scenario "
        "chaos plus a hostile disk (failed writes, lying fsyncs, "
        "corrupted records, slow I/O) under any cache with a "
        "storage_policy, absorbed via CRC drops, the storage breaker "
        "and L1-only fallback.  "
        "'grayshard': standard plus one cluster shard (cluster-0) "
        "whose fetches burn 150 extra virtual ms without erroring — "
        "the gray failure the overload layer's EWMA health tracking "
        "and hedged reads absorb",
    )
    bench.set_defaults(func=_cmd_bench)

    doctor = commands.add_parser(
        "doctor",
        help="seeded smoke workload + health report",
        description=(
            "Run a seeded paced workload through a fully-wired "
            "two-shard cluster (containment + memo + durable L2 + "
            "overload) and print the operator introspection surfaces: "
            "effective configuration, shard health, overload counters, "
            "read-plan reuse, open breakers, memo "
            "occupancy and L2 stats.  Exit code 0 when healthy."
        ),
    )
    doctor.add_argument(
        "--seed", type=int, default=7,
        help="workload seed for the smoke documents (default 7)",
    )
    doctor.set_defaults(func=_cmd_doctor)

    demo = commands.add_parser("demo", help="run a tiny inline demo")
    demo.set_defaults(func=_cmd_demo)

    info = commands.add_parser("info", help="print library info")
    info.set_defaults(func=_cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
