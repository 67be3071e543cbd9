"""API-surface tests: the public interface stays importable and documented."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import repro
from tests.unit.test_layers import loaded_above_the_middleware


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


ALL_MODULES = sorted(_walk_modules())

REPO = pathlib.Path(__file__).resolve().parents[2]

#: The options ledger: every constructor keyword of the cache and of
#: the classes whose settings a deployment could turn, by name.
#: Growing a list is a design decision (CONTRIBUTING: "a new option
#: needs two non-test callers with different values"), not a side effect.
CONSTRUCTOR_KEYWORDS = {
    "repro.cache.manager.DocumentCache": [
        "kernel", "capacity_bytes", "policy", "bus", "write_mode",
        "install_notifiers", "use_verifiers", "track_staleness",
        "placement", "retry_policy",
        "name", "degradation_policy", "recovery_policy",
        "containment_policy", "memo_policy", "concurrency_policy",
        "storage_policy", "overload_policy", "memo", "flights",
        "fast_lane",
    ],
    "repro.cluster.coordinator.CacheCluster": [
        "kernel", "shard_count", "capacity_bytes", "cluster_policy",
        "memo_policy", "concurrency_policy", "recovery_policy",
        "overload_policy", "name", "shard_kwargs",
    ],
    "repro.cache.core.CacheCore": [
        "kernel", "capacity_bytes", "name", "policy", "degradation",
        "bus", "placement", "write_mode", "install_notifiers",
        "use_verifiers", "track_staleness", "retry_policy",
    ],
    "repro.overload.health.HealthTracker": ["min_samples"],
    "repro.overload.admission.AdmissionController": ["clock", "rate_per_s"],
    "repro.sim.latency.LatencyModel": [],
    "repro.sim.topology.ClusterTopology": ["shards", "default_link"],
    "repro.cluster.placement.HashRingPolicy": ["shards"],
    "repro.cache.replacement.ReinforcedCounterPolicy": [],
    "repro.faults.retry.RetryPolicy": [
        "max_attempts", "base_delay_ms", "multiplier", "max_delay_ms",
    ],
    "repro.workload.churn.ChurnSpec": [
        "n_events", "n_documents", "n_live_start", "n_users", "zipf_alpha",
        "p_write", "p_publish", "p_perish", "p_flash", "flash_duration",
        "flash_share", "cycle_period", "day_fraction", "night_think_factor",
        "mean_think_time_ms", "seed",
    ],
}

#: Options nothing under ``src/repro/`` (outside the defining module),
#: ``perfbench/`` or ``examples/`` sets, and the one reason each stays.
UNCALLED_OPTIONS = {
    "DocumentCache.fast_lane":
        "awaiting the benchmark PR: perfbench/probes.py forwards it",
    "ContainmentPolicy.max_bytes":
        "safety: caps what runaway property code may stream",
    "ContainmentPolicy.deny_required":
        "safety: typed denial instead of serving untransformed bytes",
}


def _resolve(dotted: str):
    module_name, name = dotted.rsplit(".", 1)
    return getattr(importlib.import_module(module_name), name)


def _ledger_classes() -> dict:
    """Every class the options ledger covers → its option names."""
    from repro.cache import policies
    from repro.cluster.policy import ClusterPolicy

    classes = {
        cls: list(inspect.signature(cls).parameters)
        for cls in map(_resolve, CONSTRUCTOR_KEYWORDS)
    }
    configs = [getattr(policies, name) for name in policies.__all__]
    for cls in (*configs, ClusterPolicy):
        # ``DefaultXPolicy is XPolicy``: the dict keeps one of them.
        if dataclasses.is_dataclass(cls):
            classes[cls] = [f.name for f in dataclasses.fields(cls)]
    return classes


def _calls():
    """``(path, callee name, positional count, keywords)`` of every call
    outside the tests."""
    for directory in ("src/repro", "perfbench", "examples"):
        for path in sorted((REPO / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    callee = getattr(
                        node.func, "id", getattr(node.func, "attr", None)
                    )
                    yield path, callee, len(node.args), node.keywords


def uncalled_options() -> set[str]:
    """``Class.option`` for every ledger option no call outside the
    tests sets.  From the repo root, to list the idle knobs:
    ``PYTHONPATH=src:. python -c "from tests.unit.test_api_surface
    import uncalled_options as u; print(*sorted(u()), sep='\\n')"``."""
    calls = list(_calls())
    uncalled = set()
    for cls, options in _ledger_classes().items():
        defining = pathlib.Path(inspect.getsourcefile(cls)).resolve()
        names = {cls.__name__, f"Default{cls.__name__}"}
        called: set = set()
        for path, callee, positional, keywords in calls:
            if path == defining:
                continue
            if callee in names:
                called.update(options[:positional])
                called.update(keyword.arg for keyword in keywords)
            if cls.__name__ == "DocumentCache" and callee == "CacheCluster":
                for keyword in keywords:
                    if keyword.arg == "shard_kwargs" and isinstance(
                        keyword.value, ast.Dict
                    ):
                        called.update(
                            key.value for key in keyword.value.keys
                            if isinstance(key, ast.Constant)
                        )
        uncalled.update(
            f"{cls.__name__}.{option}"
            for option in options if option not in called
        )
    return uncalled


class TestTopLevelApi:
    def test_every_exported_name_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_no_duplicate_exports(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_dir_lists_every_exported_name(self):
        assert set(repro.__all__) <= set(dir(repro))

    def test_import_repro_alone_loads_nothing_above_the_middleware(self):
        # Names resolve on first use: the layering holds in a running
        # interpreter, and ``from repro import X`` pays only for X.
        assert loaded_above_the_middleware("import repro") == []
        assert loaded_above_the_middleware(
            "from repro import PlacelessKernel, MemoryProvider, Verifier"
        ) == []

    def test_version_is_semver_ish(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)


class TestOneCounterProjection:
    def test_counter_projection_is_the_only_projection_class(self):
        found = {
            f"{module_name}.{name}"
            for module_name in ALL_MODULES
            for name, obj in vars(importlib.import_module(module_name)).items()
            if inspect.isclass(obj)
            and obj.__module__ == module_name
            and name.endswith("Projection")
        }
        assert found == {"repro.cache.instrumentation.CounterProjection"}

    @pytest.mark.parametrize(
        "module_name, removed",
        [
            ("repro.cache.instrumentation", "BusStatsProjection"),
            ("repro.cache.instrumentation", "ConcurrencyStatsProjection"),
            ("repro.cache.instrumentation", "OverloadStatsProjection"),
            ("repro.cache.recovery", "RecoveryStatsProjection"),
            ("repro.cache.containment", "ContainmentStatsProjection"),
        ],
    )
    def test_the_per_seam_projection_classes_are_gone(
        self, module_name, removed
    ):
        module = importlib.import_module(module_name)
        assert not hasattr(module, removed)
        assert removed not in module.__all__


class TestOneReadDriver:
    """Suspended reads have two drivers, both functions; the pluggable
    layers that only ever had one configuration per call site are gone."""

    @pytest.mark.parametrize(
        "module_name, removed",
        [
            ("repro.sim.scheduler", "Scheduler"),
            ("repro.sim.scheduler", "SequentialScheduler"),
            ("repro.sim.scheduler", "InlineScheduler"),
            ("repro.sim.scheduler", "AsyncScheduler"),
            ("repro.cluster.placement", "PlacementPolicy"),
            ("repro.cluster.placement", "ReinforcedCounterPolicy"),
            ("repro.cluster", "PlacementPolicy"),
            ("repro.cluster", "ReinforcedCounterPolicy"),
        ],
    )
    def test_the_single_configuration_layers_are_gone(
        self, module_name, removed
    ):
        module = importlib.import_module(module_name)
        assert not hasattr(module, removed)
        assert removed not in module.__all__

    def test_concurrent_is_internal_and_placement_is_not_a_keyword(self):
        from repro.cache.manager import DocumentCache
        from repro.cluster import CacheCluster

        cluster = inspect.signature(CacheCluster).parameters
        assert not {"placement_policy", "topology"} & set(cluster)
        for constructor in (DocumentCache, CacheCluster):
            parameters = inspect.signature(constructor).parameters
            assert not {"concurrent", "scheduler"} & set(parameters)

    def test_the_cache_core_holds_no_scheduler(self):
        from repro.cache.manager import DocumentCache
        from repro.placeless.kernel import PlacelessKernel

        core = DocumentCache(PlacelessKernel(), capacity_bytes=1024).core
        assert not hasattr(core, "scheduler")


class TestOneWordSubstitution:
    """The corrector and the translator share `streams.WordTable`; the
    kernel reads whole and leaves `drain` to chunked applications."""

    def test_word_table_is_exported_beside_the_transform_streams(self):
        import repro.streams
        import repro.streams.transforms

        for module in (repro.streams, repro.streams.transforms):
            assert "WordTable" in module.__all__
            assert "text_transform" in module.__all__
        assert "drain" in repro.streams.__all__

    def test_the_hand_copied_word_callbacks_are_gone(self):
        from repro.properties.spellcheck import SpellingCorrectorProperty
        from repro.properties.translate import TranslationProperty
        import repro.properties.spellcheck as spellcheck
        import repro.properties.translate as translate

        assert not hasattr(SpellingCorrectorProperty, "_correct_word")
        assert not hasattr(TranslationProperty, "_translate_word")
        for module in (spellcheck, translate):
            assert not hasattr(module, "_WORD_RE")

    def test_the_word_table_runs_no_regex_and_keeps_no_memo(self):
        import repro.streams.transforms as transforms

        assert not hasattr(transforms, "re")
        assert not hasattr(transforms, "_WORD_RE")
        assert not hasattr(transforms, "MEMO_TOKENS")
        assert set(transforms.WordTable.__slots__) == {
            "mapping", "fingerprint", "_lookup", "__weakref__",
        }

    def test_the_kernel_no_longer_imports_drain(self):
        import repro.placeless.kernel as kernel

        assert not hasattr(kernel, "drain")

    def test_no_new_constructor_keyword(self):
        from repro.properties.spellcheck import SpellingCorrectorProperty
        from repro.properties.translate import TranslationProperty

        for dotted, keywords in CONSTRUCTOR_KEYWORDS.items():
            found = list(inspect.signature(_resolve(dotted)).parameters)
            assert found == keywords, dotted
        assert list(inspect.signature(SpellingCorrectorProperty).parameters) == [
            "corrections", "name", "version",
        ]
        assert list(inspect.signature(TranslationProperty).parameters) == [
            "table", "name", "target_language", "version",
        ]


class TestOptionsLedger:
    """An option exists because somebody other than a test sets it.

    AST-level over every call in ``src/repro/`` (the defining module
    excluded), ``perfbench/`` and ``examples/``: a keyword or policy
    field counts as *called* when a call to the class (or its
    ``DefaultX`` alias) passes it, by name or by position — or, for
    ``DocumentCache``, when it is a key of the ``shard_kwargs`` literal
    a ``CacheCluster`` call forwards.  What nobody calls is listed in
    ``UNCALLED_OPTIONS`` with its reason, or is deleted.
    """

    def test_every_option_has_a_caller_outside_tests(self):
        assert uncalled_options() == set(UNCALLED_OPTIONS)
        assert all(len(reason) > 10 for reason in UNCALLED_OPTIONS.values())

    def test_the_idle_knobs_and_their_plumbing_are_gone(self):
        from repro.cache import policies
        from repro.cache.manager import DocumentCache

        for removed in ("AdmissionPolicy", "VoteAdmissionPolicy"):
            assert not hasattr(policies, removed)
            assert not hasattr(importlib.import_module("repro.cache"), removed)
        assert not hasattr(DocumentCache, "_build_core")
        assert not [
            name for name in vars(DocumentCache) if name.startswith("_wire_")
        ]
        assert not {"core", "admission_policy", "instrumentation"} & set(
            inspect.signature(DocumentCache).parameters
        )


    def test_the_settings_no_caller_turned_are_gone(self):
        from repro.cache.policies import MemoPolicy, OverloadPolicy
        from repro.cache.recovery import NotifierLease
        from repro.cache.replacement import ReinforcedCounterPolicy
        from repro.cluster.placement import HashRingPolicy
        from repro.faults.retry import RetryPolicy
        from repro.overload.admission import AdmissionController
        from repro.overload.budget import DeadlineBudget
        from repro.sim.latency import LatencyModel, RepositoryCost
        from repro.sim.topology import ClusterTopology
        from repro.workload.churn import ChurnSpec

        removed = {
            MemoPolicy: ["capacity"],
            OverloadPolicy: [
                "deadlines", "default_deadline_ms", "deadline_from_qos",
                "admission_burst", "queue_limit", "sojourn_threshold_ms",
            ],
            LatencyModel: ["hops", "repositories", "jitter_fraction", "seed"],
            RepositoryCost: ["offline"],
            RetryPolicy: ["retry_on"],
            ReinforcedCounterPolicy: ["counter_cap", "decay_interval"],
            HashRingPolicy: ["replicas"],
            ClusterTopology: ["overrides"],
            ChurnSpec: ["universal_fraction"],
            AdmissionController: [
                "burst", "queue_limit", "sojourn_threshold_ms",
            ],
        }
        for cls, keywords in removed.items():
            for keyword in keywords:
                assert keyword not in inspect.signature(cls).parameters, (
                    cls, keyword,
                )
        gone = {
            LatencyModel: ["set_repository_offline", "_jitter"],
            ClusterTopology: ["set_link", "link_name", "install"],
            NotifierLease: ["check"],
            DeadlineBudget: ["check"],
            importlib.import_module("repro.errors"): ["LeaseExpiredError"],
            importlib.import_module("repro.workload"): ["universal_documents"],
            importlib.import_module("repro.workload.churn"): [
                "universal_documents",
            ],
            importlib.import_module("repro.faults"): [
                "outage_scenario", "lossy_bus_scenario",
                "flaky_fetch_scenario",
            ],
            importlib.import_module("repro.faults.scenarios"): [
                "outage_scenario", "lossy_bus_scenario",
                "flaky_fetch_scenario",
            ],
        }
        for owner, names in gone.items():
            for name in names:
                assert not hasattr(owner, name), (owner, name)
        assert not hasattr(importlib.import_module("repro.sim.latency"), "random")


class TestOneBenchReport:
    """Every experiment states its result once (a dataclass + a column
    list), is driven one way (``main(smoke)``) and — A20 apart — reads
    only the virtual clock.  AST-level, so a copy cannot hide behind an
    alias."""

    BENCH = pathlib.Path(importlib.import_module("repro.bench").__file__).parent
    #: The modules allowed to lay out a table or read the wall clock.
    EXEMPT = {"harness.py", "perf.py", "scale.py"}

    def _trees(self):
        for path in sorted(self.BENCH.glob("*.py")):
            yield path.name, ast.parse(path.read_text())

    def test_only_the_harness_lays_out_a_table(self):
        for name, tree in self._trees():
            if name in self.EXEMPT:
                continue
            called = {
                node.func.id
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
            }
            assert "format_table" not in called, name

    def test_the_virtual_clock_experiments_import_no_wall_clock(self):
        for name, tree in self._trees():
            if name in self.EXEMPT:
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported = {alias.name for alias in node.names}
                elif isinstance(node, ast.ImportFrom):
                    imported = {node.module} | {
                        alias.name for alias in node.names
                    }
                else:
                    continue
                assert not imported & {"time", "perf_counter"}, name

    def test_every_experiment_takes_smoke_and_writes_its_artifact(self):
        from repro.__main__ import _EXPERIMENT_MODULES

        ids = {}
        for experiment_id, module_name in _EXPERIMENT_MODULES.items():
            ids.setdefault(module_name, experiment_id)
        assert len(ids) == 21
        for module_name, experiment_id in ids.items():
            module = importlib.import_module(module_name)
            assert list(inspect.signature(module.main).parameters) == [
                "smoke"
            ], module_name
            (main,) = [
                node
                for node in ast.parse(inspect.getsource(module)).body
                if isinstance(node, ast.FunctionDef) and node.name == "main"
            ]
            written = [
                node.args[0].value
                for node in ast.walk(main)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "write_artifact"
            ]
            assert written == [experiment_id], module_name

    def test_the_cli_does_not_sniff_signatures(self):
        import repro.__main__ as cli

        tree = ast.parse(inspect.getsource(cli))
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
        }
        assert "inspect" not in imported
        assert "has no smoke mode" not in inspect.getsource(cli)

    def test_the_dead_harness_helpers_are_gone(self):
        import repro.bench.harness as harness
        import repro.bench.perf as perf

        assert not hasattr(harness, "format_csv")
        assert perf.__all__ == ["peak_rss_kb", "allocation_probe"]
        for name in ("format_table", "mean", "percentile", "write_artifact"):
            assert name in harness.__all__


class TestModuleHygiene:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_module_imports_cleanly(self, module_name):
        module = importlib.import_module(module_name)
        assert module is not None

    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_module_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_public_classes_and_functions_documented(self, module_name):
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", [])
        for name in exported:
            obj = getattr(module, name, None)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{module_name}.{name} lacks a docstring"

    def test_every_package_reexports_something(self):
        packages = [
            "repro.sim", "repro.events", "repro.streams", "repro.content",
            "repro.providers", "repro.placeless", "repro.properties",
            "repro.cache", "repro.nfs", "repro.workload",
        ]
        for package_name in packages:
            package = importlib.import_module(package_name)
            assert getattr(package, "__all__", []), package_name
