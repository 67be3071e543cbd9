"""One contract for the eight per-seam config classes.

Each is a frozen, validating dataclass (seven in
:mod:`repro.cache.policies`, the cluster's in
:mod:`repro.cluster.policy`).  The suite is table-driven so a ninth
config only adds a row; the tables at the bottom pin every default and
every module constant that replaced an option, because the golden
digests and the benchmark's deterministic metrics move if one drifts.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import pytest

from repro.cache import core, policies
from repro.cache.manager import DocumentCache
from repro.cluster import coordinator
from repro.cluster import policy as cluster_policy
from repro.errors import CacheError
from repro.overload import health
from repro.placeless.kernel import PlacelessKernel
from repro.storage import tier


class Config(NamedTuple):
    cls: type
    default_name: type
    #: Every option at its default value.
    defaults: dict
    #: Some valid non-default construction.
    valid: dict
    #: One-keyword constructions that must raise ``CacheError``.
    invalid: list
    #: Keywords the class used to accept and no longer does.
    removed: list


CONFIGS = [
    Config(
        policies.MemoPolicy,
        policies.DefaultMemoPolicy,
        {"capacity": 1024},
        {"capacity": 16},
        [{"capacity": 0}],
        ["negative_cache", "verify_on_serve", "probe_cost_ms"],
    ),
    Config(
        policies.ConcurrencyPolicy,
        policies.DefaultConcurrencyPolicy,
        {"coalesce": True},
        {"coalesce": False},
        [],
        ["coalesce_memo_plane", "max_followers"],
    ),
    Config(
        policies.RecoveryPolicy,
        policies.DefaultRecoveryPolicy,
        {"lease_term_ms": 2_000.0},
        {"lease_term_ms": 500.0},
        [{"lease_term_ms": 0.0}, {"lease_term_ms": -5.0}],
        ["sequence_invalidations", "journal_writes"],
    ),
    Config(
        policies.StoragePolicy,
        policies.DefaultStoragePolicy,
        {"directory": None, "breaker_failure_threshold": 3},
        {"directory": "/tmp/l2", "breaker_failure_threshold": 1},
        [{"breaker_failure_threshold": 0}],
        [
            "demote_on_evict", "promote_on_hit", "spill_journal",
            "spill_memo", "verify_on_promote", "write_cost_ms",
            "read_cost_ms", "sync_cost_ms", "probe_cost_ms",
            "breaker_probation_ms",
        ],
    ),
    Config(
        policies.OverloadPolicy,
        policies.DefaultOverloadPolicy,
        {
            "deadlines": True, "shedding": True, "hedging": True,
            "default_deadline_ms": 250.0, "deadline_from_qos": True,
            "admission_rate_per_s": 200.0, "admission_burst": 16.0,
            "queue_limit": 32.0, "sojourn_threshold_ms": 100.0,
            "health_min_samples": 8,
        },
        {"shedding": False, "hedging": False, "queue_limit": 0.0},
        [
            {"default_deadline_ms": 0.0},
            {"admission_rate_per_s": 0.0},
            {"admission_burst": 0.5},
            {"queue_limit": -1.0},
            {"sojourn_threshold_ms": -1.0},
            {"health_min_samples": 0},
        ],
        [
            "hedge_delay_factor", "hedge_delay_min_ms",
            "hedge_delay_max_ms", "gray_latency_factor",
            "health_ewma_alpha", "unhealthy_error_threshold",
            "recovery_successes",
        ],
    ),
    Config(
        policies.ContainmentPolicy,
        policies.DefaultContainmentPolicy,
        {
            "failure_threshold": 3, "probation_delay_ms": 1_000.0,
            "half_open_successes": 1, "max_cost_ms": None,
            "max_bytes": None, "deny_required": False,
        },
        {"failure_threshold": 1, "max_cost_ms": 5.0, "deny_required": True},
        [
            {"failure_threshold": 0},
            {"probation_delay_ms": -1.0},
            {"half_open_successes": 0},
            {"max_cost_ms": 0.0},
            {"max_bytes": 0},
        ],
        ["deny_optional"],
    ),
    Config(
        policies.DegradationPolicy,
        policies.DefaultDegradationPolicy,
        {
            "serve_stale_on_error": False, "stale_serve_max_age_ms": None,
            "verifier_quarantine_threshold": None,
        },
        {"serve_stale_on_error": True, "verifier_quarantine_threshold": 2},
        [
            {"stale_serve_max_age_ms": -1.0},
            {"verifier_quarantine_threshold": 0},
        ],
        ["bypass_backing_on_error"],
    ),
    Config(
        cluster_policy.ClusterPolicy,
        cluster_policy.DefaultClusterPolicy,
        {},  # the opt-in marker: nothing to set
        {},
        [],
        ["share_memo", "share_flights", "shared_memo_capacity"],
    ),
]

per_config = pytest.mark.parametrize(
    "config", CONFIGS, ids=lambda config: config.cls.__name__
)


def _per(attribute: str):
    """One pytest case per (config, item of its *attribute* list)."""
    def label(item) -> str:
        if isinstance(item, dict):
            return ",".join(f"{key}={value}" for key, value in item.items())
        return item

    return pytest.mark.parametrize(
        "cls, item",
        [
            pytest.param(
                config.cls, item, id=f"{config.cls.__name__}-{label(item)}"
            )
            for config in CONFIGS
            for item in getattr(config, attribute)
        ],
    )


def _options(cls: type) -> list[str]:
    return [f.name for f in dataclasses.fields(cls) if f.init]


class TestConfigContract:
    @per_config
    def test_default_name_is_the_class(self, config):
        assert config.default_name is config.cls
        assert isinstance(config.default_name(), config.cls)

    @per_config
    def test_defaults_are_pinned(self, config):
        instance = config.cls()
        assert {
            name: getattr(instance, name) for name in _options(config.cls)
        } == config.defaults

    @per_config
    def test_assignment_raises(self, config):
        instance = config.cls()
        for name in _options(config.cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(instance, name, config.defaults[name])

    @per_config
    def test_equal_arguments_compare_equal(self, config):
        assert config.cls(**config.valid) == config.cls(**config.valid)
        assert hash(config.cls(**config.valid)) == hash(
            config.cls(**config.valid)
        )
        if config.valid:
            assert config.cls(**config.valid) != config.cls()

    @_per("invalid")
    def test_invalid_value_rejected(self, cls, item):
        with pytest.raises(CacheError):
            cls(**item)

    @_per("invalid")
    def test_replace_reruns_validation(self, cls, item):
        with pytest.raises(CacheError):
            dataclasses.replace(cls(), **item)

    @_per("removed")
    def test_removed_keyword_is_a_type_error(self, cls, item):
        with pytest.raises(TypeError):
            cls(**{item: True})

    def test_option_count(self):
        assert sum(len(_options(config.cls)) for config in CONFIGS) == 24

    @per_config
    def test_every_field_is_an_option(self, config):
        """Pure configuration: no derived or stateful field rides along
        (a shared instance must not share state between its caches)."""
        names = [f.name for f in dataclasses.fields(config.cls)]
        assert names == _options(config.cls) == list(config.defaults)

    def test_degradation_replace_gets_a_fresh_quarantine(self):
        """The quarantine is per cache, whichever policy configured it."""
        original = policies.DegradationPolicy(verifier_quarantine_threshold=1)
        copy = dataclasses.replace(original, serve_stale_on_error=True)
        kernel = PlacelessKernel()
        first = DocumentCache(kernel, 1024, degradation_policy=original).core
        second = DocumentCache(kernel, 1024, degradation_policy=copy).core
        first.note_verifier_failure(("doc", "V"))
        assert first.is_quarantined(("doc", "V"))
        assert not second.is_quarantined(("doc", "V"))


@pytest.mark.parametrize(
    "module, name, value",
    [
        (core, "PROBE_COST_MS", 0.2),
        (tier, "WRITE_COST_MS", 0.4),
        (tier, "READ_COST_MS", 0.25),
        (tier, "SYNC_COST_MS", 0.5),
        (tier, "BREAKER_PROBATION_MS", 2_000.0),
        (coordinator, "HEDGE_DELAY_FACTOR", 1.0),
        (coordinator, "HEDGE_DELAY_MIN_MS", 1.0),
        (coordinator, "HEDGE_DELAY_MAX_MS", 250.0),
        (health, "HEALTH_EWMA_ALPHA", 0.2),
        (health, "GRAY_LATENCY_FACTOR", 3.0),
        (health, "UNHEALTHY_ERROR_THRESHOLD", 3),
        (health, "RECOVERY_SUCCESSES", 3),
    ],
)
def test_constants_that_replaced_options_are_pinned(module, name, value):
    assert getattr(module, name) == value


def test_health_tracker_defaults_are_the_constants():
    tracker = health.HealthTracker()
    assert tracker.ewma_alpha == health.HEALTH_EWMA_ALPHA
    assert tracker.gray_latency_factor == health.GRAY_LATENCY_FACTOR
    assert tracker.error_threshold == health.UNHEALTHY_ERROR_THRESHOLD
    assert tracker.recovery_successes == health.RECOVERY_SUCCESSES
