"""Unit tests for the pieces extracted from the cache monolith: the §3
admission vote and the degradation policy, the instrumentation bus with
its projections, and the staged pipeline's observable behaviour under
what travels with the content (votes) and what the constructor sets."""

from __future__ import annotations

import ast
import dataclasses
import inspect
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.cache.containment import ContainmentStats
from repro.cache.instrumentation import (
    ELAPSED,
    CounterProjection,
    InstrumentationBus,
    StageEvent,
    StageRecorder,
    StatsProjection,
)
from repro.cache.manager import DocumentCache
from repro.cache.memo import MemoStats, MemoStatsProjection
from repro.cache.notifiers import BusStats
from repro.cache.policies import (
    AdmissionDecision,
    DefaultDegradationPolicy,
    vote_admission,
)
from repro.cache.recovery import RecoveryStats
from repro.cache.stats import CacheStats, ConcurrencyStats, merged
from repro.contract.cacheability import Cacheability
from repro.contract.consistency import InvalidationReason
from repro.errors import CacheError
from repro.faults.plan import FaultStats
from repro.ids import DocumentId
from repro.overload.gate import OverloadStats
from repro.placeless.document import PathMeta
from repro.placeless.kernel import KernelStats, PlacelessKernel
from repro.properties.uncacheable import UncacheableProperty
from repro.providers.memory import MemoryProvider
from repro.storage.tier import StorageStats

from tests.property.test_counter_oracle import (
    CONCURRENCY_RULES,
    CONTAINMENT_RULES,
    OVERLOAD_RULES,
    RECOVERY_RULES,
)


def _meta(vote: Cacheability) -> PathMeta:
    return PathMeta(votes=[vote])


class TestVoteAdmissionPolicy:
    """``vote_admission``: the one fill rule (there is no policy object)."""

    def test_unrestricted_content_admitted(self):
        decision = vote_admission(
            b"x" * 10, _meta(Cacheability.UNRESTRICTED), capacity_bytes=100
        )
        assert decision is AdmissionDecision.ADMIT

    def test_uncacheable_vote_wins_over_size(self):
        decision = vote_admission(
            b"x" * 1000, _meta(Cacheability.UNCACHEABLE), capacity_bytes=100
        )
        assert decision is AdmissionDecision.UNCACHEABLE

    def test_content_larger_than_whole_cache_is_oversize(self):
        decision = vote_admission(
            b"x" * 101, _meta(Cacheability.UNRESTRICTED), capacity_bytes=100
        )
        assert decision is AdmissionDecision.OVERSIZE

    def test_exactly_capacity_sized_content_admitted(self):
        decision = vote_admission(
            b"x" * 100, _meta(Cacheability.UNRESTRICTED), capacity_bytes=100
        )
        assert decision is AdmissionDecision.ADMIT


class TestDefaultDegradationPolicy:
    def test_negative_stale_age_rejected(self):
        with pytest.raises(CacheError):
            DefaultDegradationPolicy(stale_serve_max_age_ms=-1.0)

    def test_quarantine_threshold_below_one_rejected(self):
        with pytest.raises(CacheError):
            DefaultDegradationPolicy(verifier_quarantine_threshold=0)

    def test_unbounded_stale_age_accepts_anything(self):
        policy = DefaultDegradationPolicy(serve_stale_on_error=True)
        assert policy.stale_age_acceptable(1e12)

    def test_stale_age_bound_is_inclusive(self):
        policy = DefaultDegradationPolicy(stale_serve_max_age_ms=500.0)
        assert policy.stale_age_acceptable(500.0)
        assert not policy.stale_age_acceptable(500.1)

    @staticmethod
    def _core(**degradation):
        """The quarantine lives on each cache's core; the policy only
        configures its threshold."""
        return DocumentCache(
            PlacelessKernel(), capacity_bytes=1024,
            degradation_policy=DefaultDegradationPolicy(**degradation),
        ).core

    def test_quarantine_requires_consecutive_failures(self):
        core = self._core(verifier_quarantine_threshold=3)
        key = (DocumentId("1"), "ThresholdVerifier")
        assert not core.note_verifier_failure(key)
        assert not core.note_verifier_failure(key)
        # A clean run resets the streak, so the next failure is #1 again.
        core.note_verifier_success(key)
        assert not core.note_verifier_failure(key)
        assert not core.note_verifier_failure(key)
        assert core.note_verifier_failure(key)  # newly quarantined
        assert core.is_quarantined(key)
        # Already quarantined: further failures are not "newly".
        assert not core.note_verifier_failure(key)

    def test_no_threshold_means_no_quarantine(self):
        core = self._core()
        key = (DocumentId("1"), "V")
        for _ in range(100):
            core.note_verifier_failure(key)
        assert not core.is_quarantined(key)
        assert core.quarantine.open_keys() == set()

    def test_breaker_reset_clears_streaks_too(self):
        core = self._core(verifier_quarantine_threshold=1)
        a = (DocumentId("1"), "A")
        b = (DocumentId("2"), "B")
        core.note_verifier_failure(a)
        core.note_verifier_failure(b)
        assert core.quarantine.open_keys() == {a, b}
        assert core.quarantine.reset_all() == 2
        assert core.quarantine.open_keys() == set()
        # Streaks were cleared: one failure re-quarantines (threshold 1).
        assert core.note_verifier_failure(a)

    def test_open_keys_returns_a_copy(self):
        core = self._core(verifier_quarantine_threshold=1)
        key = (DocumentId("1"), "A")
        core.note_verifier_failure(key)
        snapshot = core.quarantine.open_keys()
        snapshot.clear()
        assert core.is_quarantined(key)

    @pytest.mark.parametrize(
        "keyword",
        [
            "serve_stale_on_error", "stale_serve_max_age_ms",
            "bypass_backing_on_error", "verifier_quarantine_threshold",
        ],
    )
    def test_policy_plus_its_own_keyword_is_refused(self, kernel, keyword):
        # The policy is the only spelling: the four per-field keywords
        # (and the conflict check that policed the overlap) are gone.
        with pytest.raises(TypeError, match=keyword):
            DocumentCache(
                kernel,
                capacity_bytes=1 << 20,
                degradation_policy=DefaultDegradationPolicy(),
                **{keyword: None},
            )
        assert keyword not in inspect.signature(DocumentCache).parameters


class TestInstrumentationBus:
    def test_subscribers_run_in_subscription_order(self):
        bus = InstrumentationBus()
        order: list[str] = []
        bus.subscribe(lambda e: order.append("first"))
        bus.subscribe(lambda e: order.append("second"))
        bus.emit(StageEvent(stage="read", outcome="hit"))
        assert order == ["first", "second"]

    def test_unsubscribe_stops_delivery(self):
        bus = InstrumentationBus()
        seen: list[StageEvent] = []
        bus.subscribe(seen.append)
        bus.unsubscribe(seen.append)
        bus.unsubscribe(seen.append)  # absent: no-op
        bus.emit(StageEvent(stage="read", outcome="hit"))
        assert seen == []

    def test_elapsed_is_end_minus_start(self):
        event = StageEvent(
            stage="fetch", outcome="failed", started_ms=2.5, ended_ms=4.0
        )
        assert event.elapsed_ms == pytest.approx(1.5)


class TestStageRecorder:
    def test_aggregates_count_and_latency_per_cell(self):
        recorder = StageRecorder()
        recorder(StageEvent("read", "hit", started_ms=0.0, ended_ms=1.0))
        recorder(StageEvent("read", "hit", started_ms=0.0, ended_ms=3.0))
        recorder(StageEvent("read", "miss", started_ms=0.0, ended_ms=10.0))
        cell = recorder.cells[("read", "hit")]
        assert cell.count == 2
        assert cell.elapsed_ms == pytest.approx(4.0)
        assert cell.mean_ms == pytest.approx(2.0)
        assert recorder.cells[("read", "miss")].count == 1

    def test_rows_follow_canonical_stage_order(self):
        recorder = StageRecorder()
        recorder(StageEvent("eviction", "evicted"))
        recorder(StageEvent("read", "miss"))
        recorder(StageEvent("unknown-stage", "x"))
        stages = [row[0] for row in recorder.rows()]
        assert stages == ["read", "eviction", "unknown-stage"]

    def test_render_empty_recorder(self):
        text = StageRecorder().render(title="empty")
        assert "empty" in text and "(no events recorded)" in text

    def test_render_contains_every_cell(self):
        recorder = StageRecorder()
        recorder(StageEvent("read", "stale-on-error"))
        assert "stale-on-error" in recorder.render()


#: Every stats dataclass with the table that states it as a function of
#: stage events.  ``CacheStats`` and ``MemoStats`` still carry theirs;
#: the other four are only written where they are decided, and their
#: tables live on in the counter oracle (tests/property/
#: test_counter_oracle.py).
TABLES = {
    CacheStats: CacheStats.RULES,
    ConcurrencyStats: CONCURRENCY_RULES,
    OverloadStats: OVERLOAD_RULES,
    MemoStats: MemoStats.RULES,
    RecoveryStats: RECOVERY_RULES,
    ContainmentStats: CONTAINMENT_RULES,
}
#: The function rules (the counter's *name* comes from the payload):
#: payloads to drive each with, and the fields each must move.
FUNCTION_CASES = {
    ("invalidation", None): [(
        {"reason": InvalidationReason.EXPLICIT},
        {"invalidations": {InvalidationReason.EXPLICIT: 1}},
    )],
    ("overload", "shed"): [
        ({"priority": "bulk"}, {"shed_bulk": 1}),
        ({"priority": "qos"}, {"shed_qos": 1}),
        ({"priority": "critical"}, {"shed_critical": 1}),
        ({}, {"shed_critical": 1}),
    ],
    ("resync", "repaired"): [(
        {"invalidation_class": 3},
        {"resync_repairs": 1, "repairs_by_class": {3: 1}},
    )],
}
_ELAPSED_MS = 2.5
_PAYLOAD_VALUE = 3


def _cases(key, rule):
    """Synthetic events for one rule, each with the field deltas it owes."""
    stage, outcome = key
    if callable(rule):
        cases = FUNCTION_CASES[key]
    else:
        payload, moved = {}, {}
        for name, operand in rule:
            if operand == 1:
                amount = 1
            elif operand is ELAPSED:
                amount = _ELAPSED_MS
            else:
                payload[operand] = amount = _PAYLOAD_VALUE
            moved[name] = moved.get(name, 0) + amount
        cases = [(payload, moved)]
    return [
        (
            StageEvent(
                stage, outcome or "any-other-outcome", started_ms=1.0,
                ended_ms=1.0 + _ELAPSED_MS, payload=payload,
            ),
            moved,
        )
        for payload, moved in cases
    ]


def _values(stats) -> dict:
    # Not ``dataclasses.asdict``: its deep copy mangles ``Counter``s.
    return {f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)}


@pytest.fixture(scope="module")
def source_trees() -> dict[Path, ast.Module]:
    """Every module of ``src/repro``, parsed, by path under the package."""
    root = Path(repro.__file__).parent
    return {
        path.relative_to(root): ast.parse(path.read_text())
        for path in root.rglob("*.py")
    }


@pytest.fixture(scope="module")
def written_in_place(source_trees) -> set[str]:
    """Every attribute ``src/repro`` writes in place: ``x.name += ...``,
    and ``x.name[key] += ...`` or ``x.name[key] = ...``."""
    found: set[str] = set()
    for tree in source_trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.Assign):
                targets = [
                    target for target in node.targets
                    if isinstance(target, ast.Subscript)
                ]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Subscript):
                    target = target.value
                if isinstance(target, ast.Attribute):
                    found.add(target.attr)
    return found


@pytest.fixture(scope="module")
def emitted_literals(source_trees) -> set[str]:
    """Every string constant in ``src/repro`` outside a ``RULES`` table."""
    found: set[str] = set()
    for tree in source_trees.values():
        in_tables = {
            id(node)
            for table in ast.walk(tree)
            if isinstance(table, ast.AnnAssign)
            and getattr(table.target, "id", None) == "RULES"
            for node in ast.walk(table)
        }
        found.update(
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in in_tables
        )
    return found


def test_one_way_into_the_cache_and_one_way_out_of_a_miss(source_trees):
    # A version becomes an entry in ``CacheCore.install`` and is armed in
    # ``CacheCore.arm``; a read ends at ``ReadPipeline.serve`` (hit) or at
    # ``ReadPipeline._finish`` (everything else).  A second site for any
    # of these is a copy that will drift (benches build their own worlds).
    calls = Counter(
        (node.func.id, str(path))
        for path, tree in source_trees.items()
        if path.parts[0] != "bench"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    )
    sites = {
        name: sorted(path for (called, path) in calls if called == name)
        for name in (
            "CacheEntry", "install_minimum_notifiers", "CacheReadOutcome"
        )
    }
    assert sites == {
        "CacheEntry": ["cache/core.py"],
        "install_minimum_notifiers": ["cache/core.py"],
        "CacheReadOutcome": ["cache/pipeline.py"],
    }
    assert calls["CacheEntry", "cache/core.py"] == 1
    assert calls["install_minimum_notifiers", "cache/core.py"] == 1
    assert calls["CacheReadOutcome", "cache/pipeline.py"] == 2
    # ... and the metadata-exchange handshake is charged in one place.
    assert [
        str(path)
        for path, tree in source_trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "ADOPTION_COST_MS"
        and isinstance(node.ctx, ast.Load)
    ] == ["cache/pipeline.py"]


def test_one_driver_for_suspended_reads(source_trees):
    # Interleaving is ``sim.scheduler.run_batch``'s FIFO queue, which the
    # goldens pin; an event loop would put it back in the stdlib's hands.
    imported = {
        (alias.name if isinstance(node, ast.Import) else node.module or "")
        .split(".")[0]
        for tree in source_trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "asyncio" not in imported
    # The write path never suspends: no generator in ``WritePipeline``.
    writes = next(
        node
        for node in ast.walk(source_trees[Path("cache/pipeline.py")])
        if isinstance(node, ast.ClassDef) and node.name == "WritePipeline"
    )
    assert not any(
        isinstance(node, (ast.Yield, ast.YieldFrom))
        for node in ast.walk(writes)
    )


PIPELINE = Path(repro.__file__).parent / "cache" / "pipeline.py"


def test_the_pipeline_is_two_classes_of_steps(source_trees):
    # A step is a method, not a class: the five classes are the two
    # pipelines and the values they exchange.
    tree = source_trees[Path("cache/pipeline.py")]
    assert [
        node.name for node in tree.body if isinstance(node, ast.ClassDef)
    ] == [
        "WriteMode", "CacheReadOutcome", "ReadContext", "ReadPipeline",
        "WritePipeline",
    ]
    assert "pragma: no cover" not in PIPELINE.read_text()


def test_the_miss_order_is_written_once(source_trees):
    # The module docstring states the order of a miss; ``_iterate`` calls
    # each step exactly once, in that order, as straight-line code.
    tree = source_trees[Path("cache/pipeline.py")]
    stated = next(
        line.split(":", 1)[1].split("→")
        for line in ast.get_docstring(tree).splitlines()
        if line.strip().startswith("miss:")
    )
    steps = [step.strip() for step in stated]
    assert len(steps) == 6
    iterate = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_iterate"
    )
    calls = sorted(
        (node.lineno, node.col_offset, node.func.attr)
        for node in ast.walk(iterate)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "self"
        and node.func.attr in steps
    )
    assert [name for _, _, name in calls] == steps
    assert not any(
        isinstance(node, ast.For) for node in ast.walk(iterate)
    )


class TestStatsProjection:
    """The one ``CounterProjection`` over all six tables, plus worked
    examples for ``CacheStats``, the table the paper's trade-offs are
    read from (the bus's ``BusStats`` is written by the bus itself:
    ``tests/unit/test_notifiers.py``).  No cache projects them: the
    counter oracle holds the direct writes to them."""

    tables = pytest.mark.parametrize(
        "stats_type", list(TABLES), ids=lambda t: t.__name__
    )

    @tables
    def test_each_rule_moves_exactly_its_fields(self, stats_type):
        for key, rule in TABLES[stats_type].items():
            for event, moved in _cases(key, rule):
                stats = stats_type()
                CounterProjection(stats, TABLES[stats_type])(event)
                expected = _values(stats_type())
                expected.update(moved)
                assert _values(stats) == expected, (key, event.payload)

    @tables
    def test_event_outside_the_table_moves_nothing(self, stats_type):
        stats = stats_type()
        projection = CounterProjection(stats, TABLES[stats_type])
        projection(StageEvent("no-such-stage", "whatever"))
        for stage in {stage for stage, _ in TABLES[stats_type]}:
            if (stage, None) not in TABLES[stats_type]:
                projection(StageEvent(stage, "no-such-outcome"))
        assert stats == stats_type()

    @tables
    def test_stages_are_the_tables_stages(self, stats_type):
        # The projection indexes its rules by the table's stages.
        projection = CounterProjection(stats_type(), TABLES[stats_type])
        assert set(projection._rules) == {
            stage for stage, _ in TABLES[stats_type]
        }

    @tables
    def test_every_rule_targets_a_real_field(self, stats_type):
        names = {field.name for field in dataclasses.fields(stats_type)}
        for key, rule in TABLES[stats_type].items():
            if callable(rule):
                assert key in FUNCTION_CASES, key
                continue
            for name, operand in rule:
                assert name in names, (key, name)
                assert operand == 1 or isinstance(operand, str), (key, name)

    @tables
    def test_every_field_is_written_by_some_rule(self, stats_type):
        written = set()
        for key, rule in TABLES[stats_type].items():
            for _, moved in _cases(key, rule):
                written.update(moved)
        assert written == {f.name for f in dataclasses.fields(stats_type)}

    @tables
    def test_every_field_is_written_in_the_source(
        self, stats_type, written_in_place, source_trees
    ):
        # A field nothing writes is a counter that cannot move.  Every
        # counter is an in-place write at the line that decides it (a
        # keyed one — invalidations by reason, repairs by class —
        # through its subscript); this is the dead-counter guard the
        # tables were before the direct writes.
        fields = {f.name for f in dataclasses.fields(stats_type)}
        assert fields <= written_in_place, fields - written_in_place
        if stats_type is CacheStats:
            called = {
                node.func.attr
                for tree in source_trees.values()
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            }
            assert "record_invalidation" in called

    def test_directly_written_stats_declare_no_table(self):
        # Written inline by their owners, not derived from stage events:
        # only ``CacheStats`` and ``MemoStats`` keep a ``RULES`` table.
        for stats_type in (
            StorageStats, KernelStats, FaultStats, BusStats,
            ConcurrencyStats, OverloadStats, RecoveryStats,
            ContainmentStats,
        ):
            assert not hasattr(stats_type, "RULES"), stats_type

    @tables
    def test_every_outcome_is_emitted_somewhere(
        self, stats_type, emitted_literals
    ):
        # A rule nothing feeds is a counter that cannot move: the old
        # ``deadline/violated`` branch pinned a CI gate at zero forever.
        for stage, outcome in TABLES[stats_type]:
            assert stage in emitted_literals, (stage, outcome)
            assert outcome is None or outcome in emitted_literals, (
                stage, outcome,
            )

    def test_deprecated_bindings_bind_the_generic_class(self):
        stats = CacheStats()
        projection = StatsProjection(stats)
        assert type(projection) is CounterProjection
        assert projection.stats is stats
        assert set(projection._rules) == {s for s, _ in CacheStats.RULES}
        memo = MemoStatsProjection()
        assert type(memo) is CounterProjection
        assert memo.stats == MemoStats() and set(memo._rules) == {"memo"}

    def _project(self, *events: StageEvent) -> CacheStats:
        stats = CacheStats()
        projection = CounterProjection(stats, CacheStats.RULES)
        for event in events:
            projection(event)
        return stats

    def test_terminal_read_hit_vs_miss(self):
        stats = self._project(
            StageEvent("read", "hit", started_ms=0.0, ended_ms=1.0,
                       payload={"bytes": 11}),
            StageEvent("read", "revalidated", started_ms=0.0, ended_ms=2.0,
                       payload={"bytes": 5}),
            StageEvent("read", "miss", started_ms=0.0, ended_ms=40.0),
            StageEvent("read", "stale-on-error", started_ms=0.0, ended_ms=8.0),
        )
        assert stats.hits == 2 and stats.misses == 2
        assert stats.hit_latency_ms == pytest.approx(3.0)
        assert stats.miss_latency_ms == pytest.approx(48.0)
        assert stats.bytes_served_from_cache == 16

    def test_fetch_retry_accumulates_delay(self):
        stats = self._project(
            StageEvent("fetch", "retry", payload={"delay_ms": 100.0}),
            StageEvent("fetch", "retry", payload={"delay_ms": 200.0}),
            StageEvent("fetch", "failed"),
        )
        assert stats.retries == 2
        assert stats.retry_delay_ms == pytest.approx(300.0)
        assert stats.fetch_failures == 1

    def test_degradation_outcomes(self):
        stats = self._project(
            StageEvent("degradation", "stale-served"),
            StageEvent("degradation", "stale-rejected"),
        )
        assert stats.stale_served_on_error == 1
        assert stats.stale_serve_rejected == 1

    def test_unknown_stage_is_ignored(self):
        stats = self._project(StageEvent("no-such-stage", "whatever"))
        assert stats == CacheStats()

    def test_memo_imports_sum_the_adoptions_flag(self):
        memo = MemoStats()
        projection = CounterProjection(memo, MemoStats.RULES)
        projection(StageEvent("memo", "adopted"))
        projection(StageEvent("memo", "adopted", payload={"imported": True}))
        projection(StageEvent("memo", "purged", payload={"records": 7}))
        assert (memo.adoptions, memo.imports, memo.purged) == (2, 1, 7)
        assert type(memo.imports) is int


class TestMerged:
    def test_cache_stats_sum_and_merge_the_counter_field(self):
        first = CacheStats(hits=2, hit_latency_ms=0.5)
        first.record_invalidation(InvalidationReason.EXPLICIT)
        second = CacheStats(hits=3, misses=1, hit_latency_ms=0.25)
        second.record_invalidation(InvalidationReason.EXPLICIT)
        second.record_invalidation(InvalidationReason.EVICTED)
        total = merged([first, second])
        assert type(total) is CacheStats
        assert (total.hits, total.misses) == (5, 1)
        assert total.hit_latency_ms == 0.75
        assert total.invalidations == Counter(
            {InvalidationReason.EXPLICIT: 2, InvalidationReason.EVICTED: 1}
        )
        assert type(total.invalidations) is Counter
        # The parts are read, never written.
        assert first.hits == 2 and len(first.invalidations) == 1
        assert CacheStats.merged([first, second]) == total
        assert CacheStats.merged([]) == CacheStats()

    def test_recovery_stats_merge_the_dict_field(self):
        first = RecoveryStats(resyncs=1, repairs_by_class={1: 2, 4: 1})
        second = RecoveryStats(resyncs=2, repairs_by_class={4: 3})
        total = merged([first, second])
        assert total.resyncs == 3
        assert total.repairs_by_class == {1: 2, 4: 4}
        assert first.repairs_by_class == {1: 2, 4: 1}

    def test_memo_stats_sum_every_field(self):
        parts = [MemoStats(adoptions=1, imports=1), MemoStats(adoptions=4)]
        total = merged(parts)
        assert total == MemoStats(adoptions=5, imports=1)
        assert total.chain_executions_avoided == 5


class TestPolicyInjection:
    """What the content's properties vote, and what the constructor
    sets, changes stage behaviour."""

    @pytest.fixture
    def reference(self, kernel, user):
        provider = MemoryProvider(kernel.ctx, b"pipeline bytes")
        base = kernel.create_document(user, provider, "doc")
        return kernel.space(user).add_reference(base)

    def test_uncacheable_vote_blocks_fills(self, kernel, reference):
        reference.attach(UncacheableProperty())
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        for _ in range(3):
            outcome = cache.read(reference)
            assert not outcome.hit
            assert outcome.disposition == "uncacheable"
            assert outcome.content == b"pipeline bytes"
        assert len(cache) == 0
        assert cache.stats.uncacheable_reads == 3
        assert cache.stats.bytes_filled == 0

    def test_custom_degradation_policy_is_exposed(self, kernel, reference):
        policy = DefaultDegradationPolicy(
            serve_stale_on_error=True, verifier_quarantine_threshold=2
        )
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20, degradation_policy=policy
        )
        assert cache.degradation_policy is policy
        assert not hasattr(cache, "serve_stale_on_error")
        assert not hasattr(cache, "verifier_quarantine_threshold")

    def test_breakdown_records_hit_and_miss_reads(self, kernel, reference):
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        recorder = StageRecorder()
        cache.instrumentation.subscribe(recorder)
        cache.read(reference)
        cache.read(reference)
        cells = recorder.cells
        assert cells[("read", "miss")].count == 1
        assert cells[("read", "hit")].count == 1
        assert cells[("admission", "filled")].count == 1
        # Virtual time: the one hit is far cheaper than the one miss.
        assert cells[("read", "hit")].mean_ms < cells[("read", "miss")].mean_ms

    def test_subscriber_on_cache_instrumentation_observes_reads(
        self, kernel, reference
    ):
        recorder = StageRecorder()
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        cache.instrumentation.subscribe(recorder)
        cache.read(reference)
        assert recorder.cells[("read", "miss")].count == 1
        assert cache.stats.misses == 1
