"""Tests for every verifier class."""

from __future__ import annotations

import pytest

from repro.contract.verifiers import (
    AlwaysInvalidVerifier,
    AlwaysValidVerifier,
    CompositeVerifier,
    ModificationTimeVerifier,
    PredicateVerifier,
    ThresholdVerifier,
    TTLVerifier,
    Verdict,
    VerifierResult,
)
from repro.errors import VerifierError


class TestVerifierResult:
    def test_revalidated_must_carry_the_patched_bytes(self):
        with pytest.raises(VerifierError):
            VerifierResult(Verdict.REVALIDATED)

    def test_an_explicit_empty_patch_is_legal(self):
        result = VerifierResult(Verdict.REVALIDATED, b"")
        assert result.patched_content == b""


class TestTrivialVerifiers:
    def test_always_valid(self):
        result = AlwaysValidVerifier().run(0.0, b"x")
        assert result.verdict is Verdict.VALID

    def test_always_invalid(self):
        result = AlwaysInvalidVerifier().run(0.0, b"x")
        assert result.verdict is Verdict.INVALID

    def test_execution_count_tracks_runs(self):
        verifier = AlwaysValidVerifier()
        for _ in range(3):
            verifier.run(0.0, b"")
        assert verifier.executions == 3


class TestTTLVerifier:
    def test_valid_before_expiry(self):
        verifier = TTLVerifier(issued_ms=100.0, ttl_ms=50.0)
        assert verifier.run(149.9, b"").verdict is Verdict.VALID

    def test_invalid_at_expiry_boundary(self):
        verifier = TTLVerifier(issued_ms=100.0, ttl_ms=50.0)
        assert verifier.run(150.0, b"").verdict is Verdict.INVALID

    def test_zero_ttl_immediately_invalid(self):
        verifier = TTLVerifier(issued_ms=0.0, ttl_ms=0.0)
        assert verifier.run(0.0, b"").verdict is Verdict.INVALID

    def test_negative_ttl_raises(self):
        with pytest.raises(VerifierError):
            TTLVerifier(issued_ms=0.0, ttl_ms=-1.0)

    def test_expires_property(self):
        assert TTLVerifier(10.0, 5.0).expires_ms == 15.0

    def test_invalidation_label_is_source(self):
        assert TTLVerifier(0.0, 1.0).invalidation_label == "source"


class TestModificationTimeVerifier:
    def test_valid_while_mtime_unchanged(self):
        mtime = [42.0]
        verifier = ModificationTimeVerifier(lambda: mtime[0], 42.0)
        assert verifier.run(0.0, b"").verdict is Verdict.VALID

    def test_invalid_after_mtime_change(self):
        mtime = [42.0]
        verifier = ModificationTimeVerifier(lambda: mtime[0], 42.0)
        mtime[0] = 43.0
        assert verifier.run(0.0, b"").verdict is Verdict.INVALID

    def test_invalid_after_mtime_moves_back(self):
        # A restored backup: an older mtime is a different file too.
        verifier = ModificationTimeVerifier(lambda: 41.0, 42.0)
        assert verifier.run(0.0, b"").verdict is Verdict.INVALID

    def test_invalidation_label_is_source(self):
        verifier = ModificationTimeVerifier(lambda: 0.0, 0.0)
        assert verifier.invalidation_label == "source"


class TestPredicateVerifier:
    def test_predicate_receives_time_and_content(self):
        seen = []
        verifier = PredicateVerifier(
            lambda now, content: bool(seen.append((now, content))) or True
        )
        verifier.run(5.0, b"payload")
        assert seen == [(5.0, b"payload")]

    def test_false_predicate_invalidates(self):
        verifier = PredicateVerifier(lambda now, content: False)
        assert verifier.run(0.0, b"").verdict is Verdict.INVALID


class TestCompositeVerifier:
    def test_all_valid_is_valid(self):
        composite = CompositeVerifier(
            [AlwaysValidVerifier(), AlwaysValidVerifier()]
        )
        assert composite.run(0.0, b"").verdict is Verdict.VALID

    def test_one_invalid_part_invalidates(self):
        composite = CompositeVerifier(
            [AlwaysValidVerifier(), AlwaysInvalidVerifier()]
        )
        assert composite.run(0.0, b"").verdict is Verdict.INVALID

    def test_parts_execution_counts_increment(self):
        parts = [AlwaysValidVerifier(), AlwaysValidVerifier()]
        CompositeVerifier(parts).run(0.0, b"")
        assert all(part.executions == 1 for part in parts)

    def test_cost_sums_part_costs(self):
        parts = [TTLVerifier(0.0, 1.0, cost_ms=0.5), TTLVerifier(0.0, 1.0, cost_ms=0.2)]
        assert CompositeVerifier(parts).cost_ms == pytest.approx(0.7)

    def test_empty_composite_raises(self):
        with pytest.raises(VerifierError):
            CompositeVerifier([])

    def test_part_revalidation_demotes_to_invalid(self):
        threshold = ThresholdVerifier(
            observe=lambda: 10.0,
            baseline=1.0,
            threshold_fraction=0.1,
            patcher=lambda content, value: b"patched",
        )
        composite = CompositeVerifier([threshold])
        assert composite.run(0.0, b"").verdict is Verdict.INVALID


class TestThresholdVerifier:
    def test_within_threshold_is_valid(self):
        verifier = ThresholdVerifier(
            observe=lambda: 102.0, baseline=100.0, threshold_fraction=0.05
        )
        assert verifier.run(0.0, b"").verdict is Verdict.VALID

    def test_beyond_threshold_without_patcher_invalidates(self):
        verifier = ThresholdVerifier(
            observe=lambda: 120.0, baseline=100.0, threshold_fraction=0.05
        )
        assert verifier.run(0.0, b"").verdict is Verdict.INVALID

    def test_beyond_threshold_with_patcher_revalidates(self):
        verifier = ThresholdVerifier(
            observe=lambda: 120.0,
            baseline=100.0,
            threshold_fraction=0.05,
            patcher=lambda content, value: content + f"|{value}".encode(),
        )
        result = verifier.run(0.0, b"quote")
        assert result.verdict is Verdict.REVALIDATED
        assert result.patched_content == b"quote|120.0"

    def test_patching_rebaselines(self):
        value = [120.0]
        verifier = ThresholdVerifier(
            observe=lambda: value[0],
            baseline=100.0,
            threshold_fraction=0.05,
            patcher=lambda content, v: content,
        )
        assert verifier.run(0.0, b"").verdict is Verdict.REVALIDATED
        # Same value again: now within threshold of the new baseline.
        assert verifier.run(0.0, b"").verdict is Verdict.VALID

    def test_zero_baseline_uses_absolute_drift(self):
        verifier = ThresholdVerifier(
            observe=lambda: 0.0, baseline=0.0, threshold_fraction=0.5
        )
        assert verifier.run(0.0, b"").verdict is Verdict.VALID

    def test_a_drift_off_a_zero_baseline_invalidates(self):
        verifier = ThresholdVerifier(
            observe=lambda: 1.0, baseline=0.0, threshold_fraction=0.5
        )
        assert verifier.run(0.0, b"").verdict is Verdict.INVALID

    def test_a_drift_equal_to_the_threshold_stays_valid(self):
        # 5 from 4 is a drift of exactly 0.25: it does not exceed 0.25.
        verifier = ThresholdVerifier(
            observe=lambda: 5.0, baseline=4.0, threshold_fraction=0.25
        )
        assert verifier.run(0.0, b"").verdict is Verdict.VALID

    def test_negative_threshold_raises(self):
        with pytest.raises(VerifierError):
            ThresholdVerifier(lambda: 0.0, 0.0, -0.1)
