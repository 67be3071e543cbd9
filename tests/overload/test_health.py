"""Unit tests for the shard health tracker and replica placement."""

from __future__ import annotations

import pytest

from repro.cache.entry import EntryKey
from repro.cluster.placement import HashRingPolicy
from repro.errors import WorkloadError
from repro.ids import DocumentId, UserId
from repro.overload.health import (
    RECOVERY_SUCCESSES,
    UNHEALTHY_ERROR_THRESHOLD,
    HealthTracker,
)


def _key(n: int) -> EntryKey:
    return EntryKey(
        document_id=DocumentId(f"doc-{n}"), user_id=UserId(f"user-{n}")
    )


class TestHealthTracker:
    def _tracker(self):
        # The feeds index a tracked shard's record, as the cluster's
        # shards are tracked when built.
        tracker = HealthTracker(min_samples=2)
        for name in ("s0", "slow", "fast", "gray", "down"):
            tracker.track(name)
        return tracker

    def test_only_fetch_path_reads_feed_latency(self):
        tracker = self._tracker()
        tracker.observe_read("s0", 100.0, fetched=False)
        tracker.observe_read("s0", 100.0, fetched=False)
        health = tracker.track("s0")
        assert health.reads == 2
        assert health.fetches == 0
        assert health.ewma_ms is None
        tracker.observe_read("s0", 10.0, fetched=True)
        assert health.fetches == 1
        assert health.ewma_ms == 10.0

    def test_gray_needs_samples_on_both_sides(self):
        tracker = self._tracker()
        tracker.observe_read("slow", 90.0)
        tracker.observe_read("slow", 90.0)
        # No healthy peer floor yet: cannot be gray.
        assert not tracker.is_gray("slow")
        tracker.observe_read("fast", 10.0)
        assert not tracker.is_gray("slow")  # peer under min_samples
        tracker.observe_read("fast", 10.0)
        assert tracker.is_gray("slow")      # 90 >= 3 x 10
        assert not tracker.is_gray("fast")

    def test_error_streak_fails_over_and_successes_recover(self):
        tracker = self._tracker()
        for _ in range(UNHEALTHY_ERROR_THRESHOLD - 1):
            tracker.observe_error("s0")
        assert not tracker.is_unhealthy("s0")
        tracker.observe_error("s0")
        assert tracker.is_unhealthy("s0")
        for _ in range(RECOVERY_SUCCESSES - 1):
            tracker.observe_read("s0", 5.0)
        assert tracker.is_unhealthy("s0")
        tracker.observe_read("s0", 5.0)
        assert not tracker.is_unhealthy("s0")
        assert tracker.unhealthy == set()

    def test_a_success_resets_the_error_streak(self):
        tracker = self._tracker()
        for _ in range(UNHEALTHY_ERROR_THRESHOLD - 1):
            tracker.observe_error("s0")
        tracker.observe_read("s0", 5.0)
        tracker.observe_error("s0")
        assert not tracker.is_unhealthy("s0")

    def test_p95_healthy_pools_only_clean_shards(self):
        tracker = self._tracker()
        for _ in range(4):
            tracker.observe_read("fast", 10.0)
            tracker.observe_read("gray", 100.0)
        assert tracker.is_gray("gray")
        assert tracker.p95_healthy_ms() == 10.0
        assert tracker.p95_healthy_ms(excluding="fast") is None

    def test_snapshot_reports_states_and_forget_drops(self):
        tracker = self._tracker()
        for _ in range(2):
            tracker.observe_read("fast", 10.0)
            tracker.observe_read("gray", 100.0)
        for _ in range(UNHEALTHY_ERROR_THRESHOLD):
            tracker.observe_error("down")
        table = tracker.snapshot()
        assert table["fast"]["state"] == "healthy"
        assert table["gray"]["state"] == "gray"
        assert table["down"]["state"] == "unhealthy"
        assert table["fast"]["fetches"] == 2
        tracker.forget("gray")
        assert "gray" not in tracker.snapshot()

    def test_constructor_validation(self):
        with pytest.raises(WorkloadError):
            HealthTracker(min_samples=0)


class TestReplicaPlacement:
    def test_replica_differs_from_primary_and_is_deterministic(self):
        ring = HashRingPolicy(["s0", "s1", "s2"])
        for n in range(50):
            key = _key(n)
            primary = ring.place(key)
            replica = ring.replica_for(key, primary)
            assert replica is not None
            assert replica != primary
            assert replica == ring.replica_for(key, primary)

    def test_single_shard_ring_has_no_replica(self):
        ring = HashRingPolicy(["only"])
        assert ring.replica_for(_key(1), "only") is None

    def test_policies_delegate_to_the_ring(self):
        key = _key(7)
        hash_policy = HashRingPolicy(["s0", "s1"])
        primary = hash_policy.place(key)
        assert hash_policy.replica_for(key, primary) != primary
