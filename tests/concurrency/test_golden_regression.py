"""Changes to the read drivers must not move the golden snapshots.

The default configuration — lone reads driven inline, no concurrency
policy, coalescing off — has to reproduce the snapshots captured from
the pre-refactor monolithic cache key by key: same stats, same virtual
clock, same fault-injection trace.  This re-asserts the pins from
``tests/property/test_pipeline_equivalence.py`` inside the concurrency
tier, so a driver change that perturbs the sequential path fails
here even when only this tier runs, and additionally pins the *wiring*
defaults the equivalence suite takes for granted.
"""

from __future__ import annotations

import pytest

from repro.cache.manager import DocumentCache
from repro.cache.policies import ConcurrencyPolicy
from repro.placeless.kernel import PlacelessKernel
from repro.providers.memory import MemoryProvider
from tests.property.test_pipeline_equivalence import (
    _CONFIGS,
    moved,
    run_seeded_workload,
)


class TestSchedulerDefaults:
    """The default wiring is the golden-snapshot-safe regime."""

    def test_default_scheduler_is_sequential(self):
        """A lone ``read`` never opens a flight — not even on a cache
        that coalesces; the table only fills inside a batch."""
        kernel = PlacelessKernel()
        owner = kernel.create_user("owner")
        base = kernel.create_document(
            owner, MemoryProvider(kernel.ctx, b"lone read"), "doc"
        )
        reference = kernel.space(owner).add_reference(base)
        cache = DocumentCache(
            kernel, capacity_bytes=1024,
            concurrency_policy=ConcurrencyPolicy(coalesce=True),
        )
        assert cache.read(reference).disposition == "miss"
        assert cache.read(reference).disposition == "hit"
        assert cache.concurrency_stats.flights_led == 0
        assert len(cache.core.flights) == 0
        cache.invalidate_document(base.document_id)
        cache.read_many([reference, reference])
        assert cache.concurrency_stats.flights_led == 1
        assert len(cache.core.flights) == 0

    def test_no_concurrency_policy_by_default(self):
        cache = DocumentCache(PlacelessKernel(), capacity_bytes=1024)
        assert cache.core.concurrency is None
        assert cache.concurrency_stats is None
        assert len(cache._core.flights) == 0


class TestGoldenDigestsUnmoved:
    """Every pinned snapshot reproduces key by key post-refactor."""

    @pytest.mark.parametrize("name", sorted(_CONFIGS))
    def test_pinned_digest_reproduces(self, name):
        # A key that moved: a driver change moved observable sequential
        # behaviour.
        assert moved(name, run_seeded_workload(**_CONFIGS[name])) == []
