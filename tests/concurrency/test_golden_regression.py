"""Changes to the read drivers must not move the golden digests.

The default configuration — lone reads driven inline, no concurrency
policy, coalescing off — has to reproduce the digests captured from the
pre-refactor monolithic cache bit-for-bit: same stats, same virtual
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
    GOLDEN_DIGESTS,
    digest,
    run_seeded_workload,
)


class TestSchedulerDefaults:
    """The default wiring is the golden-digest-safe regime."""

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
    """Every pinned digest reproduces bit-for-bit post-refactor."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_pinned_digest_reproduces(self, name):
        snapshot = run_seeded_workload(**_CONFIGS[name])
        assert digest(snapshot) == GOLDEN_DIGESTS[name], (
            f"golden digest {name!r} moved: the driver refactor "
            "changed observable sequential behaviour"
        )
