"""The durable tier must not move observable bytes.

Two equivalence pins:

* **storage off** — the default wiring (no storage policy) reproduces
  every golden snapshot key by key: adding the L2 stage to the pipeline
  must be invisible when the tier is absent;
* **storage on** — over an eviction-heavy workload with out-of-band
  source mutations, every read returns byte-identical content with the
  tier on and off.  The tier may change *where* bytes come from
  (promote vs refetch) and what they cost, never what they are.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.manager import DocumentCache
from repro.cache.policies import DefaultStoragePolicy
from repro.placeless.kernel import PlacelessKernel
from repro.providers.memory import MemoryProvider
from tests.property.test_pipeline_equivalence import (
    _CONFIGS,
    moved,
    run_seeded_workload,
)

N_DOCS = 8
N_OPS = 160


def _run_workload(storage: bool, seed: int) -> list[bytes]:
    """One deterministic read/mutate trace; returns each read's bytes."""
    kernel = PlacelessKernel()
    user = kernel.create_user("alice")
    providers, references = [], []
    for i in range(N_DOCS):
        content = f"doc-{i:02d}:".encode() + bytes(range(180))
        provider = MemoryProvider(kernel.ctx, content)
        providers.append(provider)
        references.append(kernel.import_document(user, provider, f"d{i}"))
    size = len(providers[0].peek())
    cache = DocumentCache(
        kernel,
        capacity_bytes=3 * size,  # far below the working set: evictions
        storage_policy=DefaultStoragePolicy() if storage else None,
        name=f"golden-l2-{'on' if storage else 'off'}",
    )
    rng = random.Random(seed)
    served: list[bytes] = []
    try:
        for op in range(N_OPS):
            index = rng.randrange(N_DOCS)
            if rng.random() < 0.08:
                # Out-of-band mutation: the provider changes under the
                # cache with no notification.  Both arms must converge
                # on the new bytes the same way.
                providers[index].store(
                    f"mutated-{index}-at-op-{op}".encode()
                )
            kernel.ctx.clock.advance(10.0)
            served.append(cache.read(references[index]).content)
    finally:
        cache.shutdown()
    return served


class TestStorageOffIsInvisible:
    """No storage policy ⇒ the golden snapshots reproduce exactly."""

    @pytest.mark.parametrize("name", sorted(_CONFIGS))
    def test_pinned_digest_reproduces(self, name):
        # A key that moved: the L2 stage changed observable behaviour
        # with storage disabled.
        assert moved(name, run_seeded_workload(**_CONFIGS[name])) == []


class TestStorageOnServesIdenticalBytes:
    """The tier changes provenance and cost, never content."""

    @pytest.mark.parametrize("seed", (3, 17, 29))
    def test_l2_on_off_byte_equivalence(self, seed):
        assert _run_workload(False, seed) == _run_workload(True, seed)
