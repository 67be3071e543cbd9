"""Per-read allocation budget on the hit path.

The A20 hot-path work turned steady-state hits into a near-allocation-
free loop: interned keys, memoized signatures, O(1) stat accumulation,
and — since the hit prefix became the one hit path — no
``ReadContext``, deadline budget or generator on a hit in *any*
configuration.  This test pins the budget so a regression (say, a new
per-read dict or closure on the hit path) fails loudly in tier 1 rather
than showing up later as a throughput drop in A20.

The probe counts *net* heap blocks per read with the collector
disabled, after a warmup that populates every cache and memo the
steady state relies on.
"""

from __future__ import annotations

import itertools

import pytest

from repro.bench.perf import allocation_probe, peak_rss_kb
from repro.cache.manager import DocumentCache
from repro.cache.policies import OverloadPolicy
from repro.placeless.kernel import PlacelessKernel
from repro.workload.documents import CorpusSpec, build_corpus

#: Net heap blocks allowed per steady-state hit.  The path currently
#: sits well under this; the headroom absorbs interpreter-version noise
#: without letting a stray per-read allocation site slip in.
HIT_ALLOCATION_BUDGET = 40.0

#: The configurations that used to fall off the fast lane: the default
#: cache, one with a subscriber attached after construction, and the
#: ``seams_on`` benchmark's overload setting (deadlines on — a hit
#: builds no ``DeadlineBudget``).
_CONFIGURATIONS = {
    "default": {},
    "late-subscriber": {},
    "overload": {
        "overload_policy": OverloadPolicy(shedding=False, hedging=False),
    },
}


def _warm_cache(n_documents: int = 16, **cache_kwargs):
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    corpus = build_corpus(
        kernel, owner, CorpusSpec(n_documents=n_documents, seed=13)
    )
    cache = DocumentCache(kernel, capacity_bytes=1 << 28, **cache_kwargs)
    for document in corpus:
        cache.read(document.reference)
    return cache, corpus


@pytest.mark.parametrize("configuration", list(_CONFIGURATIONS))
def test_hit_stays_under_allocation_budget(configuration):
    cache, corpus = _warm_cache(**_CONFIGURATIONS[configuration])
    if configuration == "late-subscriber":
        cache.instrumentation.subscribe(lambda event: None)
    cycle = itertools.cycle([document.reference for document in corpus])

    def one_hit() -> None:
        cache.read(next(cycle))

    blocks = allocation_probe(one_hit, iterations=256, warmup=64)
    hits_before = cache.stats.hits
    cache.read(corpus[0].reference)
    assert cache.stats.hits == hits_before + 1  # the loop measured hits
    assert blocks <= HIT_ALLOCATION_BUDGET, (
        f"{configuration} hit allocates {blocks:.1f} blocks/read "
        f"(budget {HIT_ALLOCATION_BUDGET})"
    )


def test_peak_rss_helper():
    assert peak_rss_kb() > 0.0
