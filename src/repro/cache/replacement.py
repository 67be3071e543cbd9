"""Replacement policies: cost-aware Greedy-Dual-Size and baselines.

"The replacement policy used in the implementation is a version of the
Greedy-Dual-Size algorithm [1], based on the replacement cost supplied by
the properties and bit-provider, as well as on the size of the document
and the access frequency of the document at that cache." (§4)

:class:`GreedyDualSizePolicy` implements Cao & Irani's algorithm with the
paper's two extensions selectable:

* the cost term is the *read-path replacement cost* (bit-provider
  retrieval + property execution times + QoS inflation) rather than a
  uniform constant — disable with ``cost_source="uniform"`` for the
  cost-blind ablation;
* the access-frequency extension (GDSF) multiplies the cost term by the
  entry's access count — enable with ``frequency_aware=True``.

Baselines for the A2 ablation: LRU, LFU, FIFO, SIZE (evict largest),
Greedy-Dual (cost-aware but size-blind) and RANDOM.
:class:`ReinforcedCounterPolicy` (the A20 shootout's fourth arm) turns
the reinforced counters of arXiv:1501.03446 — capped per-entry counters
with deterministic epoch decay — into a replacement policy.

All heap-backed policies re-rank lazily: a touch records its entry's
new heap item but pushes it only if it ranks earlier than the one held
(``rc`` decay, a revalidation that grew the entry; a GDS, GDSF, GD, LRU
or LFU hit never does), and an older item re-pushes its key's current
one when it surfaces at eviction.  Every live key keeps a heap item no
later than its current one, so the first current item popped is the
victim a push per touch would pick, tie-break by stamp included.  Dead
items (every insert/remove cycle leaves one) are swept by rebuilding
the heap from the current items once they dominate it.

Replacement is the one cache decision with several implementations;
:mod:`repro.cache.policies` re-exports :class:`ReplacementPolicy` beside
the seam configurations so they share one import surface, and
``CacheCore.evict_to_capacity`` is the sole call site.
"""

from __future__ import annotations

import abc
import heapq
import itertools
import random

from repro.cache.entry import CacheEntry, EntryKey
from repro.errors import CacheError

__all__ = [
    "ReplacementPolicy",
    "GreedyDualSizePolicy",
    "GreedyDualPolicy",
    "LRUPolicy",
    "LFUPolicy",
    "FIFOPolicy",
    "SizePolicy",
    "RandomPolicy",
    "ReinforcedCounterPolicy",
    "make_policy",
]

#: Heaps smaller than this never compact — the rebuild would cost more
#: than the garbage it reclaims.
_COMPACT_MIN_HEAP = 1024
#: Compact when stale items exceed this fraction of the heap.
_COMPACT_STALE_FRACTION = 0.5


class ReplacementPolicy(abc.ABC):
    """Interface the cache manager drives.

    The manager calls :meth:`on_insert` when an entry is filled,
    :meth:`on_access` on every hit, :meth:`on_remove` when an entry
    leaves the cache for any reason, and :meth:`select_victim` when it
    needs space.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def on_insert(self, entry: CacheEntry) -> None:
        """Register a newly-filled entry."""

    @abc.abstractmethod
    def on_access(self, entry: CacheEntry) -> None:
        """Record a hit on *entry*."""

    def on_remove(self, entry: CacheEntry) -> None:
        """Forget *entry* (default: nothing to forget)."""

    @abc.abstractmethod
    def select_victim(
        self,
        entries: dict[EntryKey, CacheEntry],
        protect: EntryKey | None = None,
    ) -> EntryKey:
        """Choose the entry to evict from the live *entries*.

        *entries* is the cache's full entry table; the policy itself must
        never return *protect* (the key the caller is mid-refresh on) or
        a pinned entry.  Passing the full table lets heap policies stay
        O(log n) per victim instead of forcing the caller to rebuild a
        filtered candidate dict — the scan that dominated eviction at
        10^5+ entries.
        """


class _HeapPolicy(ReplacementPolicy):
    """Shared heap-with-lazy-re-rank machinery.

    Subclasses implement :meth:`priority` — lower evicts first.

    A stamp is policy-wide (one counter for every touch, which also
    breaks priority ties in touch order), never per entry: an entry
    re-installed under a key an *invalidated* incarnation once held
    must not share ``(key, stamp)`` with the heap items that one left
    behind, or a dead priority is accepted as current and compaction
    can never drop it.

    ``_stamps`` holds each live key's current heap item: the check at
    pop time is identity with it, and compaction keeps only those.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, EntryKey]] = []
        self._serials = itertools.count()
        self._stamps: dict[EntryKey, tuple[float, int, EntryKey]] = {}

    @abc.abstractmethod
    def priority(self, entry: CacheEntry) -> float:
        """Eviction priority; the minimum is evicted first."""

    def on_insert(self, entry: CacheEntry) -> None:
        key = entry.key
        item = (self.priority(entry), next(self._serials), key)
        stamps = self._stamps
        # A key held with a rank that did not fall needs no push: the
        # held item, or an earlier one, is in the heap and re-ranks when
        # it surfaces.
        rank_fell = key not in stamps or item < stamps[key]
        stamps[key] = item
        if rank_fell:
            heapq.heappush(self._heap, item)
            self._maybe_compact()

    #: A hit re-ranks its entry the way an insert ranks it.
    on_access = on_insert

    def on_remove(self, entry: CacheEntry) -> None:
        # Its heap items are skipped at pop time or swept by compaction.
        self._stamps.pop(entry.key, None)

    def select_victim(
        self,
        entries: dict[EntryKey, CacheEntry],
        protect: EntryKey | None = None,
    ) -> EntryKey:
        heap, stamps, held = self._heap, self._stamps, None
        try:
            while heap:
                item = heapq.heappop(heap)
                key = item[2]
                current = stamps.get(key)
                if current is not item:
                    # Superseded or dead; a current item that ranks
                    # earlier than this one is in the heap already.
                    if current is not None and item < current:
                        heapq.heappush(heap, current)
                    continue
                entry = entries.get(key)
                if entry is None:
                    continue
                if key == protect and not entry.pinned:
                    # Mid-refresh (``replace_content``): pushed back once
                    # the victim is chosen, as FIFO and SIZE never push
                    # on the access that follows.
                    held = item
                    continue
                del stamps[key]
                if not entry.pinned:  # else out until its next access
                    self._on_evict(item[0])
                    return key
            raise CacheError("no evictable entries")
        finally:
            if held is not None:
                heapq.heappush(heap, held)

    def _on_evict(self, victim_priority: float) -> None:
        """Hook for policies (GDS) that age on eviction."""

    def _maybe_compact(self) -> None:
        """Rebuild the heap from the current items when the rest (one
        per insert/remove cycle under churn) dominate it.  Victim order
        is unchanged: heap tuples are totally ordered by their serials,
        so pop order depends on the surviving set, not array layout."""
        heap = self._heap
        if len(heap) < _COMPACT_MIN_HEAP:
            return
        if len(heap) - len(self._stamps) <= _COMPACT_STALE_FRACTION * len(heap):
            return
        self._heap = list(self._stamps.values())
        heapq.heapify(self._heap)


class GreedyDualSizePolicy(_HeapPolicy):
    """Greedy-Dual-Size [Cao & Irani 1997] with the paper's extensions.

    H(p) = L + frequency(p) * cost(p) / size(p), where L is the global
    inflation value set to the H of the last victim.

    Parameters
    ----------
    frequency_aware:
        Multiply the cost term by the access count (the GDSF variant the
        paper's "access frequency" remark implies).
    cost_source:
        ``"path"`` uses the read-path replacement cost the properties and
        bit-provider supplied (the paper's design); ``"uniform"`` uses a
        constant 1 (cost-blind, reduces GDS to a size/recency policy) —
        the A2 ablation's foil.
    """

    def __init__(
        self, frequency_aware: bool = False, cost_source: str = "path"
    ) -> None:
        super().__init__()
        if cost_source not in ("path", "uniform"):
            raise CacheError(f"unknown cost_source: {cost_source!r}")
        self.frequency_aware = frequency_aware
        self.cost_source = cost_source
        self.inflation = 0.0
        self.name = "gdsf" if frequency_aware else "gds"
        if cost_source == "uniform":
            self.name += "-costblind"

    def priority(self, entry: CacheEntry) -> float:
        # One frame: ``max(x, floor)`` inline, the same value NaN included.
        cost = (1.0 if self.cost_source == "uniform"
                else entry.replacement_cost_ms)
        cost = 1e-9 if cost < 1e-9 else cost
        size = 1 if entry.size < 1 else entry.size
        frequency = entry.access_count if self.frequency_aware else 1
        return self.inflation + frequency * cost / size

    def _on_evict(self, victim_priority: float) -> None:
        # Aging: future insertions start from the evicted H value.
        self.inflation = max(self.inflation, victim_priority)


class GreedyDualPolicy(_HeapPolicy):
    """Greedy-Dual GD(1): cost-aware but size-blind (H = L + cost)."""

    name = "gd"

    def __init__(self) -> None:
        super().__init__()
        self.inflation = 0.0

    def priority(self, entry: CacheEntry) -> float:
        return self.inflation + max(entry.replacement_cost_ms, 1e-9)

    def _on_evict(self, victim_priority: float) -> None:
        self.inflation = max(self.inflation, victim_priority)


class LRUPolicy(_HeapPolicy):
    """Evict the least recently used entry."""

    name = "lru"

    def __init__(self) -> None:
        super().__init__()
        self._tick = itertools.count()

    def priority(self, entry: CacheEntry) -> float:
        return float(next(self._tick))


class LFUPolicy(_HeapPolicy):
    """Evict the least frequently used entry (ties by heap order)."""

    name = "lfu"

    def priority(self, entry: CacheEntry) -> float:
        return float(entry.access_count)


class FIFOPolicy(_HeapPolicy):
    """Evict the oldest-inserted entry; accesses do not refresh."""

    name = "fifo"

    def __init__(self) -> None:
        super().__init__()
        self._tick = itertools.count()

    def priority(self, entry: CacheEntry) -> float:
        return float(next(self._tick))

    def on_access(self, entry: CacheEntry) -> None:
        # FIFO ignores accesses; keep the original insertion priority.
        pass


class SizePolicy(_HeapPolicy):
    """Evict the largest entry first (maximises object hit count)."""

    name = "size"

    def priority(self, entry: CacheEntry) -> float:
        return -float(entry.size)

    def on_access(self, entry: CacheEntry) -> None:
        # A hit keeps its rank; a revalidation that resized it re-ranks.
        held = self._stamps.get(entry.key)
        if held is None or held[0] != -float(entry.size):
            self.on_insert(entry)


class ReinforcedCounterPolicy(_HeapPolicy):
    """Capped reinforcement counters with deterministic epoch decay.

    Reinforced counters as a replacement policy (arXiv:1501.03446's
    multilevel variant, there a content-placement rule): each
    access bumps a per-entry counter capped at :attr:`COUNTER_CAP`;
    every :attr:`DECAY_INTERVAL` accesses (policy-wide) opens a new
    epoch that halves every counter.  The halving is applied lazily —
    an entry's effective counter is ``counter >> (epoch - entry_epoch)``
    — so decay is O(1) per access rather than a sweep over 10^6 entries.  The heap
    victim is the minimum effective counter, ties broken by push order
    (older push evicts first), which approximates
    least-reinforced-recently under churn.
    """

    name = "rc"
    #: Ceiling on an entry's reinforcement counter.
    COUNTER_CAP = 8
    #: Accesses (policy-wide) per decay epoch.
    DECAY_INTERVAL = 256

    def __init__(self) -> None:
        super().__init__()
        self._epoch = 0
        self._accesses = 0
        #: ``key → (counter, epoch of its last bump)`` per live entry.
        self._counters: dict[EntryKey, tuple[int, int]] = {}

    def _counter_of(self, entry: CacheEntry) -> int:
        counter, born = self._counters.get(entry.key, (0, self._epoch))
        return counter >> (self._epoch - born)

    def _note_access(self, entry: CacheEntry) -> None:
        self._accesses += 1
        if self._accesses % self.DECAY_INTERVAL == 0:
            self._epoch += 1
        counter = min(self._counter_of(entry) + 1, self.COUNTER_CAP)
        self._counters[entry.key] = (counter, self._epoch)

    def priority(self, entry: CacheEntry) -> float:
        return float(self._counter_of(entry))

    def on_insert(self, entry: CacheEntry) -> None:
        self._note_access(entry)
        super().on_insert(entry)

    on_access = on_insert

    def on_remove(self, entry: CacheEntry) -> None:
        super().on_remove(entry)
        self._counters.pop(entry.key, None)


class RandomPolicy(ReplacementPolicy):
    """Evict a uniformly random entry (seeded; the zero-information baseline)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def on_insert(self, entry: CacheEntry) -> None:
        pass

    def on_access(self, entry: CacheEntry) -> None:
        pass

    def select_victim(
        self,
        entries: dict[EntryKey, CacheEntry],
        protect: EntryKey | None = None,
    ) -> EntryKey:
        # Filter exactly as the caller's historical candidate dict did,
        # so the sampled population (and RNG draw sequence) is unchanged.
        keys = sorted(
            (
                key
                for key, entry in entries.items()
                if key != protect and not entry.pinned
            ),
            key=str,  # deterministic order before sampling
        )
        if not keys:
            raise CacheError("no evictable entries")
        return keys[self._rng.randrange(len(keys))]


def make_policy(name: str, seed: int = 0) -> ReplacementPolicy:
    """Factory mapping policy names (as used in benches) to instances."""
    factories = {
        "gds": lambda: GreedyDualSizePolicy(),
        "gdsf": lambda: GreedyDualSizePolicy(frequency_aware=True),
        "gds-costblind": lambda: GreedyDualSizePolicy(cost_source="uniform"),
        "gd": GreedyDualPolicy,
        "lru": LRUPolicy,
        "lfu": LFUPolicy,
        "fifo": FIFOPolicy,
        "size": SizePolicy,
        "random": lambda: RandomPolicy(seed),
        "rc": ReinforcedCounterPolicy,
    }
    try:
        return factories[name]()
    except KeyError:
        raise CacheError(f"unknown policy: {name!r}") from None
