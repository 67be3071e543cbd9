"""Property-based tests for replacement policies.

Invariants that must hold for *any* policy under *any* workload: victims
come from the live table, the GDS inflation value never decreases, and a
cache driven by any policy never exceeds capacity.

The heap policies re-rank lazily: a touch pushes a heap item only when
its rank fell.  :class:`ReferenceHeapPolicy` is the machinery that
pushed on every touch, kept verbatim as the oracle, and
:data:`REFERENCE_GDS` the Greedy-Dual-Size priority it ran with; every
heap policy driven by both over the same op stream must pick the same
victims and reach the same inflation.
"""

from __future__ import annotations

import abc
import heapq
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import replacement
from repro.cache.entry import CacheEntry, EntryKey
from repro.cache.manager import DocumentCache
from repro.cache.replacement import (
    _COMPACT_MIN_HEAP,
    _COMPACT_STALE_FRACTION,
    GreedyDualSizePolicy,
    SizePolicy,
    _HeapPolicy,
    make_policy,
)
from repro.errors import CacheError
from repro.content.signature import sign
from repro.contract.cacheability import Cacheability
from repro.ids import DocumentId, UserId
from repro.placeless.kernel import PlacelessKernel
from repro.providers.memory import MemoryProvider

policy_names = st.sampled_from(
    ["gds", "gdsf", "gds-costblind", "gd", "lru", "lfu", "fifo", "size",
     "random", "rc"]
)


def make_entry(name: str, size: int, cost: float) -> CacheEntry:
    return CacheEntry(
        key=EntryKey(DocumentId(name), UserId("u")),
        signature=sign(name.encode()),
        size=size,
        cacheability=Cacheability.UNRESTRICTED,
        verifiers=[],
        replacement_cost_ms=cost,
        chain_signature=(),
        reference_id=None,
        created_at_ms=0.0,
        last_access_ms=0.0,
    )


entry_specs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=10_000),   # size
        st.floats(min_value=0.001, max_value=1000.0),  # cost
    ),
    min_size=1,
    max_size=25,
)


class TestPolicyInvariants:
    @given(policy_names, entry_specs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_victims_always_live_until_exhausted(self, name, specs, data):
        policy = make_policy(name)
        table = {}
        for index, (size, cost) in enumerate(specs):
            entry = make_entry(f"e{index}", size, cost)
            table[entry.key] = entry
            policy.on_insert(entry)
        # Random interleaved accesses.
        for _ in range(data.draw(st.integers(min_value=0, max_value=10))):
            key = data.draw(st.sampled_from(sorted(table, key=str)))
            table[key].access_count += 1
            policy.on_access(table[key])
        evicted = set()
        while table:
            victim = policy.select_victim(table)
            assert victim in table
            assert victim not in evicted
            evicted.add(victim)
            policy.on_remove(table.pop(victim))

    @given(entry_specs)
    @settings(max_examples=60, deadline=None)
    def test_gds_inflation_never_decreases(self, specs):
        policy = GreedyDualSizePolicy()
        table = {}
        for index, (size, cost) in enumerate(specs):
            entry = make_entry(f"e{index}", size, cost)
            table[entry.key] = entry
            policy.on_insert(entry)
        previous = policy.inflation
        while table:
            victim = policy.select_victim(table)
            del table[victim]
            assert policy.inflation >= previous
            previous = policy.inflation


class TestCacheCapacityUnderAnyPolicy:
    @given(
        policy_names,
        st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=40),
    )
    @settings(max_examples=25, deadline=None)
    def test_capacity_never_exceeded(self, name, accesses):
        kernel = PlacelessKernel()
        user = kernel.create_user("u")
        refs = [
            kernel.import_document(
                user,
                MemoryProvider(kernel.ctx, bytes([65 + i]) * (40 + i * 17)),
                f"d{i}",
            )
            for i in range(8)
        ]
        cache = DocumentCache(
            kernel, capacity_bytes=150, policy=make_policy(name)
        )
        for index in accesses:
            outcome = cache.read(refs[index])
            assert cache.used_bytes <= 150
            expected = bytes([65 + index]) * (40 + index * 17)
            assert outcome.content == expected


# -- the push-per-touch oracle ------------------------------------------------


class ReferenceHeapPolicy(_HeapPolicy):
    """The heap machinery lazy re-rank replaced, kept verbatim (its
    longer comments trimmed).

    Mixed in after a concrete policy (``class R(LRUPolicy,
    ReferenceHeapPolicy)``), so the policy's own ``priority`` and
    overrides stand and only the heap machinery is the old one.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, EntryKey]] = []
        self._serials = itertools.count()
        self._stamps: dict[EntryKey, int] = {}

    @abc.abstractmethod
    def priority(self, entry: CacheEntry) -> float:
        """Eviction priority; the minimum is evicted first."""

    def _push(self, entry: CacheEntry) -> None:
        stamp = next(self._serials)
        self._stamps[entry.key] = stamp
        heapq.heappush(self._heap, (self.priority(entry), stamp, entry.key))
        self._maybe_compact()

    def on_insert(self, entry: CacheEntry) -> None:
        self._push(entry)

    def on_access(self, entry: CacheEntry) -> None:
        self._push(entry)

    def on_remove(self, entry: CacheEntry) -> None:
        # The entry's current heap item (if any) just went stale; only
        # the bookkeeping is updated — the item itself is lazily
        # deleted at pop time or swept by compaction.
        self._stamps.pop(entry.key, None)

    def select_victim(
        self,
        entries: dict[EntryKey, CacheEntry],
        protect: EntryKey | None = None,
    ) -> EntryKey:
        while self._heap:
            priority, stamp, key = heapq.heappop(self._heap)
            entry = entries.get(key)
            if entry is None or self._stamps.get(key) != stamp:
                continue  # stale heap item
            if entry.pinned or key == protect:
                self._stamps.pop(key, None)
                continue
            self._stamps.pop(key, None)
            self._on_evict(priority)
            return key
        raise CacheError("no evictable entries")

    @property
    def stale_items(self) -> int:
        """Heap items whose (key, stamp) is no longer current."""
        return len(self._heap) - len(self._stamps)

    def _maybe_compact(self) -> None:
        heap = self._heap
        if len(heap) < _COMPACT_MIN_HEAP:
            return
        if len(heap) - len(self._stamps) <= _COMPACT_STALE_FRACTION * len(heap):
            return
        stamps = self._stamps
        self._heap = [
            item for item in heap if stamps.get(item[2]) == item[1]
        ]
        heapq.heapify(self._heap)


def _reference_cost(self, entry: CacheEntry) -> float:
    if self.cost_source == "uniform":
        return 1.0
    return max(entry.replacement_cost_ms, 1e-9)


def _reference_gds_priority(self, entry: CacheEntry) -> float:
    frequency = entry.access_count if self.frequency_aware else 1
    size = max(entry.size, 1)
    return self.inflation + frequency * self._cost(entry) / size


#: The Greedy-Dual-Size priority as it was (a cost frame, two ``max``).
REFERENCE_GDS = {"_cost": _reference_cost, "priority": _reference_gds_priority}


def _reference_size_on_access(self, entry: CacheEntry) -> None:
    # Pushed again only when the entry's size moved since its held item
    # (a revalidation resized it) or it holds none (passed over while
    # pinned): a plain hit keeps its rank and its stamp.
    stamp = self._stamps.get(entry.key)
    held = next(
        (item[0] for item in self._heap
         if item[2] == entry.key and item[1] == stamp),
        None,
    )
    if held != self.priority(entry):
        self._push(entry)


#: SIZE's access rule, on the push-per-touch machinery.
REFERENCE_SIZE = {"on_access": _reference_size_on_access}

HEAP_POLICIES = [
    "gds", "gdsf", "gds-costblind", "gd", "lru", "lfu", "fifo", "size", "rc",
]


def reference_policy(name: str) -> _HeapPolicy:
    """*name*'s policy running on :class:`ReferenceHeapPolicy`."""
    policy = make_policy(name)
    cls = type(policy)
    overrides = {
        GreedyDualSizePolicy: REFERENCE_GDS, SizePolicy: REFERENCE_SIZE,
    }
    policy.__class__ = type(
        f"Reference{cls.__name__}", (cls, ReferenceHeapPolicy),
        overrides.get(cls, {}),
    )
    return policy


#: ``(op, key index, size, cost)`` rows; ``key index`` picks among the
#: live keys (``insert`` mints a new one).
ops = st.lists(
    st.tuples(
        st.sampled_from([
            "insert", "insert", "access", "access", "access", "access",
            "remove", "reinstall", "pin", "pin", "evict", "protect",
            "protect",
        ]),
        st.integers(min_value=0, max_value=63),
        st.sampled_from([0, 1, 7, 100, 100, 4096]),
        st.sampled_from([0.0, 1e-12, 0.5, 1.0, 1.0, 3.25, 250.0]),
    ),
    max_size=120,
)


class TestLazyReRankMatchesPushPerTouch:
    @pytest.mark.parametrize("name", HEAP_POLICIES)
    @given(stream=ops, access_after_protect=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_same_victims_and_inflation(
        self, name, stream, access_after_protect
    ):
        with pytest.MonkeyPatch.context() as patch:
            # Small enough that the streams compact, on both sides.
            patch.setattr(replacement, "_COMPACT_MIN_HEAP", 8)
            patch.setitem(globals(), "_COMPACT_MIN_HEAP", 8)
            self._drive(name, stream, access_after_protect)

    @staticmethod
    def _drive(name, stream, access_after_protect) -> None:
        lazy, eager = make_policy(name), reference_policy(name)
        if name == "rc":
            lazy.DECAY_INTERVAL = eager.DECAY_INTERVAL = 3
        table: dict[EntryKey, CacheEntry] = {}
        minted = itertools.count()

        def live(index: int) -> EntryKey | None:
            keys = list(table)
            return keys[index % len(keys)] if keys else None

        def victim(policy, protect=None):
            try:
                return policy.select_victim(table, protect=protect)
            except CacheError:
                return None

        for op, index, size, cost in stream:
            key = live(index)
            if op == "insert" or key is None:
                entry = make_entry(f"k{next(minted)}", size, cost)
                table[entry.key] = entry
                lazy.on_insert(entry)
                eager.on_insert(entry)
            elif op == "access":
                table[key].access_count += 1
                lazy.on_access(table[key])
                eager.on_access(table[key])
            elif op in ("remove", "reinstall"):
                gone = table.pop(key)
                lazy.on_remove(gone)
                eager.on_remove(gone)
                if op == "reinstall":  # the same key, a new entry
                    entry = make_entry(key.document_id.value, size, cost)
                    table[key] = entry
                    lazy.on_insert(entry)
                    eager.on_insert(entry)
            elif op == "pin":
                table[key].pinned = not table[key].pinned
            elif op == "evict":
                chosen = victim(lazy)
                assert chosen == victim(eager)
                if chosen is not None:
                    gone = table.pop(chosen)
                    lazy.on_remove(gone)
                    eager.on_remove(gone)
            else:  # protect: a revalidation patched *key*'s bytes
                entry = table[key]
                entry.size, entry.replacement_cost_ms = size, cost
                held = eager._stamps.get(key)
                held_item = next(
                    (item for item in eager._heap
                     if item[2] == key and item[1] == held),
                    None,
                )
                chosen = victim(lazy, protect=key)
                assert chosen == victim(eager, protect=key)
                # The old code dropped the protected item; put it back
                # the way the fixed ``select_victim`` does.
                if (held_item is not None and key not in eager._stamps
                        and not entry.pinned):
                    heapq.heappush(eager._heap, held_item)
                    eager._stamps[key] = held
                if chosen is not None:
                    gone = table.pop(chosen)
                    lazy.on_remove(gone)
                    eager.on_remove(gone)
                if access_after_protect:
                    entry.access_count += 1
                    lazy.on_access(entry)
                    eager.on_access(entry)
            assert getattr(lazy, "inflation", 0.0) == getattr(
                eager, "inflation", 0.0
            )
        # Drain: the rest of the victim sequence agrees too.
        while True:
            chosen = victim(lazy)
            assert chosen == victim(eager)
            if chosen is None:
                break
            gone = table.pop(chosen)
            lazy.on_remove(gone)
            eager.on_remove(gone)
            assert getattr(lazy, "inflation", 0.0) == getattr(
                eager, "inflation", 0.0
            )
