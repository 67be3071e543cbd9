"""Targeted tests for the two shared structures interleaved
batches exposed: the instrumentation bus's subscriber collection and
the transform memo's record table.

Cooperative concurrency means no data tears, but interleaving at
suspension points still breaks the old assumptions: a subscriber list
mutated while an emit iterates it skips deliveries, and a memo discard
decided before a suspension can land after another read re-recorded the
same key.  DESIGN.md §3.3 documents the disciplines; these tests pin
them.
"""

from __future__ import annotations

from repro.cache.instrumentation import InstrumentationBus, StageEvent
from repro.cache.manager import DocumentCache
from repro.cache.memo import ChainFingerprint, MemoRecord, TransformMemo
from repro.cache.policies import DefaultConcurrencyPolicy, DefaultMemoPolicy
from repro.content.signature import sign
from repro.placeless.kernel import PlacelessKernel
from repro.providers.memory import MemoryProvider
from repro.sim.context import SimContext


def _event(outcome="probe"):
    return StageEvent(stage="test", outcome=outcome)


class TestInstrumentationBusCopyOnWrite:
    """Subscription changes never corrupt an in-progress emit."""

    def test_unsubscribe_during_emit_delivers_to_the_full_snapshot(self):
        bus = InstrumentationBus()
        seen: list[str] = []

        def first(event):
            seen.append("first")
            # The classic mutated-during-iteration bug: removing the
            # *current* subscriber mid-emit made list iteration skip
            # the next one.  The copy-on-write tuple must not.
            bus.unsubscribe(first)

        bus.subscribe(first)
        bus.subscribe(lambda event: seen.append("second"))
        bus.subscribe(lambda event: seen.append("third"))
        bus.emit(_event())
        assert seen == ["first", "second", "third"]
        seen.clear()
        bus.emit(_event())
        assert seen == ["second", "third"]

    def test_subscribe_during_emit_takes_effect_next_emit(self):
        bus = InstrumentationBus()
        seen: list[str] = []

        def late(event):
            seen.append("late")

        def eager(event):
            seen.append("eager")
            bus.unsubscribe(eager)
            bus.subscribe(late)

        bus.subscribe(eager)
        bus.emit(_event())
        assert seen == ["eager"]  # late not retroactively delivered
        bus.emit(_event())
        assert seen == ["eager", "late"]

    def test_unsubscribe_bound_method_matches_by_equality(self):
        bus = InstrumentationBus()
        sink: list = []
        bus.subscribe(sink.append)
        assert bus.has_subscribers
        bus.unsubscribe(sink.append)  # a *fresh* bound-method object
        assert not bus.has_subscribers

    def test_subscriber_detaching_mid_batch_misses_no_events(self):
        # The integration shape: a probe subscriber detaches itself on
        # the first coalesce event while a 8-way concurrent batch is
        # still emitting from interleaved reads.
        ctx = SimContext()
        kernel = PlacelessKernel(ctx)
        owner = kernel.create_user("owner")
        base = kernel.create_document(
            owner, MemoryProvider(ctx, b"race" * 32), "doc"
        )
        reference = kernel.space(owner).add_reference(base)
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20,
            concurrency_policy=DefaultConcurrencyPolicy(),
        )
        observed: list[str] = []

        def probe(event):
            if event.stage == "coalesce":
                observed.append(event.outcome)
                cache.instrumentation.unsubscribe(probe)

        cache.instrumentation.subscribe(probe)
        outcomes = cache.read_many([reference] * 8)
        # The probe saw exactly one event (then detached), the batch
        # completed unharmed, and the built-in projections — later in
        # the same subscriber tuple — kept counting everything.
        assert observed == ["led"]
        assert len(outcomes) == 8
        assert cache.concurrency_stats.follows == 7
        assert cache.stats.hits + cache.stats.misses == 8


class TestMemoDiscardIdentityGuard:
    """A stale discard must not drop a freshly re-recorded key."""

    @staticmethod
    def _record(content: bytes, output: bytes) -> MemoRecord:
        return MemoRecord(
            source_signature=sign(content),
            fingerprint=ChainFingerprint.compose(()),
            output_signature=sign(output),
            size=len(output),
        )

    def test_discard_of_superseded_record_is_a_no_op(self):
        memo = TransformMemo(capacity=8)
        stale = self._record(b"source", b"old output")
        memo.record(stale)
        fresh = self._record(b"source", b"new output")
        assert fresh.key == stale.key  # same (source, fingerprint) key
        memo.record(fresh)
        # The interleaving: a read resolved `stale`, suspended at a
        # seam, and resumes to discard it after another read recorded
        # `fresh` under the same key.
        memo.discard(stale)
        assert memo.lookup(*fresh.key) is fresh

    def test_discard_of_the_live_record_still_works(self):
        memo = TransformMemo(capacity=8)
        record = self._record(b"source", b"output")
        memo.record(record)
        memo.discard(record)
        assert memo.lookup(*record.key) is None
        memo.discard(record)  # idempotent
        assert len(memo) == 0

    def test_concurrent_batch_with_memo_keeps_table_consistent(self):
        ctx = SimContext()
        kernel = PlacelessKernel(ctx)
        owner = kernel.create_user("owner")
        base = kernel.create_document(
            owner, MemoryProvider(ctx, b"memo race" * 16), "doc"
        )
        references = [
            kernel.space(kernel.create_user(f"u{i}")).add_reference(base)
            for i in range(6)
        ]
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20,
            concurrency_policy=DefaultConcurrencyPolicy(),
            memo_policy=DefaultMemoPolicy(),
        )
        first = cache.read_many(references)
        # Mutate out of band: every memo record's source signature is
        # now stale, so the next batch re-probes, re-leads and
        # re-records without tripping the identity guard.
        base.provider.mutate_out_of_band(b"fresh bytes" * 16)
        cache.invalidate_document(base.document_id)
        second = cache.read_many(references)
        assert len({o.content for o in first}) == 1
        assert len({o.content for o in second}) == 1
        assert first[0].content != second[0].content
        assert len(cache.memo) >= 1
