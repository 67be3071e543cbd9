"""Property tests for the consistency-recovery layer.

Two invariants the recovery design promises, checked over random
schedules:

* **journal durability** — for any interleaving of acknowledged
  write-backs, partial flushes, crashes and (possibly repeated)
  restarts, every acknowledged write is eventually byte-identical at
  its provider after a final restart + flush, and no write is flushed
  twice (replay is idempotent);
* **resync idempotency** — running anti-entropy resync twice in a row
  repairs everything the first time and nothing the second, for any mix
  of out-of-band source changes and property-chain edits, and leaves
  the cache agreeing with a fresh kernel read.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.cache.entry import EntryKey
from repro.cache.manager import DocumentCache
from repro.cache.pipeline import WriteMode
from repro.cache.policies import DefaultRecoveryPolicy
from repro.placeless.kernel import PlacelessKernel
from repro.properties.translate import TranslationProperty
from repro.providers.memory import MemoryProvider

N_DOCS = 4
doc_indices = st.integers(min_value=0, max_value=N_DOCS - 1)
contents = st.binary(min_size=1, max_size=64)


class JournalDurabilityMachine(RuleBasedStateMachine):
    """Random writes/flushes/crashes; acknowledged writes never vanish."""

    @initialize()
    def setup(self):
        self.kernel = PlacelessKernel()
        self.user = self.kernel.create_user("author")
        self.providers = []
        self.refs = []
        for index in range(N_DOCS):
            provider = MemoryProvider(self.kernel.ctx, b"original")
            self.providers.append(provider)
            self.refs.append(
                self.kernel.import_document(
                    self.user, provider, f"d{index}"
                )
            )
        self.cache = DocumentCache(
            self.kernel,
            capacity_bytes=1 << 20,
            write_mode=WriteMode.WRITE_BACK,
            use_verifiers=False,
            recovery_policy=DefaultRecoveryPolicy(lease_term_ms=1_000.0),
        )
        #: What each document's provider must eventually hold.
        self.acknowledged: dict[int, bytes] = {}
        self.flush_count_model = 0

    @rule(doc=doc_indices, content=contents)
    def write(self, doc, content):
        self.cache.write(self.refs[doc], content)
        self.acknowledged[doc] = content

    @rule(doc=doc_indices)
    def flush_one(self, doc):
        self.cache.flush(self.refs[doc])

    @rule()
    def crash_and_restart(self):
        self.cache.crash()
        self.cache.restart()

    @rule()
    def double_restart(self):
        # A second restart (stacked replay) must change nothing.
        self.cache.crash()
        self.cache.restart()
        dirty_after_first = dict(self.cache._core.dirty)
        self.cache.recovery.replay_journal()
        assert dict(self.cache._core.dirty) == dirty_after_first

    @rule()
    def tick(self):
        self.kernel.ctx.clock.advance(137.0)

    @invariant()
    def acknowledged_writes_recoverable(self):
        # Mid-schedule, every acknowledged-but-unflushed write must be
        # either dirty (in the buffer) or recoverable from the journal.
        recoverable = dict(self.cache._core.dirty)
        self.cache.recovery.journal.replay_into(recoverable)
        for doc, content in self.acknowledged.items():
            if self.providers[doc].peek() == content:
                continue
            key = EntryKey.for_reference(self.refs[doc])
            assert key in recoverable
            assert recoverable[key][1] == content

    def teardown(self):
        # Final recovery: one more crash/restart cycle, then flush all.
        self.cache.crash()
        self.cache.restart()
        flushes_before = self.cache.stats.flushes
        self.cache.flush_all()
        flushed = self.cache.stats.flushes - flushes_before
        # No duplicate flushes: one per dirty key at most.
        assert flushed <= len(self.acknowledged)
        for doc, content in self.acknowledged.items():
            assert self.providers[doc].peek() == content


JournalDurabilityMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=25, deadline=None
)
TestJournalDurability = JournalDurabilityMachine.TestCase


class TestResyncIdempotent:
    @given(
        st.lists(
            st.tuples(
                doc_indices,
                st.sampled_from(["mutate", "attach"]),
                contents,
            ),
            min_size=0,
            max_size=8,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_second_resync_repairs_nothing(self, divergences):
        kernel = PlacelessKernel()
        user = kernel.create_user("reader")
        providers = []
        refs = []
        for index in range(N_DOCS):
            provider = MemoryProvider(kernel.ctx, b"original")
            providers.append(provider)
            refs.append(kernel.import_document(user, provider, f"d{index}"))
        cache = DocumentCache(
            kernel,
            capacity_bytes=1 << 20,
            use_verifiers=False,
            recovery_policy=DefaultRecoveryPolicy(lease_term_ms=1_000.0),
        )
        for reference in refs:
            cache.read(reference)
        # Diverge server state behind the cache's back: notifications
        # suppressed entirely, so only the resync can repair.
        cache.bus.unregister(cache.cache_id)
        for doc, kind, content in divergences:
            if kind == "mutate":
                providers[doc].mutate_out_of_band(content)
            else:
                refs[doc].attach(TranslationProperty())
        first = cache.resync()
        second = cache.resync()
        assert second == 0
        diverged = {doc for doc, _, _ in divergences}
        assert first <= len(diverged)
        # After resync + re-read, the cache agrees with the kernel.
        for reference in refs:
            cached = cache.read(reference).content
            assert cached == kernel.read(reference).content
