"""One stateful machine holds the cache to :mod:`tests.property.spec`.

It drives the system and the spec with one op stream — reads,
``read_many`` and writes; property attach, detach and reorder;
out-of-band mutation and external change; waits; crash/restart, and on
a cluster with recovery ``add_shard``/``lose_shard`` — under one seam
configuration (memo × concurrency × recovery × storage × overload ×
containment × cluster) per run.  Every serve is the spec's fresh bytes
or falls in a window it names, a refused reader is refused on every
path, ``hits + misses`` equals the reads answered, each shard stays
within its capacity with refcounts matching its entries (and zero after
``clear()``), and the audit trail saw every serve the spec says it must.

Tier-1 runs eight configurations, the two-level orthogonal array that
covers every pair of seams both ways; ``REPRO_SPEC_MATRIX=full`` runs
all 128 on freshly drawn op streams (CI's ``spec`` job).
"""

from __future__ import annotations

import ast
import itertools
import os
import pathlib
import shutil
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.cache.entry import EntryKey
from repro.cache.manager import DocumentCache
from repro.cache.policies import (
    ConcurrencyPolicy,
    ContainmentPolicy,
    MemoPolicy,
    OverloadPolicy,
    RecoveryPolicy,
    StoragePolicy,
)
from repro.cluster import CacheCluster, ClusterPolicy
from repro.errors import DeadlineExceededError, OverloadShedError
from repro.placeless.kernel import PlacelessKernel
from repro.properties.access import AccessControlProperty
from repro.properties.audit import ReadAuditTrailProperty
from repro.properties.external import ExternalDependencyProperty
from repro.properties.translate import TranslationProperty
from repro.properties.uncacheable import UncacheableProperty
from repro.providers.memory import MemoryProvider
from repro.providers.web import WebOrigin, WebProvider
from tests.property import spec

SEAMS = (
    "memo", "concurrency", "recovery", "storage", "overload", "containment",
    "cluster",
)
#: The counter in ``core.metrics`` that shows a seam acted: a
#: configuration whose runs never reach a seam says nothing about it.
ENGAGEMENT = {
    "memo": ("memo", "adoptions"),
    "concurrency": ("concurrency", "flights_led"),
    "recovery": ("recovery", "restarts"),
    "storage": ("storage", "promotions"),
    "overload": ("overload", "admitted"),
}
FULL = os.environ.get("REPRO_SPEC_MATRIX") == "full"
#: Row *r* of the orthogonal array switches seam *c* (1-7) on when
#: ``r & c`` has odd parity.
CONFIGURATIONS = [
    frozenset(seam for seam, on in zip(SEAMS, bits) if on)
    for bits in itertools.product((0, 1), repeat=len(SEAMS))
] if FULL else [
    frozenset(s for c, s in enumerate(SEAMS, 1) if bin(r & c).count("1") % 2)
    for r in range(8)
]

#: The web document's TTL: the spec's verifier window.
TTL_MS = 3_000.0
#: Per cache (per shard): two documents, so reads evict.
CAPACITY = 80
TEXT = b"alpha words for the cache; gamma too."
#: User 1's translators on every reference but the web document's (where
#: the two users may share a memo record): their output depends on their
#: order, and differs from user 0's untranslated bytes.
FIRST, SECOND = {"alpha": "beta"}, {"beta": "gamma"}
PLAIN, WEB, EXTERNAL, AUDITED = range(4)
users, documents = st.integers(0, 1), st.integers(0, 3)
REFUSED = (OverloadShedError, DeadlineExceededError)


def build_system(kernel, seams: frozenset, directory: pathlib.Path):
    """The cache, or two-shard cluster, that *seams* switch on."""
    policies = {
        "memo_policy": MemoPolicy() if "memo" in seams else None,
        "concurrency_policy":
            ConcurrencyPolicy() if "concurrency" in seams else None,
        "recovery_policy": RecoveryPolicy() if "recovery" in seams else None,
        "overload_policy": OverloadPolicy() if "overload" in seams else None,
    }
    shard = {}
    if "containment" in seams:
        shard["containment_policy"] = ContainmentPolicy()
    if "storage" in seams:
        shard["storage_policy"] = StoragePolicy(directory=str(directory))
    if "cluster" not in seams:
        return DocumentCache(kernel, CAPACITY, **policies, **shard)
    return CacheCluster(
        kernel, 2, CAPACITY, shard_kwargs=shard, **policies,
        cluster_policy=ClusterPolicy() if "memo" in seams else None,
    )


class SpecMachine(RuleBasedStateMachine):
    """The system under one configuration and the spec, in lock step.

    A run starts warm — every key read once, so the L2 tier and the memo
    hold something from the first step, and, when drawn, every shard
    restarted since — and each change reads the key it touches after it
    (and, when drawn, before it), so a change the cache missed shows.
    """

    def __init__(self, seams: frozenset, directory: pathlib.Path) -> None:
        super().__init__()
        self.seams, self.directory = seams, directory

    @initialize(restarted=st.booleans())
    def build(self, restarted):
        kernel = self.kernel = PlacelessKernel()
        self.clock = kernel.ctx.clock
        owner = kernel.create_user("owner")
        self.users = [kernel.create_user(f"user-{i}") for i in range(2)]
        self.external = 0
        origin = WebOrigin(self.clock)
        origin.publish("/doc", TEXT, ttl_ms=TTL_MS)
        self.providers = [MemoryProvider(kernel.ctx, TEXT) for _ in range(4)]
        self.providers[WEB] = WebProvider(kernel.ctx, origin, "/doc")
        self.bases = [
            kernel.create_document(owner, provider, f"doc-{index}")
            for index, provider in enumerate(self.providers)
        ]
        self.bases[EXTERNAL].attach(
            ExternalDependencyProperty(lambda: self.external)
        )
        self.audit = self.bases[AUDITED].attach(ReadAuditTrailProperty())
        self.references = [
            [kernel.space(user).add_reference(base) for base in self.bases]
            for user in self.users
        ]
        for document in (PLAIN, EXTERNAL, AUDITED):
            self.references[1][document].attach(TranslationProperty(FIRST))
            self.references[1][document].attach(
                TranslationProperty(SECOND, name="second")
            )
        self.attached: dict = {}  # (holder, kind) -> the machine's property
        self.run = self.directory / f"run-{next(_RUNS)}"
        self.system = build_system(kernel, self.seams, self.run)
        self.spec = spec.CacheSpec(ttl_ms=TTL_MS)
        self.answered = 0
        for document in (EXTERNAL, AUDITED, WEB, PLAIN):
            for user in range(2):
                self.read(user, document)
        for shard in range(len(self.shards()) if restarted else 0):
            self.crash_restart(shard)

    def shards(self) -> list:
        if "cluster" in self.seams:
            return list(self.system.shards.values())
        return [self.system]

    def probes(self, key=None) -> int:
        """Reads a cluster ran on its own behalf (of *key*, or of any)."""
        probes = getattr(self.system, "probe_refills", None) or Counter()
        return probes.total() if key is None else probes[EntryKey(*key)]

    # -- reads ----------------------------------------------------------------

    def judge(self, reference, served, started_ms: float) -> None:
        if isinstance(served, REFUSED) and "overload" in self.seams:
            return
        key = spec.key_of(reference)
        read = self.spec.fresh(self.kernel, reference)
        if isinstance(served, BaseException):
            self.spec.judge(key, read, served, None, started_ms)
        else:
            self.answered += 1
            self.spec.judge(
                key, read, served.content, served.disposition, started_ms
            )
        self.spec.record(key, read, self.clock.now_ms)

    @rule(user=users, document=documents)
    def read(self, user, document):
        reference = self.references[user][document]
        started_ms = self.clock.now_ms
        try:
            served = self.system.read(reference)
        except Exception as error:  # noqa: BLE001 - judged
            served = error
        self.judge(reference, served, started_ms)

    @rule(pairs=st.lists(st.tuples(users, documents), min_size=2, max_size=4))
    def read_many(self, pairs):
        batch = [self.references[user][document] for user, document in pairs]
        started_ms = self.clock.now_ms
        outcomes = self.system.read_many(batch, return_exceptions=True)
        for reference, served in zip(batch, outcomes):
            self.judge(reference, served, started_ms)

    # -- changes --------------------------------------------------------------

    def change(self, user, document, before, label, site, apply) -> None:
        """Read ``(user, document)`` when *before*; *apply* the change;
        tell the spec what had to go (a notifier's *label*, for the
        reference or, at the base *site*, for every user); read again."""
        if before:
            self.read(user, document)
        apply()
        if label is not None:
            self.spec.invalidate(
                self.bases[document].document_id,
                None if site == "base" else self.users[user], label,
                self.clock.now_ms,
            )
        self.read(user, document)

    @rule(user=users, document=documents, before=st.booleans(),
          version=st.integers(0, 3))
    def write(self, user, document, before, version):
        self.change(user, document, before, spec.SOURCE, "base", lambda: (
            self.system.write(self.references[user][document],
                              TEXT.replace(b"words", b"w%d" % version))
        ))

    @rule(user=users, document=documents, before=st.booleans(),
          site=st.sampled_from(("base", "reference")),
          kind=st.sampled_from(("translate", "uncacheable", "access")))
    def toggle(self, user, document, before, site, kind):
        """Attach a property of *kind*, or take the one attached off."""
        if kind == "access" and document == AUDITED:
            return  # the audit counts the reads the path allows
        holder = (self.bases[document] if site == "base"
                  else self.references[user][document])

        def apply() -> None:
            attached = self.attached.pop((holder, kind), None)
            if attached is not None:
                holder.detach(attached)
            elif kind == "translate":
                self.attached[holder, kind] = holder.attach(
                    TranslationProperty({"gamma": "delta"}, name=kind)
                )
            else:
                self.attached[holder, kind] = holder.attach(
                    UncacheableProperty() if kind == "uncacheable" else
                    AccessControlProperty({self.users[0]}, deny_writes=False)
                )

        self.change(user, document, before, spec.PROPERTY_SET, site, apply)

    @rule(user=users, document=documents, before=st.booleans())
    def reorder(self, user, document, before):
        """Rotate the reference's properties (taken when the change runs:
        the read before it may arm a notifier on the reference)."""
        reference = self.references[user][document]

        def apply() -> None:
            order = [prop.property_id for prop in reference.properties]
            reference.reorder(order[1:] + order[:1])

        self.change(user, document, before, spec.PROPERTY_ORDER,
                    "reference", apply)

    @rule(user=users, document=documents, before=st.booleans(),
          version=st.integers(0, 3))
    def out_of_band(self, user, document, before, version):
        self.change(user, document, before, None, "base", lambda: (
            self.providers[document].mutate_out_of_band(
                TEXT.replace(b"cache", b"oob%d" % version)
            )
        ))

    @rule(user=users, before=st.booleans())
    def external_change(self, user, before):
        def apply() -> None:
            self.external += 1

        self.change(user, EXTERNAL, before, None, "base", apply)

    @rule(ms=st.sampled_from((50.0, 700.0, 2_500.0)))
    def wait(self, ms):
        self.clock.advance(ms)

    # -- process life ---------------------------------------------------------

    @rule(shard=st.integers(0, 3))
    def crash_restart(self, shard):
        if "cluster" not in self.seams:
            self.system.crash()
            self.system.restart()
            return
        names = list(self.system.shards)
        self.system.crash_shard(names[shard % len(names)])
        self.system.restart_shard(names[shard % len(names)])

    @precondition(lambda self: {"cluster", "recovery"} <= self.seams)
    @rule()
    def add_shard(self):
        if self.system.shard_count < 4:
            self.system.add_shard()

    @precondition(lambda self: {"cluster", "recovery"} <= self.seams)
    @rule(shard=st.integers(0, 3))
    def lose_shard(self, shard):
        names = list(self.system.shards)
        if len(names) > 1:
            self.system.lose_shard(names[shard % len(names)])

    # -- invariants -----------------------------------------------------------

    @invariant()
    def reads_are_hits_or_misses(self):
        totals = (self.system.aggregate_stats() if "cluster" in self.seams
                  else self.system.stats)
        reads = self.answered + self.probes()
        assert totals.hits + totals.misses == reads, (totals, reads)

    @invariant()
    def shards_hold_what_their_entries_name(self):
        for shard in self.shards():
            assert shard.used_bytes <= shard.capacity_bytes
            naming = Counter(entry.signature for entry in shard.entries())
            assert len(shard.store) == len(naming)
            for signature, count in naming.items():
                assert shard.store.refcount(signature) == count

    @invariant()
    def the_audit_saw_every_serve(self):
        seen = Counter(record.user for record in self.audit.trail)
        for user in self.users:
            key = (self.bases[AUDITED].document_id, user)
            expected = self.spec.observed[key] + self.probes(key)
            assert seen[user] == expected, (user, seen, expected)

    def teardown(self):
        if not hasattr(self, "system"):
            return
        for seam in self.seams & ENGAGEMENT.keys():
            group, counter = ENGAGEMENT[seam]
            _ENGAGED[self.seams, seam] += sum(
                getattr(shard.core.metrics[group], counter)
                for shard in self.shards()
            )
        try:
            self.system.clear()
            for shard in self.shards():
                assert len(shard.store) == 0 and shard.used_bytes == 0
        finally:
            for shard in self.shards():
                shard.shutdown()
            shutil.rmtree(self.run, ignore_errors=True)


_RUNS = itertools.count()
_ENGAGED: Counter = Counter()


@pytest.mark.parametrize(
    "seams", CONFIGURATIONS,
    ids=lambda seams: "+".join(s for s in SEAMS if s in seams) or "bare",
)
def test_the_cache_serves_what_the_spec_allows(seams, tmp_path):
    run_state_machine_as_test(
        lambda: SpecMachine(seams, tmp_path),
        settings=settings(
            max_examples=60 if FULL else 25, stateful_step_count=30,
            deadline=None, derandomize=not FULL,
            suppress_health_check=list(HealthCheck),
        ),
    )
    idle = [s for s in seams & ENGAGEMENT.keys() if not _ENGAGED[seams, s]]
    assert not idle, f"no run reached {idle}"


def test_the_spec_imports_only_the_contract_and_placeless():
    nodes = list(ast.walk(ast.parse(pathlib.Path(spec.__file__).read_text())))
    for name in [
        alias.name for node in nodes if isinstance(node, ast.Import)
        for alias in node.names
    ] + [node.module for node in nodes if isinstance(node, ast.ImportFrom)]:
        assert name.startswith(("repro.contract", "repro.placeless")) or (
            name.split(".")[0] in sys.stdlib_module_names
        ), name
