"""Property test: the cached read plan ≡ a from-scratch derivation.

A seed-derived interleaving of attach / detach / reorder / upgrade on a
base document and on two users' references, mixed with reads through a
memo + overload cache, must leave every reference's cached
:class:`~repro.placeless.chain.ReadPlan` equal — at *every* step — to
what the pre-plan code derived by re-walking the property sets on each
call: ``read_chain_properties``, the chain signature, the composed
``ChainFingerprint``, the QoS-tightened deadline and the priority
class.  And between mutations the plan must not be rebuilt at all.

The second property holds the *kernel's* side of the same chain:
``PropertyHolder.read_chain()`` — what ``kernel.read`` and the plan both
walk — against ``stream_chain`` re-derived per call, ``has_property``
against the name scan it replaced, and the bytes of a read against a
chain wrapped from scratch, while two caches arm notifiers for three
users in between (which must move neither epoch).

Seeds come from hypothesis and from the pinned chaos seeds 77/101/202.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.manager import DocumentCache
from repro.cache.memo import ChainFingerprint
from repro.cache.notifiers import install_minimum_notifiers
from repro.cache.policies import MemoPolicy, OverloadPolicy
from repro.events.types import EventType
from repro.overload import admission as admission_module
from repro.overload import gate as gate_module
from repro.overload.admission import (
    PRIORITY_BULK,
    PRIORITY_CRITICAL,
    PRIORITY_QOS,
    priority_class,
)
from repro.placeless.chain import read_chain_properties, read_plan
from repro.placeless.kernel import PlacelessKernel
from repro.placeless.properties import ActiveProperty, StaticProperty
from repro.properties.audit import ReadAuditTrailProperty
from repro.properties.qos import AlwaysAvailableProperty, QoSProperty
from repro.properties.spellcheck import SpellingCorrectorProperty
from repro.properties.translate import TranslationProperty
from repro.providers.memory import MemoryProvider
from repro.streams.base import BytesInputStream

_CHAOS_SEEDS = (77, 101, 202)
_DEFAULT_DEADLINE_MS = 2_000.0
_STEPS = 40

_FACTORIES = (
    lambda n: SpellingCorrectorProperty(name=f"spell-{n}"),
    lambda n: TranslationProperty(name=f"translate-{n}"),
    lambda n: QoSProperty(max_access_time_ms=250.0, name=f"qos-250-{n}"),
    lambda n: QoSProperty(max_access_time_ms=80.0, name=f"qos-80-{n}"),
    lambda n: QoSProperty(max_access_time_ms=float("inf"), name=f"qos-inf-{n}"),
    lambda n: AlwaysAvailableProperty(name=f"pin-{n}"),
    lambda n: ReadAuditTrailProperty(name=f"audit-{n}"),
    lambda n: StaticProperty(f"label-{n}"),
)


def _scratch(reference) -> tuple:
    """What the pre-plan code derived per call, re-walking everything."""
    chain = read_chain_properties(reference)
    signature = tuple(p.transform_signature() for p in chain)
    fingerprint = ChainFingerprint.compose(signature)
    shareable = not any(
        "handle" in vars(cls)
        for p in chain
        for cls in type(p).__mro__
        if cls is not ActiveProperty and issubclass(cls, ActiveProperty)
    )
    deadline_ms = _DEFAULT_DEADLINE_MS
    priority = PRIORITY_BULK
    for prop in chain:
        finite = (
            isinstance(prop, QoSProperty)
            and prop.max_access_time_ms != float("inf")
        )
        if finite:
            deadline_ms = min(deadline_ms, prop.max_access_time_ms)
            priority = min(priority, PRIORITY_QOS)
    if any(prop.requests_pinning() for prop in chain):
        priority = PRIORITY_CRITICAL
    return chain, signature, fingerprint, shareable, deadline_ms, priority


def _mutate(rng: random.Random, site, serial: int) -> None:
    """One random chain mutation on *site* (a no-op when impossible)."""
    mine = [p for p in site.properties if not getattr(
        p, "is_infrastructure", False
    )]
    action = rng.choice(("attach", "attach", "detach", "reorder", "upgrade"))
    if action == "attach" or not mine:
        site.attach(rng.choice(_FACTORIES)(serial))
    elif action == "detach":
        site.detach(rng.choice(mine))
    elif action == "reorder":
        order = [p.property_id for p in site.properties]
        rng.shuffle(order)
        site.reorder(order)
    else:
        prop = rng.choice(mine)
        if isinstance(prop, SpellingCorrectorProperty) and rng.random() < 0.5:
            prop.upgrade_dictionary({f"wrod{serial}": "word"})
        elif isinstance(prop, ActiveProperty):
            prop.upgrade()


def _check_interleaving(seed: int) -> None:
    # A default allowance above every finite QoS target a chain can
    # carry, and a bucket no read loop drains.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gate_module, "DEFAULT_DEADLINE_MS", _DEFAULT_DEADLINE_MS)
        patch.setattr(admission_module, "ADMISSION_BURST", 1e6)
        _interleave(seed)


def _interleave(seed: int) -> None:
    rng = random.Random(seed)
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    base = kernel.create_document(
        owner, MemoryProvider(kernel.ctx, b"teh wrod in the documnet"), "doc"
    )
    references = [
        kernel.space(kernel.create_user(f"user-{i}")).add_reference(base)
        for i in range(2)
    ]
    cache = DocumentCache(
        kernel, capacity_bytes=1 << 20,
        memo_policy=MemoPolicy(),
        overload_policy=OverloadPolicy(admission_rate_per_s=1e6),
        name=f"plan-prop-{seed}",
    )
    gate = cache.core.overload
    ctx = kernel.ctx
    for step in range(_STEPS):
        if rng.random() < 0.5:
            _mutate(rng, rng.choice([base, *references]), step)
        else:
            cache.read(rng.choice(references))
        for reference in references:
            plan = read_plan(reference)
            assert (
                plan.chain,
                plan.chain_signature,
                plan.fingerprint,
                plan.shareable,
                gate.deadline_ms_for(reference),
                priority_class(reference),
            ) == _scratch(reference), (seed, step)
        # No mutation since the loop above compiled whatever was
        # outdated: reads and consults must reuse, never rebuild.
        built = ctx.read_plans_built
        plans = [read_plan(reference) for reference in references]
        for reference in references:
            cache.read(reference)
            cache.read(reference)
        assert [read_plan(reference) for reference in references] == plans
        assert ctx.read_plans_built == built, (seed, step)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_cached_plan_equals_scratch_derivation(seed):
    _check_interleaving(seed)


@pytest.mark.parametrize("seed", _CHAOS_SEEDS)
def test_cached_plan_equals_scratch_derivation_at_chaos_seeds(seed):
    _check_interleaving(seed)


# -- the kernel's compiled chain and the name index ----------------------------

#: Names drawn with repeats, so duplicates and re-attachment happen.
_LABELS = ("label-a", "label-b", "spell-dup", "never-attached")


def _scratch_read(reference) -> bytes:
    """The read path rebuilt from scratch: no compiled chain, no cache."""
    event = reference.make_event(EventType.GET_INPUT_STREAM)
    stream = BytesInputStream(reference.base.provider.peek())
    for holder in (reference.base, reference):
        for prop in holder.stream_chain(EventType.GET_INPUT_STREAM):
            stream = prop.wrap_input(stream, event)
    return stream.read(-1)


def _mutate_named(rng: random.Random, site, serial: int) -> None:
    """:func:`_mutate`, plus same-name attaches and ``detach_by_name``."""
    action = rng.choice(("mutate", "mutate", "label", "dup", "by-name"))
    if action == "label":
        site.attach(StaticProperty(rng.choice(_LABELS[:2])))
    elif action == "dup":
        site.attach(SpellingCorrectorProperty(name="spell-dup"))
    elif action == "by-name":
        name = rng.choice(_LABELS)
        if any(p.name == name for p in site.properties):
            site.detach_by_name(name)
    else:
        _mutate(rng, site, serial)


def _check_read_chain(seed: int) -> None:
    rng = random.Random(seed)
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    base = kernel.create_document(
        owner, MemoryProvider(kernel.ctx, b"teh wrod in the documnet"), "doc"
    )
    references = [
        kernel.space(kernel.create_user(f"user-{i}")).add_reference(base)
        for i in range(3)
    ]
    caches = [
        DocumentCache(kernel, capacity_bytes=1 << 20, name=f"chain-{seed}-{i}")
        for i in range(2)
    ]
    holders = [base, *references]
    ctx = kernel.ctx
    for step in range(_STEPS):
        roll = rng.random()
        if roll < 0.4:
            _mutate_named(rng, rng.choice(holders), step)
        else:
            # Arming — directly, or as the tail of a miss — is off the
            # read chain: no epoch moves, no plan is rebuilt.
            epochs = [holder.chain_epoch for holder in holders]
            rebuilt = ctx.read_plans_rebuilt
            cache, reference = rng.choice(caches), rng.choice(references)
            if roll < 0.7:
                install_minimum_notifiers(
                    reference, cache.core.bus, cache.core.cache_id
                )
            else:
                cache.read(reference)
            assert [holder.chain_epoch for holder in holders] == epochs
            assert ctx.read_plans_rebuilt == rebuilt, (seed, step)
        for holder in holders:
            assert holder.read_chain() == tuple(
                holder.stream_chain(EventType.GET_INPUT_STREAM)
            ), (seed, step)
            names = {p.name for p in holder.properties} | set(_LABELS)
            for name in names:
                assert holder.has_property(name) == any(
                    p.name == name for p in holder.properties
                ), (seed, step, name)
        for reference in references:
            assert kernel.read(reference).content == _scratch_read(
                reference
            ), (seed, step)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_compiled_read_chain_equals_scratch_chain(seed):
    _check_read_chain(seed)


@pytest.mark.parametrize("seed", _CHAOS_SEEDS)
def test_compiled_read_chain_equals_scratch_chain_at_chaos_seeds(seed):
    _check_read_chain(seed)
