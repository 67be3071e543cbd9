"""Property test: the cached read plan ≡ a from-scratch derivation.

A seed-derived interleaving of attach / detach / reorder / upgrade on a
base document and on two users' references, mixed with reads through a
memo + overload cache, must leave every reference's cached
:class:`~repro.streams.chain.ReadPlan` equal — at *every* step — to
what the pre-plan code derived by re-walking the property sets on each
call: ``read_chain_properties``, the chain signature, the composed
``ChainFingerprint``, the QoS-tightened deadline and the priority
class.  And between mutations the plan must not be rebuilt at all.

Seeds come from hypothesis and from the pinned chaos seeds 77/101/202.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.manager import DocumentCache
from repro.cache.memo import ChainFingerprint, fingerprint_reference
from repro.cache.policies import MemoPolicy, OverloadPolicy
from repro.overload.admission import (
    PRIORITY_BULK,
    PRIORITY_CRITICAL,
    PRIORITY_QOS,
    priority_class,
)
from repro.placeless.kernel import PlacelessKernel
from repro.placeless.properties import ActiveProperty, StaticProperty
from repro.properties.audit import ReadAuditTrailProperty
from repro.properties.qos import AlwaysAvailableProperty, QoSProperty
from repro.properties.spellcheck import SpellingCorrectorProperty
from repro.properties.translate import TranslationProperty
from repro.providers.memory import MemoryProvider
from repro.streams.chain import read_chain_properties, read_plan

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
    signature = tuple(
        s for s in (p.transform_signature() for p in chain) if s is not None
    )
    fingerprint = ChainFingerprint.compose(p.fingerprint() for p in chain)
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
    return chain, signature, fingerprint, deadline_ms, priority


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
        overload_policy=OverloadPolicy(
            default_deadline_ms=_DEFAULT_DEADLINE_MS,
            admission_rate_per_s=1e6, admission_burst=1e6,
        ),
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
                cache.core.expected_chain_signature(reference),
                fingerprint_reference(reference),
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
