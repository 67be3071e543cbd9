"""The per-reference read plan and its staleness hazards.

``read_plan`` caches everything the cache derives from a reference's
property chain (chain tuple, chain signature, fingerprint, QoS deadline,
priority class).  A cached derivation is only as good as its
invalidation, so these tests pin the hazards one by one: every chain
mutation the paper's invalidation classes (b) and (c) name — on the
reference *or* on the shared base document — must be visible to the
very next consumer, after the reference has already been read.
"""

from __future__ import annotations

import pytest

from repro.cache.manager import DocumentCache
from repro.cache.policies import OverloadPolicy
from repro.overload.admission import (
    PRIORITY_BULK,
    PRIORITY_CRITICAL,
    PRIORITY_QOS,
    priority_class,
)
from repro.overload.gate import DEFAULT_DEADLINE_MS
from repro.placeless.chain import read_chain_properties, read_plan
from repro.properties.qos import AlwaysAvailableProperty, QoSProperty
from repro.properties.spellcheck import SpellingCorrectorProperty
from repro.properties.translate import TranslationProperty

from tests.unit.test_memo import build_world


def gated_cache(kernel) -> DocumentCache:
    return DocumentCache(
        kernel, capacity_bytes=1 << 20,
        overload_policy=OverloadPolicy(),
    )


class TestPlanReuse:
    def test_plan_is_built_once_and_reused_across_reads(self):
        kernel, _, (reference, _) = build_world()
        reference.attach(SpellingCorrectorProperty())
        cache = gated_cache(kernel)
        cache.read(reference)
        plan = read_plan(reference)
        built = kernel.ctx.read_plans_built
        for _ in range(5):
            cache.read(reference)
            read_plan(reference).fingerprint
            priority_class(reference)
        assert read_plan(reference) is plan
        assert kernel.ctx.read_plans_built == built
        assert kernel.ctx.read_plans_rebuilt == 0

    def test_plain_hits_build_no_plan(self):
        # Nothing on the default cache's hit or miss path derives the
        # chain, so nothing is compiled (or held) for it.
        kernel, _, (reference, _) = build_world()
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        cache.read(reference)
        assert cache.read(reference).hit
        assert kernel.ctx.read_plans_built == 0


class TestLateQoS:
    """The bugfix half of the one-QoS-scan item: a plan compiled before
    a QoS property arrived must not outlive its arrival."""

    def test_deadline_tightens_on_the_next_read(self):
        kernel, _, (reference, _) = build_world()
        cache = gated_cache(kernel)
        gate = cache.core.overload
        cache.read(reference)
        assert gate.deadline_ms_for(reference) == DEFAULT_DEADLINE_MS
        reference.attach(QoSProperty(max_access_time_ms=100.0))
        assert gate.deadline_ms_for(reference) == 100.0

    def test_priority_class_lifts_on_the_next_read(self):
        kernel, _, (reference, _) = build_world()
        cache = gated_cache(kernel)
        cache.read(reference)
        assert priority_class(reference) == PRIORITY_BULK
        qos = reference.attach(QoSProperty(max_access_time_ms=250.0))
        assert priority_class(reference) == PRIORITY_QOS
        reference.attach(AlwaysAvailableProperty())
        assert priority_class(reference) == PRIORITY_CRITICAL
        reference.detach_by_name("qos-always-available")
        reference.detach(qos)
        assert priority_class(reference) == PRIORITY_BULK

    def test_infinite_target_is_neither_deadline_nor_priority(self):
        kernel, _, (reference, _) = build_world()
        cache = gated_cache(kernel)
        reference.attach(QoSProperty(max_access_time_ms=float("inf")))
        assert (
            cache.core.overload.deadline_ms_for(reference)
            == DEFAULT_DEADLINE_MS
        )
        assert priority_class(reference) == PRIORITY_BULK


class TestChainMutations:
    """remove / reorder / upgrade / upgrade_dictionary, on either site."""

    @staticmethod
    def _observed(cache, reference):
        plan = read_plan(reference)
        return plan.chain_signature, plan.fingerprint

    SITES = {
        "base": lambda base, reference: base,
        "reference": lambda base, reference: reference,
    }
    MUTATIONS = {
        "remove": lambda site, first, second: site.detach(first),
        # The first read installed notifier properties on both sites;
        # a reorder names every attached property.
        "reorder": lambda site, first, second: site.reorder(
            [second.property_id, first.property_id]
            + [p.property_id for p in site.properties[2:]]
        ),
        "upgrade": lambda site, first, second: second.upgrade(),
        "upgrade_dictionary": lambda site, first, second: (
            first.upgrade_dictionary({"documnet": "document"})
        ),
    }

    @pytest.mark.parametrize("site_name", list(SITES))
    @pytest.mark.parametrize("mutation", list(MUTATIONS))
    def test_changes_plan(self, site_name, mutation):
        kernel, base, (reference, _) = build_world()
        site = self.SITES[site_name](base, reference)
        first = site.attach(SpellingCorrectorProperty())
        second = site.attach(TranslationProperty())
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        cache.read(reference)
        before = self._observed(cache, reference)
        self.MUTATIONS[mutation](site, first, second)
        after = self._observed(cache, reference)
        assert after[0] != before[0] and after[1] != before[1]
        # ... and the refreshed plan is what the read path then records.
        result = reference.open_input()
        result.read_all()
        assert result.meta.chain_signature == after[0]


class TestBaseMutation:
    def test_base_attach_invalidates_every_references_plan(self):
        kernel, base, references = build_world(n_users=3)
        cache = gated_cache(kernel)
        for reference in references:
            cache.read(reference)
        plans = [read_plan(reference) for reference in references]
        assert all(plan.chain == () for plan in plans)
        translate = base.attach(TranslationProperty())
        for reference, stale in zip(references, plans):
            fresh = read_plan(reference)
            assert fresh is not stale
            assert fresh.chain == (translate,)
            assert fresh.chain == read_chain_properties(reference)
        assert kernel.ctx.read_plans_rebuilt == len(references)

    def test_static_properties_leave_plans_alone(self):
        from repro.placeless.properties import StaticProperty

        kernel, base, (reference, _) = build_world()
        plan = read_plan(reference)
        base.attach(StaticProperty("budget related"))
        reference.attach(StaticProperty("read by 11/30"))
        assert read_plan(reference) is plan
