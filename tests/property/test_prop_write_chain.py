"""Property test: the compiled write chain ≡ ``stream_chain`` per call.

``PropertyHolder.write_chain()`` compiles the ``GET_OUTPUT_STREAM``
chain once per version of the dispatcher's registration tuple for that
type.  A seed-derived interleaving of attach / detach / reorder /
modify on a base document and on a reference must leave both holders'
compiled chains equal — at *every* step — to
``stream_chain(GET_OUTPUT_STREAM)`` derived from scratch, and between
mutations the compiled tuple must be reused as it is.

The mutations mix what can and cannot join the write chain: active
properties with and without a write interest, passive labels, notifiers
(a cache's minimum set armed by its reads, and a bare write watch), and
a plain function registered on the dispatcher under an id that names no
attached property, which changes the registration tuple but never the
chain.  Writes through the kernel run in between, so each compiled
chain is also the one a write wraps.

Seeds come from hypothesis and from the pinned chaos seeds 77/101/202.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.manager import DocumentCache
from repro.cache.notifiers import NotifierProperty
from repro.events.types import EventType
from repro.placeless.kernel import PlacelessKernel
from repro.placeless.properties import ActiveProperty, StaticProperty
from repro.properties.spellcheck import SpellingCorrectorProperty
from repro.properties.translate import TranslationProperty
from repro.properties.versioning import VersioningProperty
from repro.providers.memory import MemoryProvider

_CHAOS_SEEDS = (77, 101, 202)
_STEPS = 40

_FACTORIES = (
    lambda n: SpellingCorrectorProperty(name=f"spell-{n}"),
    lambda n: VersioningProperty(name=f"versioning-{n}"),
    lambda n: TranslationProperty(name=f"translate-{n}"),
    lambda n: StaticProperty(f"label-{n}"),
)


def _mutate(rng: random.Random, site, serial: int, bus, cache_id) -> None:
    """One random change to *site*'s properties or registrations."""
    ctx = site.ctx
    action = rng.choice((
        "attach", "attach", "notifier", "function", "detach", "reorder",
        "modify",
    ))
    props = site.properties
    if action == "attach" or (not props and action != "function"):
        site.attach(rng.choice(_FACTORIES)(serial))
    elif action == "notifier":
        site.attach(NotifierProperty(
            bus, cache_id, {EventType.GET_OUTPUT_STREAM},
            name=f"notify-{serial}",
        ))
    elif action == "function":
        # Registered, then (half the time) dropped again by its id: the
        # tuple moves both times, the chain never.
        property_id = ctx.ids.property(f"probe-{serial}")
        site.dispatcher.register(
            property_id, {EventType.GET_OUTPUT_STREAM}, lambda event: None
        )
        if rng.random() < 0.5:
            site.dispatcher.unregister_property(property_id)
    elif action == "detach":
        site.detach(rng.choice(props))
    elif action == "reorder":
        order = [p.property_id for p in props]
        rng.shuffle(order)
        site.reorder(order)
    else:
        prop = rng.choice(props)
        if isinstance(prop, ActiveProperty):
            prop.upgrade()
        else:
            site.property_modified(prop)


def _check_interleaving(seed: int) -> None:
    rng = random.Random(seed)
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    base = kernel.create_document(
        owner, MemoryProvider(kernel.ctx, b"teh wrod in the documnet"), "doc"
    )
    reference = kernel.space(kernel.create_user("reader")).add_reference(base)
    writer = kernel.space(owner).add_reference(base)
    cache = DocumentCache(
        kernel, capacity_bytes=1 << 20, name=f"write-chain-{seed}"
    )
    holders = (base, reference)
    for step in range(_STEPS):
        roll = rng.random()
        if roll < 0.55:
            _mutate(rng, rng.choice(holders), step, cache.bus, cache.cache_id)
        elif roll < 0.8:
            # A read arms (or finds) the minimum notifier set.
            cache.read(reference)
        else:
            kernel.write(rng.choice((reference, writer)), b"v%d" % step)
        for holder in holders:
            compiled = holder.write_chain()
            assert compiled == tuple(
                holder.stream_chain(EventType.GET_OUTPUT_STREAM)
            ), (seed, step, holder)
            # Nothing moved since: the compiled tuple itself comes back.
            assert holder.write_chain() is compiled, (seed, step)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_compiled_write_chain_equals_stream_chain(seed):
    _check_interleaving(seed)


@pytest.mark.parametrize("seed", _CHAOS_SEEDS)
def test_compiled_write_chain_equals_stream_chain_at_chaos_seeds(seed):
    _check_interleaving(seed)


def test_only_a_written_holder_with_a_write_chain_keeps_one():
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    base = kernel.create_document(
        owner, MemoryProvider(kernel.ctx, b"x"), "doc"
    )
    reference = kernel.space(owner).add_reference(base)
    reference.attach(SpellingCorrectorProperty())
    kernel.read(reference)
    assert "_write_chain" not in vars(reference)
    kernel.write(reference, b"teh")
    # Nothing registered at the base: the class default already holds.
    assert "_write_chain" not in vars(base)
    assert vars(reference)["_write_chain"][1] == tuple(reference.properties)
