"""Property test: the compiled write chain ≡ a from-scratch derivation.

``PropertyHolder.write_chain()`` is the holder's ``GET_OUTPUT_STREAM``
dispatch tuple, built from the chain on first use and kept until a
property watching writes attaches or detaches, or a reorder.  A
seed-derived interleaving of attach / detach / reorder / modify on a
base document and on a reference must leave both holders' compiled
chains equal — at *every* step — to :func:`scratch_chain` (the chain
filtered by each property's interest, re-derived per call), and between
mutations the compiled tuple must be reused as it is.

The mutations mix what can and cannot join the write chain: active
properties with and without a write interest, passive labels, notifiers
(a cache's minimum set armed by its reads, and a bare write watch), and
a recorder that watches only timers, whose attach and detach must
leave a compiled write chain as it is.  Writes through the kernel run
in between, so each compiled chain is also the one a write wraps.

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
from repro.properties.recorder import EventRecorder
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


def scratch_chain(holder, event_type: EventType) -> tuple:
    """The attached active properties whose interest names
    *event_type*, in chain order: derived from nothing kept."""
    return tuple(
        p for p in holder.properties
        if isinstance(p, ActiveProperty)
        and event_type in p.events_of_interest()
    )


def _mutate(rng: random.Random, site, serial: int, bus, cache_id) -> None:
    """One random change to *site*'s properties."""
    action = rng.choice((
        "attach", "attach", "notifier", "timer-watch", "detach", "reorder",
        "modify",
    ))
    props = site.properties
    if action == "timer-watch":
        # Off the write chain: the compiled tuple survives both moves.
        before = site.write_chain()
        watch = site.attach(
            EventRecorder({EventType.TIMER}, name=f"timer-{serial}")
        )
        assert site.write_chain() is before
        if rng.random() < 0.5:
            site.detach(watch)
            assert site.write_chain() is before
    elif action == "attach" or not props:
        site.attach(rng.choice(_FACTORIES)(serial))
    elif action == "notifier":
        site.attach(NotifierProperty(
            bus, cache_id, {EventType.GET_OUTPUT_STREAM},
            name=f"notify-{serial}",
        ))
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
            assert compiled == scratch_chain(
                holder, EventType.GET_OUTPUT_STREAM
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
    assert list(reference._chains) == [EventType.GET_INPUT_STREAM]
    kernel.write(reference, b"teh")
    # Nothing watches the base: it dispatched, and built nothing.
    assert base._chains == {}
    assert reference._chains[EventType.GET_OUTPUT_STREAM] == tuple(
        reference.properties
    )
