"""Per-operation counts against ``golden/counts.json``, and the design
claims about them.

A hit is a lookup plus the verifiers the paper runs on every hit, so
what a hit, a miss, a write, an L2 operation or a first read costs is
counted exactly (``tests/integration/counts.py``: calls, MD5s, file
opens and positioned I/O, ``emit`` calls and events built, heap blocks
and tracked objects) and compared key by key with the committed
snapshot: more is a failure, and so is fewer until
``python -m tests.integration.snapshot --update counts`` re-pins it, so
every change lands in ``git log -p``.  Each test checks the scenarios
its name states; the four perfbench worlds at smoke size are compared
too.

What the snapshot must never be re-pinned away from is asserted here
besides: the counts that must be zero (no ``emit`` on an unheard hit,
no Python ``__hash__`` / ``__eq__`` frame on a key probe, no breaker
after fault-free traffic, no file opened per L2 record), the counts
that must be equal (a miss with 2 and with 64 armed users), and the
checks that are not counts (a shard core has no instance ``__dict__``).
"""

from __future__ import annotations

import warnings
from collections import Counter

import pytest

from repro.bench.perf import peak_rss_kb
from repro.cache.manager import DocumentCache
from repro.events.types import Event, EventType
from repro.placeless.kernel import PlacelessKernel
from repro.providers.memory import MemoryProvider
from tests.integration import counts, snapshot


@pytest.fixture(scope="module")
def measured():
    """``measured(group)``: the group's counts, measured once per module."""
    groups: dict = {}

    def get(group: str) -> dict:
        if group not in groups:
            groups[group] = counts.measure(group)
        return groups[group]

    return get


def pinned(measured, group: str, *scenarios: str) -> dict:
    """The counts of *group*, once the keys of *scenarios* (all the
    group's when none is named) match the snapshot."""
    found = measured(group)
    golden, compared, unmeasured = counts.view(snapshot.load("counts"), found)
    prefixes = tuple(f"{scenario}." for scenario in scenarios or (group,))

    def within(keys) -> dict:
        return {key: keys[key] for key in keys if key.startswith(prefixes)}

    if within(dict.fromkeys(unmeasured)):
        warnings.warn(f"unmeasured on {counts.version()}, not compared: "
                      f"{sorted(within(dict.fromkeys(unmeasured)))}")
    moved = snapshot.differences(within(golden), within(compared))
    assert not moved, "\n".join(["moved from counts.json:", *moved])
    return found


@pytest.mark.parametrize("configuration",
                         ["default", "late-subscriber", "overload"])
def test_hit_stays_under_allocation_budget(configuration, measured):
    scenario = f"heap.hit_{configuration.replace('-', '_')}"
    found = pinned(measured, "heap", scenario)
    assert found[f"{scenario}.hits"] == 320  # the probe measured hits


def test_peak_rss_helper():
    assert peak_rss_kb() > 0.0


# -- misses -------------------------------------------------------------------


def test_each_byte_string_is_hashed_once_per_miss(measured):
    # First sight: the source bytes and the output bytes, once each.  An
    # unchanged source's signature is the provider's memo: only the
    # re-transformed output is hashed.  A hit hashes nothing.
    found = pinned(measured, "miss", "miss.first_sight",
                   "miss.unchanged_source", "miss.after_remiss_hit")
    assert found["miss.first_sight.md5"] == 2
    assert found["miss.unchanged_source.md5"] == 1
    assert "miss.after_remiss_hit.md5" not in found


def test_miss_and_kernel_read_do_not_scan_armed_users(measured):
    found = pinned(measured, "miss")
    for step in ("remiss", "kernel_read"):
        assert found[f"miss.armed2_{step}.calls"] == (
            found[f"miss.armed64_{step}.calls"]
        )


def test_key_probes_run_no_python_hash_or_eq(measured):
    # Every read probes ``dirty`` and ``entries`` by (document, user), and
    # an invalidation counts its reason: Python frames there tax each one.
    found = {**measured("miss"), **measured("hit")}
    assert not [key for key in found if key.endswith(("__hash__", "__eq__"))]


# -- the durable tier ---------------------------------------------------------


def test_l2_records_reuse_the_held_segment_files(measured):
    # A demotion, a served promotion (and the demotion that makes room
    # for it) and a tombstone alone open no file: the logs are held.
    found = pinned(measured, "l2")
    assert (found["l2.tier.demotions"], found["l2.tier.promotions"]) == (2, 1)
    assert not [key for key in found if key.endswith(".open")]


def test_l2_demotion_writes_two_frames_and_no_json(measured):
    # The content frame and the catalog record, binary-encoded.
    found = pinned(measured, "l2", "l2.demotion")
    assert found["l2.demotion.pwritev"] == 2
    assert "l2.demotion.json" not in found


def test_l2_promotion_reads_its_frame_with_one_pread(measured):
    # The slot knows its frame's length: header and payload in one read.
    found = pinned(measured, "l2", "l2.promotion")
    assert found["l2.promotion.pread"] == 1
    assert "l2.promotion.json" not in found


def test_fault_free_traffic_creates_no_breaker(measured):
    # Reads through a wrapper property, verified hits, a write's notifier
    # fan-out and the re-misses after it: every guarded call succeeds,
    # and a breaker that never failed is no breaker at all.
    found = pinned(measured, "breaker")
    assert found["breaker.fault_free.deliveries"]
    assert found["breaker.fault_free.verifier_executions"]
    for registry in ("wrappers", "verifiers", "notifiers"):
        assert found[f"breaker.fault_free.{registry}"] == 0


# -- hits ---------------------------------------------------------------------


def test_a_verified_hit_builds_no_verifier_result(measured):
    # The VALID verdict is a shared instance, so no
    # ``VerifierResult.__post_init__`` runs.
    found = measured("hit")
    assert found["hit.plain.verifier_executions"]
    assert not [key for key in found if key.endswith(".__post_init__")]


@pytest.mark.parametrize("arm", counts.HIT_ARMS)
def test_an_unobserved_hit_makes_no_emit_call(arm, measured):
    # Nobody listens, so neither the verifier run nor the served hit
    # calls ``emit`` at all: not even to learn that nobody listens.
    assert f"hit.{arm}.emit" not in pinned(measured, "hit", f"hit.{arm}")


@pytest.mark.parametrize("arm", counts.HIT_ARMS)
def test_a_hit_stays_within_its_call_budget(arm, measured):
    pinned(measured, "hit", f"hit.{arm}")


def test_a_fault_free_contained_hit_builds_no_verifier_key(measured):
    # No verifier has failed, so no breaker exists to look a key up in.
    found = measured("hit")
    assert found["hit.contained.verifier_executions"]
    assert "hit.contained.verifier_key" not in found


def test_a_shard_core_has_no_instance_dict(tmp_path):
    # A core past 29 dict attributes leaves CPython 3.11's shared-key
    # layout and slows every attribute load; a slotted core cannot.
    _, shards, _ = counts.hit_front("cluster", tmp_path)
    try:
        for shard in shards:
            assert shard.core.health is not None
            assert not hasattr(shard.core, "__dict__")
    finally:
        for shard in shards:
            shard.shutdown()


# -- writes and events --------------------------------------------------------


@pytest.mark.parametrize("late_subscriber", [False, True])
def test_notifier_deliveries_build_events_only_for_listeners(
    late_subscriber, measured
):
    # A write fans out one delivery per armed notifier of another user:
    # the bus counts it and the cache adds it into its own sinks, so an
    # event is built only for a subscriber that is not one of them.
    scenario = "write.subscribed" if late_subscriber else "write.plain"
    found = pinned(measured, "write", scenario)
    assert found[f"{scenario}.deliveries"] == 15
    built = found.get(f"{scenario}.stage_events", 0)
    assert built == (found[f"{scenario}.emit"] if late_subscriber else 0)


@pytest.mark.parametrize("arm", ["plain", "contained"])
def test_a_write_fan_out_stays_within_its_call_budget(arm, measured):
    pinned(measured, "write", f"write.{arm}")


def test_a_second_write_reuses_the_compiled_write_chains(measured):
    # Both halves of the write path (reference, then base) wrap the
    # chain compiled by the first write: nothing is re-derived.
    assert "write.second._build_chain" not in pinned(measured, "write",
                                                     "write.second")


STEPS = ("miss", "hit", "eviction", "write_through", "write_back", "flush",
         "crash_restart")


def test_an_unobserved_cache_builds_no_stage_event(measured):
    # Every step but the hit still calls ``emit`` (so a zero built is no
    # accident of a step that reports nothing); the hit's two events ask
    # the bus first and make no call at all.
    found = pinned(measured, "events")
    assert [step for step in STEPS if f"events.{step}.emit" in found] == [
        step for step in STEPS if step != "hit"
    ]
    assert not [key for key in found if key.startswith(tuple(
        f"events.{step}.stage_events" for step in STEPS
    ))]


def test_a_catch_all_gets_one_event_per_emitted_event(measured):
    found = measured("events")
    built = [found[f"events.subscribed_{step}.stage_events"] for step in STEPS]
    assert built == [found[f"events.subscribed_{step}.emit"] for step in STEPS]
    assert found["events.subscribed_totals.seen"] == sum(built)


def test_a_cluster_builds_no_stage_event(measured):
    # The shards tell the health tracker where a read ends: with no
    # subscriber on any shard's bus, nothing is built for it.
    found = pinned(measured, "events", "events.cluster")
    assert found["events.cluster.reads"] == 16
    assert "events.cluster.stage_events" not in found


def test_write_back_without_a_forward_listener_builds_no_event(measured):
    assert "events.write_back.events" not in measured("events")


# -- arming -------------------------------------------------------------------


def test_holders_and_armed_notifiers_track_few_objects(measured):
    # A holder keeps a tuple only for a watched type it has dispatched
    # (a new reference keeps none), and an armed notifier keeps its
    # shared watch set: the holder calls the notifier itself, with no
    # registration object, closure or bound method between them.
    found = pinned(measured, "arming")
    assert found["arming.add_reference.tracked"] < found[
        "arming.second_user_first_read.tracked"
    ] < found["arming.first_read.tracked"]


def test_arming_stays_under_its_memory_budget(measured):
    pinned(measured, "heap", "heap.first_read", "heap.second_user_first_read")


def test_a_first_read_stays_within_its_call_budget(measured):
    pinned(measured, "arming", "arming.first_read",
           "arming.second_user_first_read")


@pytest.fixture
def built_events(monkeypatch) -> Counter:
    """The type of every ``Event`` constructed, by count."""
    built: Counter = Counter()
    real = Event.__init__

    def counting(self, type, *args, **kwargs):
        built[type] += 1
        real(self, type, *args, **kwargs)

    monkeypatch.setattr(Event, "__init__", counting)
    return built


def test_arming_an_unwatched_holder_builds_no_set_property_event(
    built_events,
):
    # A document's first read arms three notifiers, and none of them
    # watches SET_PROPERTY on a holder before it: nobody hears the
    # attach, so nothing is built for it.  A second user's write
    # watcher joins a base whose property watcher does hear it.
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    base = kernel.create_document(
        owner, MemoryProvider(kernel.ctx, b"teh quick brown fox " * 40), "doc"
    )
    first, second = (
        kernel.space(kernel.create_user(f"user-{i}")).add_reference(base)
        for i in range(2)
    )
    cache = DocumentCache(kernel, capacity_bytes=1 << 28)
    cache.read(first)
    assert built_events[EventType.SET_PROPERTY] == 0
    cache.read(second)
    assert built_events[EventType.SET_PROPERTY] == 1


# -- the perfbench worlds and the snapshot itself -----------------------------


@pytest.mark.parametrize("world", counts.WORLDS)
def test_a_world_counts_what_the_snapshot_pins(world, measured):
    found = pinned(measured, world)
    assert found[f"{world}.hit.ops"] and found[f"{world}.write.ops"]


def test_the_snapshot_pins_only_measured_groups():
    for section in snapshot.load("counts")["measured"].values():
        assert {key.split(".")[0] for key in section} == set(counts.GROUPS)
