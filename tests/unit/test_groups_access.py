"""Tests for group document spaces, access control, watermarking,
serve-stale-on-error and the CLI."""

from __future__ import annotations

import pytest

from repro.__main__ import main as cli_main
from repro.cache.manager import DocumentCache
from repro.cache.policies import DegradationPolicy, MemoPolicy
from repro.errors import PermissionDeniedError, RepositoryOfflineError
from repro.faults.plan import FaultPlan, OutageWindow
from repro.properties.access import AccessControlProperty, WatermarkProperty
from repro.properties.translate import TranslationProperty
from repro.providers.memory import MemoryProvider
from repro.providers.web import WebOrigin, WebProvider


class TestGroupSpaces:
    @pytest.fixture
    def group_world(self, kernel, user, other_user):
        group = kernel.create_group("csl", [user, other_user])
        provider = MemoryProvider(kernel.ctx, b"group charter")
        base = kernel.create_document(group, provider, "charter")
        group_ref = kernel.space(group).add_reference(base)
        return group, group_ref

    def test_group_space_knows_members(self, kernel, user, other_user,
                                       group_world):
        group, _ = group_world
        space = kernel.space(group)
        assert space.is_group
        assert space.is_member(user)
        assert space.is_member(other_user)

    def test_nonmember_is_not_member(self, kernel, group_world):
        group, _ = group_world
        stranger = kernel.create_user("stranger")
        assert not kernel.space(group).is_member(stranger)

    def test_membership_mutation(self, kernel, user, group_world):
        group, _ = group_world
        space = kernel.space(group)
        newcomer = kernel.create_user("newcomer")
        space.add_member(newcomer)
        assert space.is_member(newcomer)
        space.remove_member(newcomer)
        assert not space.is_member(newcomer)

    def test_group_requires_existing_members(self, kernel):
        from repro.errors import SpaceNotFoundError
        from repro.ids import UserId

        with pytest.raises(SpaceNotFoundError):
            kernel.create_group("ghosts", [UserId("nobody")])

    def test_group_reference_shares_one_cache_entry(self, kernel, group_world):
        group, group_ref = group_world
        group_ref.attach(TranslationProperty())
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        cache.read(group_ref)
        # Reads through the group reference hit regardless of which human
        # member is acting — the entry is keyed by the group principal.
        assert cache.read(group_ref).hit
        assert len(cache) == 1

    def test_individual_space_is_not_group(self, kernel, user):
        assert not kernel.space(user).is_group


class TestAccessControl:
    @pytest.fixture
    def guarded(self, kernel, user, other_user):
        provider = MemoryProvider(kernel.ctx, b"classified")
        base = kernel.create_document(user, provider, "secret")
        base.attach(AccessControlProperty(allowed={user}))
        mine = kernel.space(user).add_reference(base)
        theirs = kernel.space(other_user).add_reference(base)
        return mine, theirs

    def test_owner_reads_fine(self, kernel, guarded):
        mine, _ = guarded
        assert kernel.read(mine).content == b"classified"

    def test_outsider_read_denied(self, kernel, guarded):
        _, theirs = guarded
        with pytest.raises(PermissionDeniedError):
            kernel.read(theirs)

    def test_outsider_write_denied(self, kernel, guarded):
        _, theirs = guarded
        with pytest.raises(PermissionDeniedError):
            kernel.write(theirs, b"overwrite attempt")

    def test_denied_read_caches_nothing(self, kernel, guarded):
        _, theirs = guarded
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        with pytest.raises(PermissionDeniedError):
            cache.read(theirs)
        assert len(cache) == 0

    def test_denials_counted(self, kernel, guarded):
        mine, theirs = guarded
        guard = mine.base.find_property("access-control")
        for _ in range(2):
            with pytest.raises(PermissionDeniedError):
                kernel.read(theirs)
        assert guard.denials == 2

    def test_read_only_guard_allows_writes(self, kernel, user, other_user):
        provider = MemoryProvider(kernel.ctx, b"dropbox")
        base = kernel.create_document(user, provider, "inbox")
        base.attach(
            AccessControlProperty(allowed={user}, deny_writes=False)
        )
        theirs = kernel.space(other_user).add_reference(base)
        kernel.write(theirs, b"submission")  # writes allowed
        assert provider.peek() == b"submission"
        with pytest.raises(PermissionDeniedError):
            kernel.read(theirs)


class TestWatermark:
    @pytest.fixture
    def watermarked(self, kernel, user, other_user):
        provider = MemoryProvider(kernel.ctx, b"the report")
        base = kernel.create_document(user, provider, "report")
        mine = kernel.space(user).add_reference(base)
        theirs = kernel.space(other_user).add_reference(base)
        mine.attach(WatermarkProperty())
        theirs.attach(WatermarkProperty())
        return mine, theirs

    def test_each_user_sees_own_watermark(self, kernel, watermarked):
        mine, theirs = watermarked
        my_view = kernel.read(mine).content
        their_view = kernel.read(theirs).content
        assert str(mine.owner).encode() in my_view
        assert str(theirs.owner).encode() in their_view
        assert my_view != their_view

    def test_watermarked_versions_not_shared_in_store(self, kernel, watermarked):
        mine, theirs = watermarked
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        cache.read(mine)
        cache.read(theirs)
        assert len(cache.store) == 2  # distinct bytes per user

    def test_adoption_refuses_watermarked_content(self, kernel, watermarked):
        mine, theirs = watermarked
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20, memo_policy=MemoPolicy()
        )
        cache.read(mine)
        outcome = cache.read(theirs)
        # Chain signatures embed the owner, so the memo cannot match.
        assert outcome.disposition == "miss"
        assert cache.memo_stats.adoptions == 0
        assert str(theirs.owner).encode() in outcome.content

    def test_base_watermark_is_shared_as_its_owner_stamps_it(
        self, kernel, user, other_user
    ):
        # On the base document the watermark's signature names the
        # document's owner for every reader, so its output must too: a
        # reader-dependent stamp would let the memo hand one reader's
        # stamp to another.
        base = kernel.create_document(
            user, MemoryProvider(kernel.ctx, b"the report"), "report"
        )
        base.attach(WatermarkProperty())
        mine = kernel.space(user).add_reference(base)
        theirs = kernel.space(other_user).add_reference(base)
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20, memo_policy=MemoPolicy()
        )
        cache.read(mine)
        outcome = cache.read(theirs)
        assert outcome.content == kernel.read(theirs).content
        assert str(user).encode() in outcome.content


def _take_www_offline(kernel, duration_ms=float("inf")):
    """Schedule a ``www`` outage from now, as production does: through
    the context's fault plan."""
    now = kernel.ctx.clock.now_ms
    kernel.ctx.faults = FaultPlan(
        kernel.ctx.clock,
        outages=(OutageWindow(now, now + duration_ms, "www"),),
    )


class TestServeStaleOnError:
    @pytest.fixture
    def flaky_world(self, kernel, user):
        origin = WebOrigin(kernel.ctx.clock, host="www")
        origin.publish("/page", b"fresh content", ttl_ms=1000.0)
        reference = kernel.import_document(
            user, WebProvider(kernel.ctx, origin, "/page"), "page"
        )
        return origin, reference

    def test_stale_served_when_repository_offline(self, kernel, flaky_world):
        origin, reference = flaky_world
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20,
            degradation_policy=DegradationPolicy(serve_stale_on_error=True),
        )
        cache.read(reference)
        kernel.ctx.clock.advance(2000.0)  # TTL expired
        _take_www_offline(kernel)
        outcome = cache.read(reference)
        assert outcome.disposition == "stale-on-error"
        assert outcome.content == b"fresh content"
        assert cache.stats.stale_served_on_error == 1

    def test_error_propagates_without_flag(self, kernel, flaky_world):
        origin, reference = flaky_world
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        cache.read(reference)
        kernel.ctx.clock.advance(2000.0)
        _take_www_offline(kernel)
        with pytest.raises(RepositoryOfflineError):
            cache.read(reference)

    def test_error_propagates_on_cold_miss_even_with_flag(
        self, kernel, flaky_world
    ):
        origin, reference = flaky_world
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20,
            degradation_policy=DegradationPolicy(serve_stale_on_error=True),
        )
        _take_www_offline(kernel)
        with pytest.raises(RepositoryOfflineError):
            cache.read(reference)  # nothing stale to fall back on

    def test_recovery_after_repository_returns(self, kernel, flaky_world):
        origin, reference = flaky_world
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20,
            degradation_policy=DegradationPolicy(serve_stale_on_error=True),
        )
        cache.read(reference)
        kernel.ctx.clock.advance(2000.0)
        _take_www_offline(kernel, duration_ms=1_000.0)
        cache.read(reference)  # stale
        kernel.ctx.clock.advance(1_000.0)  # the outage window closes
        origin.author_edit("/page", b"recovered content")
        outcome = cache.read(reference)
        assert outcome.disposition == "miss"
        assert outcome.content == b"recovered content"


class TestCLI:
    def test_info_command(self, capsys):
        assert cli_main(["info"]) == 0
        output = capsys.readouterr().out
        assert "HotOS 1999" in output

    def test_demo_command(self, capsys):
        assert cli_main(["demo"]) == 0
        output = capsys.readouterr().out
        assert "eyal reads: The world of documents" in output
        assert "hit" in output

    def test_bench_single_experiment(self, capsys):
        assert cli_main(["bench", "a5"]) == 0
        assert "consistency class" in capsys.readouterr().out

    def test_bench_unknown_experiment(self, capsys):
        assert cli_main(["bench", "a99"]) == 2


class TestCLIRouting:
    def test_every_experiment_module_resolves_and_has_main(self):
        import importlib

        from repro.__main__ import _EXPERIMENT_MODULES

        assert set(_EXPERIMENT_MODULES) == {
            "table1", "a1", "a2", "a3", "a4", "a5",
            "a6", "a7", "a8", "a9", "a10", "a11",
            "a12", "faults", "a13", "recovery",
            "a14", "containment", "a15", "memo",
            "a16", "stampede", "a17", "cluster",
            "a18", "persistence", "a19", "overload",
            "a20", "scale",
        }
        for module_name in _EXPERIMENT_MODULES.values():
            module = importlib.import_module(module_name)
            assert callable(module.main), module_name

    @pytest.mark.parametrize("entry", ["repro bench all", "repro.bench"])
    def test_all_runs_the_whole_registry_and_forwards_smoke(
        self, entry, monkeypatch
    ):
        # One registry and one protocol: A18–A20 used to be missing from
        # a second table, ``all`` dropped ``--smoke`` on the floor, and
        # 15 of the 21 mains could not take it at all.
        import importlib
        import sys

        from repro.__main__ import _EXPERIMENT_MODULES
        from repro.bench.__main__ import main as bench_main

        ran: list[tuple[str, bool]] = []
        modules = list(dict.fromkeys(_EXPERIMENT_MODULES.values()))
        for name in modules:
            monkeypatch.setattr(
                importlib.import_module(name), "main",
                lambda smoke=False, name=name: ran.append((name, smoke)),
            )
        if entry == "repro.bench":
            monkeypatch.setattr(sys, "argv", ["repro.bench", "--smoke"])
            assert bench_main() == 0
        else:
            assert cli_main(["bench", "all", "--smoke"]) == 0
        assert ran == [(name, True) for name in modules]
        assert len(modules) == 21

    def test_smoke_reaches_a_one_size_experiment(self, capsys):
        # ``--smoke`` used to exit 2 ("has no smoke mode") on 15 ids.
        assert cli_main(["bench", "a5", "--smoke"]) == 0
        assert "consistency class" in capsys.readouterr().out

    def test_index_is_derived_from_the_registry(self, capsys):
        # Ids, aliases, parser epilog, ``bench`` help and ``repro info``
        # all come from _EXPERIMENT_MODULES + each module's first
        # docstring line.
        import importlib

        from repro.__main__ import (
            _EXPERIMENT_MODULES,
            _experiment_index,
            build_parser,
        )

        index = _experiment_index().splitlines()
        assert len(index) == 21
        assert index[12].split()[:2] == ["a12", "(faults)"]
        for module_name in _EXPERIMENT_MODULES.values():
            title = importlib.import_module(module_name).__doc__
            assert title.splitlines()[0] in _experiment_index()
        parser = build_parser()
        assert _experiment_index() in parser.epilog
        assert cli_main(["info"]) == 0
        assert _experiment_index() in capsys.readouterr().out
        with pytest.raises(SystemExit):
            parser.parse_args(["bench", "--help"])
        bench_help = " ".join(capsys.readouterr().out.split())
        assert ", ".join(_EXPERIMENT_MODULES) in bench_help

    def test_parser_builds(self):
        from repro.__main__ import build_parser

        parser = build_parser()
        args = parser.parse_args(["bench", "a3"])
        assert args.experiment == "a3"
