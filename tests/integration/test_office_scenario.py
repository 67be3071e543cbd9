"""An end-to-end "office" scenario exercising most subsystems together.

A research lab: a group space shares project documents on the filer; a
manager reads summaries; the team's mail thread is a prefetched
collection; an access-controlled budget file rejects outsiders; each
person reads through their own application-level cache, and the caches
share one transform-memo plane (§3's sharing across users).
"""

from __future__ import annotations

import pytest

from repro.cache.manager import DocumentCache
from repro.cache.notifiers import InvalidationBus
from repro.cache.memo import MEMO_CAPACITY
from repro.cache.policies import MemoPolicy
from repro.cluster.memo_share import SharedTransformMemo
from repro.errors import PermissionDeniedError
from repro.nfs.server import NFSServer
from repro.placeless.collection import DocumentCollection
from repro.placeless.kernel import PlacelessKernel
from repro.properties.access import AccessControlProperty
from repro.properties.collection import attach_collection_prefetch
from repro.properties.summarize import SummaryProperty
from repro.properties.versioning import VersioningProperty
from repro.providers.filesystem import FileSystemProvider
from repro.providers.mail import MailServer, MessageProvider
from repro.providers.simfs import SimulatedFileSystem
from repro.sim.topology import ClusterTopology


@pytest.fixture
def office():
    kernel = PlacelessKernel()
    karin = kernel.create_user("karin")
    doug = kernel.create_user("doug")
    manager = kernel.create_user("manager")
    team = kernel.create_group("csl-team", [karin, doug])

    filer = SimulatedFileSystem(kernel.ctx.clock)
    filer.write("/projects/placeless/design.txt",
                b"Design. Placeless stores documents by property. "
                b"More detail follows. And follows.")
    filer.write("/projects/placeless/budget.txt", b"budget: 100000 USD")

    design = kernel.create_document(
        team,
        FileSystemProvider(kernel.ctx, filer,
                           "/projects/placeless/design.txt"),
        "design",
    )
    design.attach(VersioningProperty())
    budget = kernel.create_document(
        karin,
        FileSystemProvider(kernel.ctx, filer,
                           "/projects/placeless/budget.txt"),
        "budget",
    )
    budget.attach(AccessControlProperty(allowed={karin, manager}))

    team_design_ref = kernel.space(team).add_reference(design, "design")
    manager_design_ref = kernel.space(manager).add_reference(design, "design")
    manager_design_ref.attach(SummaryProperty(max_sentences=1))
    karin_budget_ref = kernel.space(karin).add_reference(budget, "budget")
    doug_budget_ref = kernel.space(doug).add_reference(budget, "budget")

    bus = InvalidationBus(kernel.ctx)
    people = ("karin", "doug", "manager")
    plane = SharedTransformMemo(
        MEMO_CAPACITY,
        topology=ClusterTopology(
            shards=list(people), default_link="app-to-reference"
        ),
    )
    caches = {}
    for person in people:
        caches[person] = DocumentCache(
            kernel, capacity_bytes=1 << 20, bus=bus,
            memo_policy=MemoPolicy(), memo=plane, name=f"office-{person}",
        )
        plane.attach(person, caches[person].core)
    return {
        "kernel": kernel,
        "filer": filer,
        "team": team,
        "refs": {
            "team_design": team_design_ref,
            "manager_design": manager_design_ref,
            "karin_budget": karin_budget_ref,
            "doug_budget": doug_budget_ref,
        },
        "caches": caches,
        "plane": plane,
        "users": {"karin": karin, "doug": doug, "manager": manager},
    }


class TestGroupSharing:
    def test_group_members_share_one_cached_version(self, office):
        app_cache = office["caches"]["karin"]
        team_ref = office["refs"]["team_design"]
        app_cache.read(team_ref)
        # Any member acting through the group reference hits the same
        # entry: the key is the group principal.
        assert app_cache.read(team_ref).hit
        assert len([e for e in app_cache.entries()
                    if e.user_id == office["team"]]) == 1

    def test_manager_summary_differs_from_team_view(self, office):
        kernel = office["kernel"]
        team_view = kernel.read(office["refs"]["team_design"]).content
        manager_view = kernel.read(office["refs"]["manager_design"]).content
        assert len(manager_view) < len(team_view)
        assert manager_view.startswith(b"Design.")


class TestAccessControl:
    def test_doug_cannot_read_budget(self, office):
        with pytest.raises(PermissionDeniedError):
            office["caches"]["doug"].read(office["refs"]["doug_budget"])

    def test_karin_reads_budget_fine(self, office):
        outcome = office["caches"]["karin"].read(
            office["refs"]["karin_budget"]
        )
        assert b"100000" in outcome.content

    def test_doug_is_denied_after_karin_read_it(self, office):
        # Karin's read leaves the budget in her cache, next to the
        # shared memo plane; the access check must still see Doug's read.
        caches = office["caches"]
        caches["karin"].read(office["refs"]["karin_budget"])
        with pytest.raises(PermissionDeniedError):
            caches["doug"].read(office["refs"]["doug_budget"])
        assert caches["doug"].memo_stats.adoptions == 0
        assert office["plane"].imports == 0


class TestHierarchyAndVersioning:
    def test_edit_through_nfs_versions_and_invalidates(self, office):
        kernel = office["kernel"]
        karin_cache = office["caches"]["karin"]
        manager_cache = office["caches"]["manager"]
        team_ref = office["refs"]["team_design"]
        manager_ref = office["refs"]["manager_design"]
        karin_cache.read(team_ref)
        manager_cache.read(manager_ref)

        # Karin edits through MS-Word/NFS using the team reference.
        nfs = NFSServer(kernel)
        mount = nfs.mount(office["team"])
        mount.bind("/design.txt", team_ref)
        mount.write_file("/design.txt", b"Design v2. Rewritten entirely.")

        # The universal versioning property archived the old content.
        versioning = team_ref.base.find_property("versioning")
        assert versioning.version_count == 1
        # Both cached views (team + manager), in two caches, were
        # invalidated.
        team_view = karin_cache.read(team_ref)
        manager_view = manager_cache.read(manager_ref)
        assert not manager_view.hit
        assert not team_view.hit or b"v2" in team_view.content
        assert b"Design v2." in team_view.content
        assert manager_view.content == b"Design v2."  # summary of v2

    def test_out_of_band_filer_change_caught(self, office):
        kernel = office["kernel"]
        app_cache = office["caches"]["karin"]
        team_ref = office["refs"]["team_design"]
        app_cache.read(team_ref)
        kernel.ctx.clock.advance(5.0)
        office["filer"].write(
            "/projects/placeless/design.txt", b"Changed on the filer."
        )
        outcome = app_cache.read(team_ref)
        assert not outcome.hit
        assert outcome.content == b"Changed on the filer."


class TestMailThread:
    def test_thread_prefetch(self, office):
        kernel = office["kernel"]
        app_cache = office["caches"]["karin"]
        karin = office["users"]["karin"]
        mail = MailServer(kernel.ctx.clock)
        for n in range(3):
            mail.deliver("karin", "doug@parc", f"msg {n}", b"body")
        refs = [
            kernel.import_document(
                karin, MessageProvider(kernel.ctx, mail, "karin", uid),
                f"m{uid}",
            )
            for uid in (1, 2, 3)
        ]
        thread = DocumentCollection("thread", karin)
        for ref in refs:
            thread.add(ref)
        attach_collection_prefetch(thread, app_cache)
        app_cache.read(refs[0])
        assert app_cache.read(refs[1]).hit
        assert app_cache.read(refs[2]).hit
