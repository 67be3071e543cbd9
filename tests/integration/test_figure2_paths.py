"""Figure 2: the read/write path through the active-property mechanism.

The MS-Word save flow, exactly as §2 narrates it: "When Word issues the
save/write request, it results in a getoutputstream call on Eyal's
reference ... forwarded from the reference to the base document, which in
turn invokes the call on the bit-provider ... At the base document all
attached active properties interested in the getoutputstream operation
get dispatched ... the reference dispatches all its active properties
interested in the getoutputstream operation, which in this case means
that it invokes the spelling corrector."

Here the application is off-the-shelf, so operations arrive through the
NFS translation layer (footnote 2).
"""

from __future__ import annotations

import pytest

from repro.events.types import EventType
from repro.nfs.server import NFSServer
from repro.placeless.kernel import PlacelessKernel
from repro.properties.spellcheck import SpellingCorrectorProperty
from repro.properties.versioning import VersioningProperty
from repro.providers.filesystem import FileSystemProvider
from repro.providers.simfs import SimulatedFileSystem


@pytest.fixture
def figure2():
    kernel = PlacelessKernel()
    eyal = kernel.create_user("eyal")
    fs = SimulatedFileSystem(kernel.ctx.clock)
    fs.write("/tilde/edelara/hotos.doc", b"Original draft with a documnet typo.")
    base = kernel.create_document(
        eyal, FileSystemProvider(kernel.ctx, fs, "/tilde/edelara/hotos.doc"),
        "hotos.doc",
    )
    versioning = VersioningProperty()
    base.attach(versioning)
    reference = kernel.space(eyal).add_reference(base, "hotos.doc")
    spell = SpellingCorrectorProperty()
    reference.attach(spell)
    server = NFSServer(kernel)
    mount = server.mount(eyal)
    mount.bind("/hotos.doc", reference)
    return kernel, fs, base, reference, versioning, spell, mount


class TestWritePath:
    def test_msword_save_flow(self, figure2):
        kernel, fs, base, reference, versioning, spell, mount = figure2
        # MS-Word opens for write and saves.
        fh = mount.open("/hotos.doc", "w")
        mount.write(fh, b"New teh draft.")
        mount.close(fh)
        # 1. The versioning property (base, getoutputstream) snapshotted
        #    the old content before the overwrite.
        assert versioning.version_count == 1
        assert b"Original draft" in versioning.snapshots[0].content
        # 2. The spelling corrector's custom output-stream transformed the
        #    written bytes before they reached the bit-provider.
        assert fs.read("/tilde/edelara/hotos.doc") == b"New the draft."

    def test_write_dispatch_base_before_reference(self, figure2):
        kernel, fs, base, reference, versioning, spell, mount = figure2
        order = []
        base.dispatcher.register(
            kernel.ctx.ids.property("probe-base"),
            {EventType.GET_OUTPUT_STREAM},
            lambda e: order.append("base"),
        )
        reference.dispatcher.register(
            kernel.ctx.ids.property("probe-ref"),
            {EventType.GET_OUTPUT_STREAM},
            lambda e: order.append("reference"),
        )
        mount.write_file("/hotos.doc", b"x")
        assert order == ["base", "reference"]


class TestReadPath:
    def test_read_through_nfs_applies_chain(self, figure2):
        kernel, fs, base, reference, versioning, spell, mount = figure2
        content = mount.read_file("/hotos.doc")
        # The spelling corrector is also on getinputstream (§2).
        assert b"document" in content
        assert b"documnet" not in content

    def test_read_dispatch_base_before_reference(self, figure2):
        kernel, fs, base, reference, versioning, spell, mount = figure2
        order = []
        base.dispatcher.register(
            kernel.ctx.ids.property("probe-base"),
            {EventType.GET_INPUT_STREAM},
            lambda e: order.append("base"),
        )
        reference.dispatcher.register(
            kernel.ctx.ids.property("probe-ref"),
            {EventType.GET_INPUT_STREAM},
            lambda e: order.append("reference"),
        )
        mount.read_file("/hotos.doc")
        assert order == ["base", "reference"]

    def test_spell_corrector_dispatched_on_both_operations(self, figure2):
        kernel, fs, base, reference, versioning, spell, mount = figure2
        before = spell.dispatch_count
        mount.read_file("/hotos.doc")
        mount.write_file("/hotos.doc", b"y")
        assert spell.dispatch_count == before + 2

    def test_versioning_not_dispatched_on_read(self, figure2):
        kernel, fs, base, reference, versioning, spell, mount = figure2
        mount.read_file("/hotos.doc")
        assert versioning.version_count == 0
