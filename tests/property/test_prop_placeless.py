"""Property-based tests over the Placeless layer and simulated filer.

Key invariants:

* the NFS layer is a faithful byte transport: whatever an application
  writes through a (transform-free) mount is read back identically,
  regardless of write/read chunking;
* §3's sharing across users is *transparent*: a memo-served entry
  serves exactly the bytes a full read-path execution would have
  produced;
* the simulated filer behaves like a dict of paths under random
  operation sequences.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cache.manager import DocumentCache
from repro.cache.policies import MemoPolicy
from repro.nfs.server import NFSServer
from repro.placeless.chain import read_plan
from repro.placeless.kernel import PlacelessKernel
from repro.properties.spellcheck import SpellingCorrectorProperty
from repro.properties.translate import TranslationProperty
from repro.providers.memory import MemoryProvider
from repro.providers.simfs import SimulatedFileSystem
from repro.sim.clock import VirtualClock

payloads = st.binary(min_size=0, max_size=2048)
chunk_sizes = st.integers(min_value=1, max_value=300)


class TestNFSTransport:
    @given(payloads, chunk_sizes, chunk_sizes)
    @settings(max_examples=40, deadline=None)
    def test_write_read_roundtrip_any_chunking(
        self, data, write_chunk, read_chunk
    ):
        kernel = PlacelessKernel()
        user = kernel.create_user("u")
        reference = kernel.import_document(
            user, MemoryProvider(kernel.ctx), "file"
        )
        mount = NFSServer(kernel).mount(user)
        mount.bind("/f", reference)

        fh = mount.open("/f", "w")
        for start in range(0, len(data), write_chunk):
            mount.write(fh, data[start : start + write_chunk])
        mount.close(fh)

        fh = mount.open("/f", "r")
        pieces = []
        while True:
            piece = mount.read(fh, read_chunk)
            if not piece:
                break
            pieces.append(piece)
        mount.close(fh)
        assert b"".join(pieces) == data


class TestAdoptionTransparency:
    @given(
        st.text(
            alphabet=st.sampled_from("abcdefgh theworldcache "), max_size=200
        ),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_adopted_content_equals_full_read(self, text, with_chain):
        kernel = PlacelessKernel()
        alice = kernel.create_user("alice")
        bob = kernel.create_user("bob")
        base = kernel.create_document(
            alice, MemoryProvider(kernel.ctx, text.encode()), "doc"
        )
        ref_a = kernel.space(alice).add_reference(base)
        ref_b = kernel.space(bob).add_reference(base)
        if with_chain:
            ref_a.attach(TranslationProperty())
            ref_b.attach(TranslationProperty())
            ref_a.attach(SpellingCorrectorProperty())
            ref_b.attach(SpellingCorrectorProperty())
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20, memo_policy=MemoPolicy()
        )
        cache.read(ref_a)
        adopted = cache.read(ref_b)
        ground_truth = kernel.read(ref_b).content
        assert adopted.content == ground_truth
        # Identical chains must actually have shared.
        assert adopted.disposition == "miss-memoized"


class FilerMachine(RuleBasedStateMachine):
    """The simulated filer behaves as a dict of normalized paths."""

    PATHS = ["/a", "/a/b", "/dir/file", "/dir/sub/deep", "/z"]

    def __init__(self):
        super().__init__()
        self.fs = SimulatedFileSystem(VirtualClock())
        self.model: dict[str, bytes] = {}

    @rule(path=st.sampled_from(PATHS), data=payloads)
    def write(self, path, data):
        self.fs.write(path, data)
        self.model[path] = data

    @rule(path=st.sampled_from(PATHS), data=payloads)
    def append(self, path, data):
        self.fs.append(path, data)
        self.model[path] = self.model.get(path, b"") + data

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove(self, data):
        path = data.draw(st.sampled_from(sorted(self.model)))
        self.fs.remove(path)
        del self.model[path]

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def rename_to_fresh(self, data):
        source = data.draw(st.sampled_from(sorted(self.model)))
        target = "/renamed" + source
        if target in self.model:
            return
        self.fs.rename(source, target)
        self.model[target] = self.model.pop(source)

    @invariant()
    def contents_match_model(self):
        assert set(self.fs.files()) == set(self.model)
        for path, content in self.model.items():
            assert self.fs.read(path) == content
        assert self.fs.total_bytes == sum(
            len(content) for content in self.model.values()
        )


TestFilerMachine = FilerMachine.TestCase


class TestChainSignatureConsistency:
    """Sharing safety hinges on the read plan's chain signature
    predicting exactly what a real read path records; they must never
    drift."""

    @given(
        st.lists(st.sampled_from(["spell", "translate", "none"]), max_size=4),
        st.lists(st.sampled_from(["spell", "translate", "none"]), max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_predicted_signature_matches_recorded(self, base_chain, ref_chain):
        kernel = PlacelessKernel()
        user = kernel.create_user("u")
        base = kernel.create_document(
            user, MemoryProvider(kernel.ctx, b"content"), "doc"
        )
        reference = kernel.space(user).add_reference(base)
        serial = 0
        for site, spec in [(base, name) for name in base_chain] + [
            (reference, name) for name in ref_chain
        ]:
            serial += 1
            if spec == "spell":
                site.attach(SpellingCorrectorProperty(name=f"s{serial}"))
            elif spec == "translate":
                site.attach(TranslationProperty(name=f"t{serial}"))
            else:
                from repro.properties.audit import ReadAuditTrailProperty

                site.attach(ReadAuditTrailProperty(name=f"a{serial}"))
        predicted = read_plan(reference).chain_signature
        result = reference.open_input()
        result.read_all()
        assert result.meta.chain_signature == predicted
