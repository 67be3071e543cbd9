"""Property test: a memo serve is what the uncached read would have been.

Two or three users share one document.  The base document and every
user's reference carry a random chain of shipped properties in random
configurations — word tables, target languages, summary lengths,
watermarks, encryption keys, an UNCACHEABLE vote, an "always available"
pin, a read-audit trail and an access check with a random allowed set.
Two identical worlds replay one random read order: one through a cache
with the transform memo, one through a cache without it.

For every read, the memo cache must return the bytes (or raise the
error) that ``kernel.read`` does; the entry it leaves must exist, and be
pinned, exactly when the plain cache's does; and every audit trail must
have seen as many reads in both worlds.  Sharing across users is only
an optimisation: it may never change what a reader gets or what a
property sees.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.manager import DocumentCache
from repro.cache.policies import MemoPolicy
from repro.placeless.kernel import PlacelessKernel
from repro.properties.access import AccessControlProperty, WatermarkProperty
from repro.properties.audit import ReadAuditTrailProperty
from repro.properties.encryption import EncryptionProperty
from repro.properties.qos import AlwaysAvailableProperty
from repro.properties.spellcheck import SpellingCorrectorProperty
from repro.properties.summarize import SummaryProperty
from repro.properties.translate import TranslationProperty
from repro.properties.uncacheable import UncacheableProperty
from repro.providers.memory import MemoryProvider

_TEXT = (
    b"hello wrold. The cache keeps a copy. Users share it.\n\n"
    b"A second paragraph. With two sentences."
)
_TABLES = ({"hello": "bonjour"}, {"hello": "hola", "cache": "cache"})
_CORRECTIONS = ({"wrold": "world"}, {"wrold": "word"})
_KEYS = (b"key-a", b"key-b")


def _items(n_users: int):
    """One chain item: a shipped property's kind plus its configuration."""
    return st.one_of(
        st.tuples(
            st.just("translate"), st.integers(0, 1), st.sampled_from("fe")
        ),
        st.tuples(st.just("spell"), st.integers(0, 1)),
        st.tuples(st.just("summary"), st.integers(1, 2)),
        st.tuples(st.just("watermark")),
        st.tuples(st.just("encrypt"), st.integers(0, 1)),
        st.tuples(st.just("uncacheable")),
        st.tuples(st.just("pin")),
        st.tuples(st.just("audit")),
        st.tuples(
            st.just("acl"),
            st.frozensets(st.integers(0, n_users - 1), max_size=n_users),
        ),
    )


@st.composite
def _scenarios(draw):
    n_users = draw(st.integers(2, 3))
    items = _items(n_users)
    base = draw(st.lists(items, max_size=2))
    chains = [draw(st.lists(items, max_size=3)) for _ in range(n_users)]
    order = draw(
        st.lists(st.integers(0, n_users - 1), min_size=2, max_size=8)
    )
    return n_users, base, chains, order


def _property(item, users):
    kind = item[0]
    if kind == "translate":
        return TranslationProperty(
            _TABLES[item[1]], target_language=item[2]
        )
    if kind == "spell":
        return SpellingCorrectorProperty(_CORRECTIONS[item[1]])
    if kind == "summary":
        return SummaryProperty(sentences_per_paragraph=item[1])
    if kind == "watermark":
        return WatermarkProperty()
    if kind == "encrypt":
        return EncryptionProperty(_KEYS[item[1]])
    if kind == "uncacheable":
        return UncacheableProperty()
    if kind == "pin":
        return AlwaysAvailableProperty()
    if kind == "audit":
        return ReadAuditTrailProperty()
    return AccessControlProperty(allowed={users[i] for i in item[1]})


def _world(n_users, base_chain, chains):
    """A kernel, one reference per user, and the world's audit trails."""
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    users = [kernel.create_user(f"user-{i}") for i in range(n_users)]
    base = kernel.create_document(
        owner, MemoryProvider(kernel.ctx, _TEXT), "doc"
    )
    attached = [base.attach(_property(item, users)) for item in base_chain]
    references = []
    for user, chain in zip(users, chains):
        reference = kernel.space(user).add_reference(base)
        attached += [reference.attach(_property(item, users)) for item in chain]
        references.append(reference)
    trails = [p for p in attached if isinstance(p, ReadAuditTrailProperty)]
    return kernel, references, trails


def _attempt(read):
    """The bytes *read* returns, or the type of error it raises."""
    try:
        return read()
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return type(error)


@given(_scenarios())
@settings(max_examples=60, deadline=None)
def test_memo_serves_what_the_kernel_reads(scenario):
    n_users, base_chain, chains, order = scenario
    kernel, references, trails = _world(n_users, base_chain, chains)
    plain_kernel, plain_references, plain_trails = _world(
        n_users, base_chain, chains
    )
    cache = DocumentCache(
        kernel, capacity_bytes=1 << 20, memo_policy=MemoPolicy()
    )
    plain = DocumentCache(plain_kernel, capacity_bytes=1 << 20)
    for index in order:
        reference = references[index]
        plain_reference = plain_references[index]
        expected = _attempt(lambda: kernel.read(reference).content)
        _attempt(lambda: plain_kernel.read(plain_reference).content)
        served = _attempt(lambda: cache.read(reference).content)
        assert served == expected, (index, order)
        _attempt(lambda: plain.read(plain_reference).content)
        entry = cache.entry_for(reference)
        plain_entry = plain.entry_for(plain_reference)
        assert (entry is None) == (plain_entry is None), (index, order)
        if entry is not None:
            assert entry.pinned == plain_entry.pinned, (index, order)
        assert [len(t.trail) for t in trails] == [
            len(t.trail) for t in plain_trails
        ], (index, order)
