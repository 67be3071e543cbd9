"""Property: every durable record survives its binary encoding exactly.

Catalog, journal and memo records round-trip through the encoders the
tier writes with and the decoders its replay uses: ids with non-ASCII
text and lone surrogates, empty and long chains, a catalog record with
no source, pinned or not, and float costs to the last bit (``-0.0``
and infinities included).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cache.entry import EntryKey
from repro.cache.memo import ChainFingerprint, MemoRecord
from repro.content.signature import ContentSignature
from repro.contract.cacheability import Cacheability
from repro.ids import DocumentId, UserId
from repro.storage import K_JOURNAL, L2Record
from repro.storage.tier import _key_and, _keyed, _memo_payload, _memo_record

#: Any code point, lone surrogates included.
_TEXT = st.text(
    st.one_of(
        st.characters(),
        st.characters(categories=["Cs"]),
    ),
    max_size=12,
)
_CHAIN = st.lists(_TEXT, max_size=40).map(tuple)
_DIGEST = _TEXT.map(ContentSignature)
_COST = st.floats(allow_nan=False)
_VOTE = st.sampled_from(list(Cacheability))
_KEY = st.builds(
    EntryKey, _TEXT.map(DocumentId), _TEXT.map(UserId)
)

_CATALOG = st.builds(
    L2Record,
    _KEY,
    _DIGEST,
    st.integers(min_value=0, max_value=2 ** 40),
    _VOTE,
    _COST,
    _CHAIN,
    _CHAIN,
    st.none() | _DIGEST,
    st.booleans(),
    recovered=st.just(True),
)

_MEMO = st.builds(
    MemoRecord,
    _TEXT.map(DocumentId),
    _DIGEST,
    _TEXT.map(ChainFingerprint),
    _DIGEST,
    st.integers(min_value=0, max_value=2 ** 40),
    _VOTE,
    replacement_cost_ms=_COST,
    chain_signature=_CHAIN,
    pinned=st.booleans(),
)


@settings(max_examples=200)
@given(record=_CATALOG)
def test_a_catalog_record_round_trips(record):
    decoded = L2Record.from_payload(record.to_payload())
    assert decoded == record
    assert repr(decoded.replacement_cost_ms) == repr(record.replacement_cost_ms)


@settings(max_examples=200)
@given(
    key=_KEY, reference=_TEXT, base=_TEXT, content=st.binary(max_size=256)
)
def test_a_journal_record_round_trips(key, reference, base, content):
    payload = _keyed(key, reference, base, content)
    assert _key_and(K_JOURNAL, payload) == (key, reference, base, content)


@settings(max_examples=200)
@given(record=_MEMO)
def test_a_memo_record_round_trips(record):
    decoded = _memo_record(_memo_payload(record))
    assert decoded == record
    assert repr(decoded.replacement_cost_ms) == repr(record.replacement_cost_ms)
