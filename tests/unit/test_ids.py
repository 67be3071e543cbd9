"""Tests for the typed id namespaces and the deterministic generator."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.ids import (
    CacheId,
    DocumentId,
    IdGenerator,
    PropertyId,
    ReferenceId,
    UserId,
    VersionId,
)


class TestIdTypes:
    def test_distinct_types_are_not_equal(self):
        assert DocumentId("x") != ReferenceId("x")
        assert UserId("x") != PropertyId("x")

    def test_same_type_same_value_equal(self):
        assert DocumentId("7") == DocumentId("7")

    def test_ids_are_hashable(self):
        table = {DocumentId("a"): 1, UserId("a"): 2, ReferenceId("a"): 3}
        assert table[DocumentId("a")] == 1
        assert table[UserId("a")] == 2
        assert table[ReferenceId("a")] == 3

    def test_str_includes_namespace(self):
        assert str(DocumentId("7")) == "doc:7"
        assert str(ReferenceId("7")) == "ref:7"
        assert str(UserId("7")) == "user:7"
        assert str(PropertyId("7")) == "prop:7"
        assert str(CacheId("7")) == "cache:7"
        assert str(VersionId("7")) == "version:7"


_ID_TYPES = (DocumentId, ReferenceId, UserId, PropertyId, CacheId, VersionId)


@pytest.mark.parametrize("id_type", _ID_TYPES, ids=lambda t: t.__name__)
class TestStrRepresentation:
    """Ids are namespaced ``str`` subclasses that still read as before."""

    def test_repr_is_the_dataclass_repr(self, id_type):
        # Fingerprints and digests that repr an id must not move.
        assert repr(id_type("7")) == f"{id_type.__name__}(value='7')"

    def test_value_round_trips(self, id_type):
        assert id_type("7-hotos.doc").value == "7-hotos.doc"
        assert id_type(id_type("7").value) == id_type("7")

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda i: pickle.loads(pickle.dumps(i))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_keep_type_and_value(self, id_type, clone):
        original = id_type("7")
        twin = clone(original)
        assert type(twin) is id_type
        assert twin == original and twin.value == "7"

    def test_str_is_a_plain_string(self, id_type):
        assert type(str(id_type("7"))) is str
        assert type(f"{id_type('7')}") is str

    def test_non_str_value_is_refused(self, id_type):
        with pytest.raises(TypeError):
            id_type(7)


class TestIdGenerator:
    def test_serials_start_at_one(self):
        gen = IdGenerator()
        assert gen.document().value == "1"

    def test_serials_increment_per_namespace(self):
        gen = IdGenerator()
        gen.document()
        gen.document()
        assert gen.document().value == "3"

    def test_namespaces_are_independent(self):
        gen = IdGenerator()
        gen.document()
        gen.document()
        assert gen.user().value == "1"
        assert gen.reference().value == "1"

    def test_hint_is_embedded(self):
        gen = IdGenerator()
        assert gen.document("hotos.doc").value == "1-hotos.doc"

    def test_two_generators_are_identical(self):
        first = IdGenerator()
        second = IdGenerator()
        for _ in range(5):
            assert first.property("p") == second.property("p")

    def test_all_namespaces_mint_correct_types(self):
        gen = IdGenerator()
        assert isinstance(gen.document(), DocumentId)
        assert isinstance(gen.reference(), ReferenceId)
        assert isinstance(gen.user(), UserId)
        assert isinstance(gen.property(), PropertyId)
        assert isinstance(gen.cache(), CacheId)
        assert isinstance(gen.version(), VersionId)
