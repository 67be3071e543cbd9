"""Tests for property-based document queries."""

from __future__ import annotations

import pytest

from repro.placeless.collection import DocumentCollection
from repro.placeless.properties import StaticProperty
from repro.placeless.query import (
    HasProperty,
    IsActive,
    NameMatches,
    Predicate,
    PropertyValue,
)
from repro.properties.translate import TranslationProperty
from repro.providers.memory import MemoryProvider


@pytest.fixture
def library(kernel, user):
    """Five documents with varied property labels."""
    refs = {}
    for name in ("budget", "draft", "report", "memo", "video"):
        refs[name] = kernel.import_document(
            user, MemoryProvider(kernel.ctx, name.encode()), name
        )
    refs["budget"].attach(StaticProperty("budget related"))
    refs["budget"].attach(StaticProperty("fiscal-year", 1999))
    refs["draft"].attach(StaticProperty("1999 workshop submission"))
    refs["draft"].attach(TranslationProperty())
    refs["report"].attach(StaticProperty("budget related"))
    refs["report"].attach(StaticProperty("fiscal-year", 2000))
    refs["memo"].attach(StaticProperty("read by", "11/30"))
    space = kernel.space(user)
    return refs, space


class TestAtoms:
    def test_has_property(self, library):
        refs, space = library
        found = HasProperty("budget related").run(space)
        assert set(found) == {refs["budget"], refs["report"]}

    def test_has_property_sees_universal_properties(self, library, kernel,
                                                    other_user):
        refs, space = library
        refs["memo"].base.attach(StaticProperty("universal-label"))
        other_ref = kernel.space(other_user).add_reference(refs["memo"].base)
        found = HasProperty("universal-label").run(kernel.space(other_user))
        assert found == [other_ref]

    def test_property_value(self, library):
        refs, space = library
        found = PropertyValue("fiscal-year", 1999).run(space)
        assert found == [refs["budget"]]

    def test_property_value_mismatch(self, library):
        refs, space = library
        assert PropertyValue("fiscal-year", 2024).run(space) == []

    def test_name_matches_glob(self, library):
        refs, space = library
        found = NameMatches("*workshop*").run(space)
        assert found == [refs["draft"]]

    def test_is_active(self, library):
        refs, space = library
        found = IsActive().run(space)
        assert found == [refs["draft"]]

    def test_is_active_ignores_infrastructure(self, library, kernel):
        from repro.properties.recorder import EventRecorder

        refs, space = library
        refs["memo"].attach(EventRecorder())
        assert refs["memo"] not in IsActive().run(space)

    def test_predicate_escape_hatch(self, library):
        refs, space = library
        big_chains = Predicate(lambda ref: len(ref.properties) >= 2)
        found = big_chains.run(space)
        assert set(found) == {refs["budget"], refs["draft"], refs["report"]}


class TestCombinators:
    def test_and(self, library):
        refs, space = library
        query = HasProperty("budget related") & PropertyValue(
            "fiscal-year", 2000
        )
        assert query.run(space) == [refs["report"]]

    def test_or(self, library):
        refs, space = library
        query = HasProperty("read by") | HasProperty("1999 workshop submission")
        assert set(query.run(space)) == {refs["memo"], refs["draft"]}

    def test_not(self, library):
        refs, space = library
        query = ~HasProperty("budget related")
        found = set(query.run(space))
        assert refs["budget"] not in found
        assert refs["video"] in found

    def test_de_morgan(self, library):
        refs, space = library
        a = HasProperty("budget related")
        b = IsActive()
        lhs = set((~(a | b)).run(space))
        rhs = set(((~a) & (~b)).run(space))
        assert lhs == rhs

    def test_nested_composition(self, library):
        refs, space = library
        query = (HasProperty("budget related") | IsActive()) & ~PropertyValue(
            "fiscal-year", 1999
        )
        assert set(query.run(space)) == {refs["report"], refs["draft"]}


class TestQueryCollections:
    def test_collection_from_query(self, library):
        refs, space = library
        collection = DocumentCollection.from_query(
            "budget-docs", space, HasProperty("budget related")
        )
        assert set(collection.members()) == {refs["budget"], refs["report"]}
        assert collection.owner == space.owner
