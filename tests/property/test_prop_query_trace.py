"""Property-based tests: query algebra laws."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.placeless.kernel import PlacelessKernel
from repro.placeless.properties import StaticProperty
from repro.placeless.query import HasProperty, IsActive, Predicate, Query
from repro.providers.memory import MemoryProvider

LABELS = ["red", "green", "blue", "budget"]


def build_space(assignments: list[list[int]]):
    """A space with one doc per assignment row; labels by index."""
    kernel = PlacelessKernel()
    user = kernel.create_user("u")
    for index, label_indices in enumerate(assignments):
        reference = kernel.import_document(
            user, MemoryProvider(kernel.ctx, b"x"), f"d{index}"
        )
        for label_index in set(label_indices):
            reference.attach(StaticProperty(LABELS[label_index]))
    return kernel.space(user)


# Random query trees over the label atoms.
def query_trees(max_depth=4):
    atoms = st.sampled_from(LABELS).map(HasProperty)
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda ab: ab[0] & ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] | ab[1]),
            children.map(lambda q: ~q),
        ),
        max_leaves=8,
    )


assignments_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=3), max_size=3),
    min_size=1,
    max_size=6,
)


class TestQueryAlgebra:
    @given(assignments_strategy, query_trees())
    @settings(max_examples=40, deadline=None)
    def test_negation_partitions_the_space(self, assignments, query):
        space = build_space(assignments)
        everything = set(space.references())
        matched = set(query.run(space))
        unmatched = set((~query).run(space))
        assert matched | unmatched == everything
        assert matched & unmatched == set()

    @given(assignments_strategy, query_trees(), query_trees())
    @settings(max_examples=40, deadline=None)
    def test_de_morgan_laws(self, assignments, a, b):
        space = build_space(assignments)
        assert set((~(a | b)).run(space)) == set(((~a) & (~b)).run(space))
        assert set((~(a & b)).run(space)) == set(((~a) | (~b)).run(space))

    @given(assignments_strategy, query_trees())
    @settings(max_examples=30, deadline=None)
    def test_idempotence(self, assignments, query):
        space = build_space(assignments)
        assert set((query & query).run(space)) == set(query.run(space))
        assert set((query | query).run(space)) == set(query.run(space))

    @given(assignments_strategy)
    @settings(max_examples=20, deadline=None)
    def test_predicate_true_matches_everything(self, assignments):
        space = build_space(assignments)
        assert set(Predicate(lambda r: True).run(space)) == set(
            space.references()
        )

    @given(assignments_strategy)
    @settings(max_examples=20, deadline=None)
    def test_static_only_space_has_no_active_docs(self, assignments):
        space = build_space(assignments)
        assert IsActive().run(space) == []
