"""Tests for the workload generators and the bench harness helpers."""

from __future__ import annotations

import collections
import random

import pytest

from repro.bench.harness import format_table, mean, percentile
from repro.errors import WorkloadError
from repro.placeless.kernel import PlacelessKernel
from repro.workload.churn import ChurnCatalog
from repro.workload.documents import (
    CorpusSpec,
    build_corpus,
    build_table1_documents,
    generate_text,
)
from repro.workload.trace import (
    TraceEventKind,
    TraceSpec,
    generate_trace,
    zipf_indices,
)
from repro.workload.users import build_population


class TestGenerateText:
    def test_exact_size(self):
        for size in (0, 1, 100, 5000):
            assert len(generate_text(size)) == size

    def test_deterministic_per_seed(self):
        assert generate_text(500, seed=1) == generate_text(500, seed=1)
        assert generate_text(500, seed=1) != generate_text(500, seed=2)

    def test_is_ascii_text_with_lines(self):
        text = generate_text(2000)
        decoded = text.decode("ascii")
        assert "\n" in decoded

    def test_negative_size_raises(self):
        with pytest.raises(WorkloadError):
            generate_text(-1)

    def test_contains_transformable_words(self):
        decoded = generate_text(5000, seed=3).decode()
        assert any(word in decoded for word in ("teh", "documnet", "the"))


class TestTable1Documents:
    def test_exact_paper_sizes(self):
        kernel = PlacelessKernel()
        owner = kernel.create_user("eyal")
        documents = build_table1_documents(kernel, owner)
        assert [d.size_bytes for d in documents] == [1915, 10_883, 1104]
        assert [d.repository for d in documents] == ["parcweb", "www", "www"]

    def test_documents_are_readable(self):
        kernel = PlacelessKernel()
        owner = kernel.create_user("eyal")
        documents = build_table1_documents(kernel, owner)
        for document in documents:
            content = kernel.read(document.reference).content
            assert len(content) == document.size_bytes


class TestCorpus:
    def test_respects_spec_count(self):
        kernel = PlacelessKernel()
        owner = kernel.create_user("o")
        corpus = build_corpus(kernel, owner, CorpusSpec(n_documents=20))
        assert len(corpus) == 20

    def test_sizes_within_bounds(self):
        kernel = PlacelessKernel()
        owner = kernel.create_user("o")
        spec = CorpusSpec(n_documents=50, min_size=200, max_size=5000)
        corpus = build_corpus(kernel, owner, spec)
        assert all(200 <= d.size_bytes <= 5000 for d in corpus)

    def test_repository_mix_is_used(self):
        kernel = PlacelessKernel()
        owner = kernel.create_user("o")
        corpus = build_corpus(kernel, owner, CorpusSpec(n_documents=60))
        repositories = {d.repository for d in corpus}
        assert repositories <= {"nfs", "parcweb", "www"}
        assert len(repositories) >= 2

    def test_bad_mix_raises(self):
        kernel = PlacelessKernel()
        owner = kernel.create_user("o")
        spec = CorpusSpec(repository_mix=(("nfs", 0.5),))
        with pytest.raises(WorkloadError):
            build_corpus(kernel, owner, spec)

    @pytest.mark.parametrize("index", [-1, -5, 5, 6])
    def test_an_index_outside_the_catalog_is_a_workload_error(self, index):
        kernel = PlacelessKernel()
        catalog = ChurnCatalog(
            kernel, kernel.create_user("o"), CorpusSpec(n_documents=5)
        )
        for lookup in (catalog.size_of, catalog.repository_of,
                       catalog.document):
            with pytest.raises(WorkloadError, match="out of range"):
                lookup(index)
        assert catalog.materialized_count == 0
        assert catalog.size_of(4) == catalog.document(4).size_bytes

    def test_unmintable_repository_is_rejected_by_name(self):
        kernel = PlacelessKernel()
        owner = kernel.create_user("o")
        spec = CorpusSpec(repository_mix=(("nfs", 0.5), ("dms", 0.5)))
        with pytest.raises(WorkloadError, match="'dms'"):
            ChurnCatalog(kernel, owner, spec)

    @pytest.mark.parametrize(
        "mix",
        [
            CorpusSpec.repository_mix,
            (("www", 0.25), ("nfs", 0.75)),
            (("parcweb", 0.0), ("nfs", 1.0), ("www", 0.0)),
        ],
    )
    def test_setup_pass_is_the_choices_draw(self, mix):
        """Sizes and repositories as ``lognormvariate`` + ``choices`` give them."""
        spec = CorpusSpec(n_documents=500, repository_mix=mix, seed=9)
        kernel = PlacelessKernel()
        catalog = ChurnCatalog(kernel, kernel.create_user("o"), spec)
        rng = random.Random(spec.seed)
        names = [name for name, _ in mix]
        weights = [weight for _, weight in mix]
        for index in range(spec.n_documents):
            size = int(rng.lognormvariate(spec.size_mu, spec.size_sigma))
            assert catalog.size_of(index) == max(
                spec.min_size, min(spec.max_size, size)
            )
            assert catalog.repository_of(index) == rng.choices(names, weights)[0]

    def test_content_matches_declared_size(self):
        kernel = PlacelessKernel()
        owner = kernel.create_user("o")
        corpus = build_corpus(kernel, owner, CorpusSpec(n_documents=5))
        for document in corpus:
            assert len(document.provider.peek()) == document.size_bytes


class TestZipf:
    def test_indices_in_range(self):
        indices = zipf_indices(50, 1000, alpha=0.8, seed=1)
        assert all(0 <= i < 50 for i in indices)
        assert len(indices) == 1000

    def test_popularity_is_monotone_ish(self):
        counts = collections.Counter(zipf_indices(20, 50_000, alpha=1.0, seed=2))
        assert counts[0] > counts[10] > counts.get(19, 0)

    def test_alpha_zero_roughly_uniform(self):
        counts = collections.Counter(zipf_indices(10, 50_000, alpha=0.0, seed=3))
        frequencies = [counts[i] / 50_000 for i in range(10)]
        assert max(frequencies) - min(frequencies) < 0.02

    def test_deterministic(self):
        assert zipf_indices(10, 100, seed=4) == zipf_indices(10, 100, seed=4)

    def test_invalid_args_raise(self):
        with pytest.raises(WorkloadError):
            zipf_indices(0, 10)
        with pytest.raises(WorkloadError):
            zipf_indices(10, 10, alpha=-1.0)


class TestTrace:
    def test_event_count(self):
        spec = TraceSpec(n_events=500)
        assert len(list(generate_trace(spec))) == 500

    def test_pure_read_trace(self):
        spec = TraceSpec(n_events=200)
        kinds = {e.kind for e in generate_trace(spec)}
        assert kinds == {TraceEventKind.READ}

    def test_mutation_mix_approximates_probabilities(self):
        spec = TraceSpec(
            n_events=20_000, p_write=0.1, p_out_of_band=0.1, seed=5
        )
        counts = collections.Counter(e.kind for e in generate_trace(spec))
        assert counts[TraceEventKind.WRITE] == pytest.approx(2000, rel=0.15)
        assert counts[TraceEventKind.OUT_OF_BAND_UPDATE] == pytest.approx(
            2000, rel=0.15
        )

    def test_think_time_respects_mean(self):
        spec = TraceSpec(n_events=5000, mean_think_time_ms=100.0, seed=6)
        times = [e.think_time_ms for e in generate_trace(spec)]
        assert mean(times) == pytest.approx(100.0, rel=0.1)

    def test_zero_think_time(self):
        spec = TraceSpec(n_events=10)
        assert all(e.think_time_ms == 0.0 for e in generate_trace(spec))

    def test_users_in_range(self):
        spec = TraceSpec(n_events=100, n_users=3, seed=7)
        assert all(0 <= e.user_index < 3 for e in generate_trace(spec))

    def test_excess_probabilities_raise(self):
        spec = TraceSpec(p_write=0.8, p_out_of_band=0.5)
        with pytest.raises(WorkloadError):
            list(generate_trace(spec))


class TestPopulation:
    def test_everyone_references_everything(self):
        kernel = PlacelessKernel()
        owner = kernel.create_user("o")
        corpus = build_corpus(kernel, owner, CorpusSpec(n_documents=4))
        population = build_population(kernel, corpus, n_users=3, seed=1)
        assert len(population.users) == 3
        for user_index in range(3):
            for document_index in range(4):
                reference = population.reference(user_index, document_index)
                assert reference.base is corpus[document_index].reference.base

    def test_personalized_fraction_extremes(self):
        kernel = PlacelessKernel()
        owner = kernel.create_user("o")
        corpus = build_corpus(kernel, owner, CorpusSpec(n_documents=2))
        all_plain = build_population(
            kernel, corpus, n_users=5, personalized_fraction=0.0
        )
        assert set(all_plain.chains) == {"plain"}
        kernel2 = PlacelessKernel()
        owner2 = kernel2.create_user("o")
        corpus2 = build_corpus(kernel2, owner2, CorpusSpec(n_documents=2))
        all_personal = build_population(
            kernel2, corpus2, n_users=5, personalized_fraction=1.0
        )
        assert "plain" not in all_personal.chains

    def test_chains_actually_attached(self):
        kernel = PlacelessKernel()
        owner = kernel.create_user("o")
        corpus = build_corpus(kernel, owner, CorpusSpec(n_documents=1))
        population = build_population(
            kernel, corpus, n_users=4, personalized_fraction=1.0, seed=2
        )
        for user_index, chain in enumerate(population.chains):
            reference = population.reference(user_index, 0)
            assert len(reference.active_properties()) >= 1


class TestHarness:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_percentile(self):
        values = list(range(101))
        assert percentile(values, 0) == 0
        assert percentile(values, 50) == 50
        assert percentile(values, 100) == 100
        assert percentile([], 50) == 0.0
        # The range is checked before the empty-input shortcut.
        with pytest.raises(ValueError):
            percentile([], 150)

    def test_percentile_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150)

    def test_format_table_aligns(self):
        table = format_table(
            ["name", "value"],
            [("short", 1.5), ("a-longer-name", 22.125)],
            title="Demo",
        )
        lines = table.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[1]
        assert "1.50" in table
        assert "22.12" in table

    def test_format_table_booleans(self):
        table = format_table(["flag"], [(True,), (False,)])
        assert "yes" in table and "no" in table

    def test_format_table_empty_rows(self):
        table = format_table(["a", "b"], [])
        assert "a" in table
