"""Unit tests for the bench modules' derived metrics and records."""

from __future__ import annotations

import json
import math

import pytest

from repro.bench import harness
from repro.bench.chains import ChainLengthResult, _make_chain
from repro.bench.notifier_verifier import CONFIGURATIONS
from repro.bench.placement import PlacementResult
from repro.bench.sharing import SharingResult
from repro.bench.table1 import Table1Row


class TestTable1Row:
    def make(self, no_cache=100.0, miss=102.0, hit=1.0):
        return Table1Row(
            label="x", repository="www", size_bytes=1000,
            no_cache_ms=no_cache, miss_ms=miss, hit_ms=hit,
        )

    def test_hit_speedup(self):
        assert self.make().hit_speedup == pytest.approx(100.0)

    def test_zero_hit_latency_is_infinite_speedup(self):
        assert self.make(hit=0.0).hit_speedup == float("inf")

    def test_miss_overhead(self):
        row = self.make()
        assert row.miss_overhead_ms == pytest.approx(2.0)
        assert row.miss_overhead_fraction == pytest.approx(0.02)

    def test_zero_no_cache_overhead_fraction(self):
        row = self.make(no_cache=0.0, miss=0.0)
        assert row.miss_overhead_fraction == 0.0


class TestSharingResult:
    def test_dedup_factor(self):
        result = SharingResult(
            personalized_fraction=0.0, n_entries=10,
            distinct_contents=2, logical_bytes=1000, physical_bytes=250,
        )
        assert result.dedup_factor == pytest.approx(4.0)
        assert result.bytes_saved == 750

    def test_empty_store_dedup_is_one(self):
        result = SharingResult(
            personalized_fraction=0.0, n_entries=0,
            distinct_contents=0, logical_bytes=0, physical_bytes=0,
        )
        assert result.dedup_factor == 1.0


class TestChainHelpers:
    def test_make_chain_alternates_and_names_uniquely(self):
        chain = _make_chain(4)
        assert len(chain) == 4
        names = [prop.name for prop in chain]
        assert len(set(names)) == 4
        assert names[0].startswith("spell")
        assert names[1].startswith("translate")

    def test_empty_chain(self):
        assert _make_chain(0) == []

    def test_speedup_property(self):
        result = ChainLengthResult(
            chain_length=2, uncached_ms=50.0, hit_ms=0.5,
            replacement_cost_ms=10.0,
        )
        assert result.speedup == pytest.approx(100.0)


class TestConfigurations:
    def test_a1_covers_the_four_quadrants(self):
        combos = {(n, v) for _, n, v in CONFIGURATIONS}
        assert combos == {
            (False, False), (True, False), (False, True), (True, True),
        }


class TestPlacementResult:
    def test_fields_roundtrip(self):
        result = PlacementResult(
            deployment="both", mean_latency_ms=1.0,
            combined_hit_ratio=0.5, l1_hit_ratio=0.4, l2_hit_ratio=0.1,
            kernel_reads=10, bytes_cached=1024,
        )
        assert result.deployment == "both"
        assert result.bytes_cached == 1024


class TestOneRecordOneReport:
    """The harness derives the printed table and the artifact row from
    the one result declaration."""

    def make(self, **overrides):
        fields = dict(
            label="x", repository="www", size_bytes=1000,
            no_cache_ms=100.0, miss_ms=102.0, hit_ms=1.0,
        )
        return Table1Row(**{**fields, **overrides})

    def test_record_is_asdict_plus_public_properties(self):
        row = harness.record(self.make())
        assert row["label"] == "x" and row["hit_ms"] == 1.0
        assert row["hit_speedup"] == pytest.approx(100.0)
        assert row["miss_overhead_fraction"] == pytest.approx(0.02)
        assert set(row) == {
            "label", "repository", "size_bytes", "no_cache_ms", "miss_ms",
            "hit_ms", "hit_speedup", "miss_overhead_ms",
            "miss_overhead_fraction",
        }

    def test_a_column_is_header_and_cell_in_one_item(self):
        text = harness.table(
            [self.make(), self.make(label="y", hit_ms=None)],
            (
                ("doc", "label"),
                ("hit", harness.fmt("hit_ms", ".1f")),
                ("size", lambda r: f"{r.size_bytes} B"),
            ),
            title="T",
        )
        assert text.splitlines() == [
            "T",
            "doc  hit  size  ",
            "---  ---  ------",
            "x    1.0  1000 B",
            "y    -    1000 B",
        ]
        assert text == harness.format_table(
            ["doc", "hit", "size"],
            [("x", "1.0", "1000 B"), ("y", "-", "1000 B")],
            title="T",
        )

    def test_write_artifact_records_results_wherever_they_sit(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(harness, "_git", lambda *argv: None)
        monkeypatch.chdir(tmp_path)
        row = self.make(hit_ms=0.0)
        path = harness.write_artifact(
            "t9", {"rows": [row], "best": row, "smoke": True}, seed=3
        )
        assert path == tmp_path / "BENCH_T9.json"
        assert capsys.readouterr().out == "wrote BENCH_T9.json\n"
        payload = json.loads(path.read_text())
        assert payload["experiment"] == "T9" and payload["seed"] == 3
        metrics = payload["metrics"]
        assert metrics["rows"] == [metrics["best"]]
        assert metrics["best"]["size_bytes"] == 1000
        assert math.isinf(metrics["best"]["hit_speedup"])

    def test_the_shared_chain_world_shares_one_chain(self):
        kernel, corpus, population = harness.shared_chain_world(3, 2, seed=5)
        assert len(corpus) == 3
        first = population.reference(0, 1)
        second = population.reference(1, 1)
        assert first.base is second.base is corpus[1].reference.base
        assert kernel.read(first).content == kernel.read(second).content
