"""Smoke-size runs of every workload: repeatability and correctness."""

import json
import re
from pathlib import Path
from time import perf_counter

import pytest

from repro.cache.manager import CacheReadOutcome, DocumentCache
from repro.errors import CacheError

from perfbench import cli, runner
from perfbench.layers import TARGETS
from perfbench.tracing import Tracer, defining_class
from perfbench.workloads import BUILDERS, SIZES

WORKLOADS = list(BUILDERS)
SEED = 61


@pytest.fixture(scope="module")
def untraced():
    started = perf_counter()
    results = {
        name: runner.run_untraced(name, SEED, seconds=0, smoke=True)
        for name in WORKLOADS
    }
    return results, perf_counter() - started


def test_smoke_of_every_workload_is_quick_and_correct(untraced):
    results, elapsed = untraced
    assert elapsed < 20
    for name, result in results.items():
        assert result.correct, (name, result.notes)
        assert result.failed == 0
        assert result.attempted > 0
        assert all(value > 0 for value in result.values.values()), name


def _note(result, prefix):
    return next(n for n in result.notes if n.startswith(prefix))


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_repeats_exactly_and_another_seed_differs(untraced, name):
    first = untraced[0][name]
    again = runner.run_untraced(name, SEED, seconds=0, smoke=True)
    other = runner.run_untraced(name, SEED + 1, seconds=0, smoke=True)
    for metric in ("hit_ratio", "virtual_ms_per_read"):
        assert again.values[metric] == first.values[metric]
    assert _note(again, "stored_bytes_ratio") == _note(
        first, "stored_bytes_ratio"
    )
    assert other.values["virtual_ms_per_read"] != (
        first.values["virtual_ms_per_read"]
    )


def test_traced_counts_repeat_and_wrappers_are_restored():
    originals = {
        (label, attribute): vars(defining_class(cls, attribute))[attribute]
        for label, cls, attribute in TARGETS
    }
    first = runner.run_traced("seams_on", SEED, smoke=True)
    again = runner.run_traced("seams_on", SEED, smoke=True)
    for label, cls, attribute in TARGETS:
        assert vars(defining_class(cls, attribute))[attribute] is (
            originals[(label, attribute)]
        ), label
    assert first.correct, first.notes
    exact = [
        name for name in first.values
        if name.endswith(".calls")
        or name.startswith(("cache.", "placeless.", "storage.", "workload."))
        and not name.endswith(".self_s")
    ]
    assert len(exact) > 30
    for name in exact:
        assert first.values[name] == again.values[name], name
    assert first.values["cluster.read.calls"] > 0
    assert first.values["storage.append.calls"] > 0
    assert first.values["cache.memo.lookup.calls"] > 0
    assert first.values["trace.overhead_ratio"] > 0


def test_layer_self_times_account_for_the_traced_reads(tmp_path):
    size = SIZES["miss_chain"]["smoke"]
    tracer = Tracer(capacity=100_000)
    runner.run_round("miss_chain", SEED, size, tmp_path, tracer=tracer)
    assert tracer.dropped == 0
    summary = tracer.summary()
    reads = summary["cache.read"]
    assert reads.calls == 2 * size.per_pass
    # Everything traced under a read, plus the read's own self time, is
    # the reads' total; the write burst's spans are the only others.
    burst = summary["cache.write"].root_s
    layered = sum(cell.self_s for cell in summary.values()) - burst
    assert layered == pytest.approx(reads.total_s, rel=0.05)
    assert summary["placeless.kernel_read"].self_s > 0


def test_a_corrupted_served_byte_fails_the_run(monkeypatch, capsys):
    honest = DocumentCache.read

    def corrupting(self, reference):
        outcome = honest(self, reference)
        flipped = bytes([outcome.content[0] ^ 0xFF]) + outcome.content[1:]
        return CacheReadOutcome(
            content=flipped, hit=outcome.hit,
            elapsed_ms=outcome.elapsed_ms, disposition=outcome.disposition,
        )

    monkeypatch.setattr(DocumentCache, "read", corrupting)
    code = cli.main(
        ["--workload", "hot_hits", "--seconds", "0", "--smoke"]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert code != 0
    assert json.loads(lines[-1])["correct"] is False
    wrong = next(line for line in lines if line.startswith("# wrong_bytes"))
    assert int(wrong.split()[-1]) > 0


def test_a_raising_operation_counts_as_failed_and_is_reported(monkeypatch):
    honest = DocumentCache.write
    calls = []

    def flaky(self, reference, content):
        calls.append(reference)
        if len(calls) % 2:
            raise CacheError("refused")
        return honest(self, reference, content)

    monkeypatch.setattr(DocumentCache, "write", flaky)
    result = runner.run_untraced("hot_hits", SEED, seconds=0, smoke=True)
    assert result.failed == len(calls) // 2
    assert not result.correct
    assert "first failed operation: CacheError('refused')" in result.notes


@pytest.mark.parametrize("trace", [0, 1])
def test_single_run_prints_exactly_the_declared_metrics(capsys, trace):
    benchmark = cli.load_benchmark()
    declared = benchmark["per_layer" if trace else "end_to_end"]
    code = cli.main([
        "--workload", "churn_mixed", "--seconds", "0", "--smoke",
        "--trace", str(trace),
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        # ... and each is also printed by name with its unit.
        assert any(
            re.match(rf"{re.escape(metric['name'])}\s+\S+ "
                     rf"{re.escape(metric['unit'])}$", line)
            for line in lines
        ), metric["name"]


def test_nothing_is_left_in_the_scratch_directory():
    runner.run_probes_only(smoke=True)
    assert not list(Path(runner.OUT).glob("scratch-*"))
