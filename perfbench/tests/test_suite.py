"""Suite mode: child processes, the result file, and --check-repeat."""

import copy
import json
import re

from perfbench import cli, suite


def test_benchmark_json_meets_the_contract_limits():
    benchmark = cli.load_benchmark()
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert benchmark["paths"] == ["perfbench"]
    assert 2 <= len(benchmark["workloads"]) <= 8
    assert 1 <= len(benchmark["end_to_end"]) <= 16
    assert 1 <= len(benchmark["per_layer"]) <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in benchmark[section]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for workload in benchmark["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in benchmark["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(
        m for m in benchmark["end_to_end"] if m["name"] == "setup_s"
    )
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(
        m["bound"] for m in benchmark["end_to_end"]
    )


def test_suite_runs_children_and_writes_the_result_file(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = cli.main([
        "--smoke", "--repeats", "2", "--seconds", "0", "--no-trace",
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["seed"] == cli.DEFAULT_SEED
    assert report["environment"]["probe.calibration_us"] > 0
    assert report["environment"]["nproc"] >= 1
    benchmark = cli.load_benchmark()
    assert list(report["workloads"]) == [
        workload["name"] for workload in benchmark["workloads"]
    ]
    for entry in report["workloads"].values():
        assert entry["correct"] and entry["failed"] == 0
        assert "per_layer" not in entry
        for metric in benchmark["end_to_end"]:
            cell = entry["end_to_end"][metric["name"]]
            assert len(cell["values"]) == 2
            assert min(cell["values"]) <= cell["median"] <= max(
                cell["values"]
            )
    printed = capsys.readouterr().out
    assert "== seams_on: correct" in printed
    assert "ops_per_s" in printed


def _report(ops_per_s, hit_ratio=0.5, evictions=7):
    benchmark = cli.load_benchmark()
    end_to_end = {
        metric["name"]: {"median": 1.0, "values": [1.0], "unit": "x"}
        for metric in benchmark["end_to_end"]
    }
    end_to_end["ops_per_s"]["median"] = ops_per_s
    end_to_end["hit_ratio"]["median"] = hit_ratio
    return {"workloads": {"hot_hits": {
        "end_to_end": end_to_end,
        "per_layer": {
            "cache.evictions": {"value": evictions, "unit": "count"},
            "cache.read.self_s": {"value": 1.0, "unit": "s"},
        },
    }}}


def test_compare_holds_wall_clock_to_bounds_and_counts_to_identity(capsys):
    benchmark = cli.load_benchmark()
    bound = next(
        m["bound"] for m in benchmark["end_to_end"]
        if m["name"] == "ops_per_s"
    )
    base = _report(1000.0)
    assert suite.compare(base, copy.deepcopy(base), benchmark)
    assert suite.compare(base, _report(1000.0 * (1 + bound / 2)), benchmark)
    assert not suite.compare(
        base, _report(1000.0 * (1 - 2 * bound)), benchmark
    )
    assert "EXCEEDS" in capsys.readouterr().out
    # Seed-determined metrics and traced counts get no slack at all ...
    assert not suite.compare(base, _report(1000.0, hit_ratio=0.5001),
                             benchmark)
    assert not suite.compare(base, _report(1000.0, evictions=8), benchmark)
    assert "DIFFERS" in capsys.readouterr().out
    # ... while traced times are not compared.
    slower = _report(1000.0)
    slower["workloads"]["hot_hits"]["per_layer"]["cache.read.self_s"][
        "value"] = 9.0
    assert suite.compare(base, slower, benchmark)
