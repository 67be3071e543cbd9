"""``python -m repro doctor``: healthy at its default seed, the report
shows the effective configuration of every seam it wires, and the
kernel-wide containment guard's breakers are listed once."""

from __future__ import annotations

import argparse

from repro.__main__ import _cmd_doctor


def test_doctor_is_healthy_and_prints_the_wired_configuration(capsys):
    assert _cmd_doctor(argparse.Namespace(seed=7)) == 0
    out = capsys.readouterr().out
    assert "verdict: healthy" in out
    block = out.split("configuration:\n", 1)[1].split("\n\n", 1)[0]
    lines = {
        line.split()[0]: line.split()[1:] for line in block.splitlines()
    }
    assert set(lines) == {"memo", "overload", "containment", "storage"}
    assert lines["memo"] == ["on"]
    memo = out.split("memo:\n", 1)[1].split("\n\n", 1)[0]
    assert all("/1024 " in line for line in memo.splitlines())
    assert "shedding=True" in lines["overload"]
    assert "failure_threshold=3" in lines["containment"]
    assert "breaker_failure_threshold=3" in lines["storage"]
    breakers = out.split("breakers (open):\n", 1)[1].split("\n\n", 1)[0]
    assert breakers.split() == ["wrapper=0", "verifier=0", "notifier=0"]
