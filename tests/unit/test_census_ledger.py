"""The form of ``tests/integration/golden/unreached.txt``, by AST only.

Whether each listed function is still unreached takes the production
runs (``python -m tests.integration.census``, CI's ``census`` job); this
checks what needs no run: every line names a ``def`` that exists under
``src/repro``, carries a known tag and a reason, and the ledger is
sorted with no key twice.
"""

from __future__ import annotations

from tests.integration.census import LEDGER, TAGS, defined, differences


def _lines() -> list[list[str]]:
    return [
        line.split("  ", 1)
        for line in LEDGER.read_text(encoding="utf-8").splitlines()
    ]


def test_every_line_names_an_existing_def():
    missing = {key for key, _ in _lines()} - defined()
    assert not missing, f"no such def under src/repro: {sorted(missing)}"


def test_every_reason_carries_a_tag_and_says_why():
    for key, reason in _lines():
        tag, _, why = reason.partition(": ")
        assert tag in TAGS, f"{key}: {reason!r} starts with no tag of {set(TAGS)}"
        assert len(why) > 10, f"{key}: reason {why!r} says too little"


def test_keys_are_sorted_and_unique():
    keys = [key for key, _ in _lines()]
    assert keys == sorted(set(keys))


def test_differences_catch_both_directions():
    existing = {"a.py:f", "a.py:g", "a.py:h"}
    ledger = {"a.py:f": "protocol", "a.py:g": "paper", "a.py:gone": "arm"}
    assert differences({"a.py:f", "a.py:h"}, ledger, existing) == [
        "unreached, not on the ledger: a.py:h",
        "on the ledger, no longer defined: a.py:gone",
        "on the ledger, now reached: a.py:g",
    ]
