"""The seed-determined part of a ``BENCH_*.json`` artifact.

Table 1 through A19 read only the virtual clock, so their smoke-size
artifacts are pure functions of the seed: a difference from
``golden/bench_smoke.json`` *is* a behaviour change.  Pinned is every
key of every artifact except ``git_sha``; A20 is the wall-clock
experiment and contributes only the seed-determined columns of its
churn shootout.  Floats are pinned to nine significant digits
(``sum()`` is compensated from Python 3.12 on, so a mean's last bits
differ between the interpreters CI runs).  The comparison is
``snapshot.py``'s (``python -m tests.integration.snapshot bench``,
after ``python -m repro bench all --smoke``).
"""

from __future__ import annotations

import math

#: The virtual columns of A20's churn rows (the rest is wall clock/RSS).
A20_CHURN_KEYS = ("events", "reads", "hit_ratio", "evictions", "materialized")


def _canonical(value):
    """Floats to nine significant digits; NaN/inf to strings."""
    if isinstance(value, float):
        return float(f"{value:.9g}") if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_canonical(item) for item in value]
    return value


def pinned(payload: dict) -> dict:
    """The seed-determined part of one artifact."""
    metrics = payload["metrics"]
    if payload["experiment"] == "A20":
        metrics = {
            "churn": {
                policy: {key: row[key] for key in A20_CHURN_KEYS}
                for policy, row in metrics["churn"].items()
            }
        }
    return _canonical({"seed": payload["seed"], "metrics": metrics})
