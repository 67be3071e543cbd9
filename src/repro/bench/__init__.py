"""Benchmark harness: regenerates every table/figure and the ablations.

One module per experiment in DESIGN.md's index:

* :mod:`repro.bench.table1` — the paper's Table 1 (access times for
  no-cache / cache-miss / cache-hit on the three named documents);
* :mod:`repro.bench.notifier_verifier` — A1, the notifier/verifier
  trade-off §3 poses and §5 defers;
* :mod:`repro.bench.replacement` — A2, Greedy-Dual-Size with
  property-supplied costs vs. baselines;
* :mod:`repro.bench.sharing` — A3, content-signature sharing;
* :mod:`repro.bench.cacheability` — A4, the three cacheability levels
  and event forwarding vs. the WWW "make it uncacheable" alternative;
* :mod:`repro.bench.invalidation` — A5, the four consistency classes
  end-to-end;
* :mod:`repro.bench.qos` — A6, QoS cost inflation under pressure;
* :mod:`repro.bench.chains` — A7, latency vs. property-chain length;
* :mod:`repro.bench.placement`, :mod:`~repro.bench.collections`,
  :mod:`~repro.bench.external`, :mod:`~repro.bench.writes` — A8–A11,
  cache placement, collection prefetch, notifier-vs-verifier placement
  of one external dependency, write-through vs. write-back;
* :mod:`repro.bench.faults`, :mod:`~repro.bench.recovery`,
  :mod:`~repro.bench.containment` — A12–A14, availability under
  injected faults, consistency recovery, misbehaving property code;
* :mod:`repro.bench.memo`, :mod:`~repro.bench.stampede`,
  :mod:`~repro.bench.cluster`, :mod:`~repro.bench.persistence`,
  :mod:`~repro.bench.overload`, :mod:`~repro.bench.scale` — A15–A20,
  one per opt-in seam (transform memo, single-flight, sharded cluster,
  durable L2, overload control) plus the wall-clock scale run, each
  with a ``--smoke`` size.  A12–A20 write ``BENCH_<ID>.json``.

The id → module registry is ``repro.__main__._EXPERIMENT_MODULES``;
each module exposes ``run_*`` returning structured rows and a ``main()``
that prints the paper-style table, and ``python -m repro.bench`` (or
``python -m repro bench all``) runs every one of them from it.
"""

from repro.bench.harness import format_table, mean

__all__ = ["format_table", "mean"]
