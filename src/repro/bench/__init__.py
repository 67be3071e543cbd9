"""Benchmark harness: regenerates every table/figure and the ablations.

One module per experiment — the paper's Table 1, A1–A11 on the paper's
own claims and open questions, A12–A20 one per robustness / scale seam.
The index (ids, aliases, run order) is one table,
``repro.__main__._EXPERIMENT_MODULES``; what each experiment measures is
the first line of its module docstring, and ``python -m repro info``
prints both.  ``python -m repro.bench`` (≡ ``python -m repro bench
all``) runs every one of them from that table.

Every experiment has the same shape (CONTRIBUTING.md has the recipe):

* a result **dataclass**, declared once;
* ``run_*`` functions returning those records;
* a **column list** — ``(header, attribute-or-callable)`` pairs — from
  which :func:`repro.bench.harness.table` prints the paper-style table;
* ``FULL`` / ``SMOKE`` **sizes** as data where the experiment has two
  (``--smoke`` on a one-size experiment runs that size);
* ``main(smoke=False)``, ending in
  :func:`repro.bench.harness.write_artifact`, which writes the records
  (``asdict`` + public properties) as ``BENCH_<ID>.json``.

Table 1–A19 run on the virtual clock only: their artifacts are pure
functions of the seed, pinned by
``tests/integration/golden/bench_smoke.json``.  A20 is the one
wall-clock experiment (a policy shootout at 10^6 documents); timing the
read path is ``perfbench/``'s job.
"""

from repro.bench.harness import format_table, mean

__all__ = ["format_table", "mean"]
