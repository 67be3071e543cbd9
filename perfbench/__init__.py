"""perfbench: the repository's wall-clock yardstick.

Four closed-loop, single-threaded workloads (``hot_hits``,
``miss_chain``, ``churn_mixed``, ``seams_on``) measured from *outside*
the ``repro`` package — every number comes from timing calls into its
public functions — plus per-layer numbers from a traced run (timing
wrappers rebound around layer-boundary callables) and from isolated
probes.  See ``perfbench/README.md`` for what each workload stresses and
how the metrics interact; ``BENCHMARK.json`` at the repo root fixes the
metric names, directions and regression bounds.

Run it with ``python3 -m perfbench`` from the repository root.
"""
