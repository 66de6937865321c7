"""Which end-to-end metric, on which workload, each per-layer metric should move.

Written down before any optimisation is measured, so a later change that
claims a gain on one layer names the end-to-end number it must move.
Units and directions live in ``BENCHMARK.json``; this module needs no
import of dsmseq, so the compare tool can use it on its own.
"""

LAYER_EFFECTS = {
    "solver.expand_s.forward": "latency_p50_s, nodes_per_s on large-random",
    "solver.expand_s.backward": "latency_p50_s, nodes_per_s on large-random",
    "solver.expand_ns_per_node": "nodes_per_s on large-random and large-ties-2core",
    "solver.partition_s": "latency_p50_s on large-ties-2core and batch-small",
    "solver.merge_s": "latency_p50_s on large-ties-2core and batch-small",
    "solver.seed_s": "latency_p90_s on batch-small",
    "solver.pair_s": "latency_p50_s on large-ties-2core",
    "solver.unaccounted_s": "latency_p50_s on large-ties-2core and batch-small",
    "solver.expanded": "no time directly; a change to the search shows here as a count",
    "solver.survivors": "no time directly; a change to the search shows here as a count",
    "solver.transferred_records": "no time directly; a change to the search shows here as a count",
    "solver.survivor_ratio": "no time directly; a change to the search shows here as a count",
    "solver.peak_alloc_mb": "peak_rss_mb on large-random and large-ties-2core",
    "subsets.table_build_s": "setup_s",
    "subsets.rank_ns_per_call": "nodes_per_s on large-random and large-ties-2core",
    "generate.instance_s": "setup_s",
    "model.evaluate_s": "latency_p50_s on batch-small",
    "model.quadratic_s": "latency_p50_s on batch-small",
    "dsmio.read_s": "latency_p50_s, latency_p90_s on batch-small",
    "dsmio.write_solution_s": "latency_p50_s, latency_p90_s on batch-small",
    "cli.overhead_s": "latency_p90_s on batch-small",
    "trace.overhead_s": "no end-to-end metric: the cost of tracing itself",
}
