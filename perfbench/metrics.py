"""The benchmark's metric catalog: names, units, and what each layer
metric should move.

``BENCHMARK.json`` at the repository root lists the same end-to-end and
per-layer metrics (the self-tests assert the two agree); this module
adds what that file's fixed schema has no room for — the module each
layer metric measures, the end-to-end metric a change to that layer
should move, and why some metrics the design asked for are per-layer
rather than end-to-end.
"""

from __future__ import annotations

#: The workloads, in the order BENCHMARK.json lists them.
WORKLOAD_NAMES = ("lp_heavy", "fleet", "replan", "service")

#: Workloads the command still runs but BENCHMARK.json leaves out, and
#: why.
DROPPED = {
    "wide_frontier": "loads no layer the four listed workloads do not "
    "(lp_heavy and replan also run core.list_scheduler); its ~1.7 ops/s "
    "gave the noisiest medians, and its share of the time budget buys "
    "longer, steadier runs of the other four",
}

#: (name, unit, better, bound) — measured with tracing off, reported by
#: every workload.  ``bound`` is the share of the parent's median by
#: which a later change may worsen the metric.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "op/s", "higher", 0.25),
    ("latency_p50_s", "s", "lower", 0.25),
    ("ratio_mean", "ratio", "lower", 0.06),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: (name, unit, better, layer module, end-to-end metric it should move)
#: — measured in the traced run.  A layer a workload never loads
#: reports 0.
PER_LAYER = (
    # Demoted from end-to-end (see DEMOTED).
    ("failed_frac", "ratio", "lower", "all", "failed_frac"),
    ("latency_p90_s", "s", "lower", "all", "latency_p90_s"),
    ("latency_samples", "count", "higher", "all", "-"),
    ("hit_latency_p50_s", "s", "lower", "service", "hit latency"),
    ("hit_latency_p90_s", "s", "lower", "service", "hit latency"),
    ("miss_latency_p50_s", "s", "lower", "service", "miss latency"),
    ("miss_latency_p90_s", "s", "lower", "service", "miss latency"),
    ("replan_latency_p50_s", "s", "lower", "service", "replan latency"),
    # Layers.
    ("dag.build_s", "s", "lower", "dag", "setup_s"),
    ("dag.edges", "count", "lower", "dag", "setup_s"),
    ("core.instance_build_s", "s", "lower", "core.instance", "setup_s"),
    ("core.content_key_s", "s", "lower", "core.fingerprint",
     "hit_latency_p50_s"),
    ("core.arrays_s", "s", "lower", "core.arrays", "latency_p50_s"),
    ("core.lp_assemble_s", "s", "lower", "core.lp", "latency_p50_s"),
    ("core.lp_rows", "count", "lower", "core.lp", "latency_p50_s"),
    ("core.lp_nnz", "count", "lower", "core.lp", "latency_p50_s"),
    ("lpsolve.solve_s", "s", "lower", "lpsolve", "latency_p50_s"),
    ("lpsolve.pivots", "count", "lower", "lpsolve", "latency_p50_s"),
    ("lpsolve.warm_pivots", "count", "lower", "lpsolve.highs_warm",
     "latency_p50_s"),
    ("core.round_s", "s", "lower", "core.rounding", "latency_p50_s"),
    ("core.list_s", "s", "lower", "core.list_scheduler", "latency_p50_s"),
    ("core.frontier_steps", "count", "lower", "core.list_scheduler",
     "latency_p50_s"),
    ("core.frontier_size_sum", "count", "lower", "core.list_scheduler",
     "latency_p50_s"),
    ("core.frontier_peak", "count", "lower", "core.list_scheduler",
     "latency_p50_s"),
    ("core.list_tier.array", "count", "higher", "core.list_scheduler",
     "ops_per_s"),
    ("core.list_tier.loop", "count", "lower", "core.list_scheduler",
     "ops_per_s"),
    ("pipeline.solve_s", "s", "lower", "pipeline", "latency_p50_s"),
    ("pipeline.self_s", "s", "lower", "pipeline", "latency_p50_s"),
    ("engine.run_s", "s", "lower", "engine", "ops_per_s"),
    ("engine.batched_share", "ratio", "higher", "engine", "ops_per_s"),
    ("engine.group_fallbacks", "count", "lower", "engine", "ops_per_s"),
    ("engine.pool_chunks", "count", "lower", "engine", "ops_per_s"),
    ("batchkernel.pack_s", "s", "lower", "batchkernel", "ops_per_s"),
    ("batchkernel.lp_assemble_s", "s", "lower", "batchkernel",
     "ops_per_s"),
    ("batchkernel.lp_solve_s", "s", "lower", "batchkernel", "ops_per_s"),
    ("batchkernel.round_s", "s", "lower", "batchkernel", "ops_per_s"),
    ("batchkernel.list_s", "s", "lower", "batchkernel", "ops_per_s"),
    ("batchkernel.blocks", "count", "higher", "batchkernel", "ops_per_s"),
    ("batchkernel.packed_tasks", "count", "higher", "batchkernel",
     "ops_per_s"),
    ("core.evolve_commit_s", "s", "lower", "core.evolve, dag.patch",
     "latency_p50_s"),
    ("pipeline.resolve_delta_s", "s", "lower", "pipeline.incremental",
     "latency_p50_s"),
    ("pipeline.lp_edits", "count", "lower", "pipeline.incremental",
     "latency_p50_s"),
    ("pipeline.warm_share", "ratio", "higher", "lpsolve.highs_warm",
     "latency_p50_s"),
    ("schedule.anchored_s", "s", "lower", "schedule.replan",
     "replan_latency_p50_s"),
    ("schedule.diff_s", "s", "lower", "schedule.replan",
     "replan_latency_p50_s"),
    ("schedule.validate_s", "s", "lower", "schedule.validator",
     "replan_latency_p50_s"),
    ("io.encode_s", "s", "lower", "io", "hit_latency_p50_s"),
    ("io.parse_s", "s", "lower", "io", "hit_latency_p50_s"),
    ("io.request_bytes", "bytes", "lower", "io", "hit_latency_p50_s"),
    ("io.response_bytes", "bytes", "lower", "io", "hit_latency_p50_s"),
    ("service.client_attempts", "count", "lower", "service.client",
     "failed_frac"),
    ("service.daemon_solve_s", "s", "lower", "service.broker",
     "miss_latency_p50_s"),
    ("service.wait_s", "s", "lower", "service.broker",
     "miss_latency_p50_s"),
    ("service.cache_hit_ratio", "ratio", "higher", "service.cache",
     "hit_latency_p50_s"),
    ("service.deduped", "count", "higher", "service.broker",
     "miss_latency_p50_s"),
    ("service.refused", "count", "lower", "service.broker",
     "failed_frac"),
    ("service.errors", "count", "lower", "service.broker", "failed_frac"),
    ("service.pool_restarts", "count", "lower", "service.broker",
     "failed_frac"),
    ("obs.trace_overhead", "ratio", "lower", "obs", "none"),
)

#: Metrics the design asked for end to end that are reported per layer,
#: and why.  End-to-end metrics must be reported by every workload and
#: never be 0.
DEMOTED = {
    "failed_frac": "0 on a correct tree, and an end-to-end metric must "
    "never be 0; the result line's attempted/failed carry it, and any "
    "failure already fails the run",
    "latency_p90_s": "needs >=100 ops per run for 10 samples beyond it; "
    "lp_heavy and replan complete about that many, so it would "
    "be missing from some runs",
    "hit_latency_p50_s": "service only; end-to-end metrics are reported "
    "by every workload",
    "hit_latency_p90_s": "service only, and p90 moved 13% between probe "
    "runs",
    "miss_latency_p50_s": "service only",
    "miss_latency_p90_s": "service only, and p90 is not steady",
    "replan_latency_p50_s": "service only, about 10% of its requests",
}

#: Metrics reported as a maximum over ops rather than a per-op value.
PEAK_METRICS = frozenset({"core.frontier_peak"})


def end_to_end_names():
    return [name for name, *_ in END_TO_END]


def per_layer_names():
    return [name for name, *_ in PER_LAYER]


def unit_of(name: str) -> str:
    for entry in END_TO_END + PER_LAYER:
        if entry[0] == name:
            return entry[1]
    raise KeyError(name)
