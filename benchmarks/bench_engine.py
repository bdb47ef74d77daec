"""Benchmark E5 — batch engine throughput and single-instance speedup.

Two measurements, written to ``BENCH_engine.json``:

1. **single** — wall clock of the optimized pipeline
   (:func:`repro.jz_schedule`: bulk NumPy LP assembly + incremental LIST)
   vs. the seed path (modeling-layer LP build/convert +
   :func:`repro.core.list_scheduler.list_schedule_reference`) on one
   500-task power-law instance.  Both paths produce the same schedule —
   asserted here — so the ratio is a pure implementation speedup.
2. **batch** — throughput (instances/second) of
   :func:`repro.engine.jz_schedule_many` across worker counts, with
   scaling efficiency normalized by the cores actually available
   (process pools cannot scale past ``os.cpu_count()``).

Run:  PYTHONPATH=src python benchmarks/bench_engine.py [--smoke] [-o OUT]

``--smoke`` shrinks sizes for CI; the committed reference JSON comes from
a full run.
"""

import argparse
import json
import os
import platform
import sys
import time

from repro import jz_schedule
from repro.core import (
    build_allotment_lp,
    jz_parameters,
    solve_allotment_lp,
)
from repro.core.list_scheduler import list_schedule, list_schedule_reference
from repro.core.lp import _result_from_values
from repro.core.rounding import rounding_stretch_report
from repro.engine import BatchRunner, jz_schedule_many
from repro.workloads import make_instance


def _seed_lp(instance):
    """Phase 1 along the seed's code path: modeling layer + per-constraint
    conversion in the scipy backend (or the dense simplex without scipy).
    The model holds today's slim LP (9) rows, as every path does."""
    built = build_allotment_lp(instance)
    sol = built.lp.solve(backend="auto")
    return _result_from_values(
        instance,
        x=tuple(sol[v] for v in built.x_vars),
        completion=tuple(sol[v] for v in built.c_vars),
        work_bar=tuple(sol[v] for v in built.w_vars),
        critical_path=sol[built.l_var],
        objective=sol.objective,
        backend=sol.backend,
    )


def seed_pipeline(instance):
    """The pre-optimization pipeline: seed LP path + reference LIST."""
    params = jz_parameters(instance.m)
    lp_result = _seed_lp(instance)
    report = rounding_stretch_report(instance, lp_result.x, params.rho)
    return list_schedule_reference(
        instance, report.allotment, mu=params.mu
    )


def engine_pipeline(instance):
    """The optimized pipeline behind jz_schedule and the batch engine."""
    params = jz_parameters(instance.m)
    lp_result = solve_allotment_lp(instance)
    report = rounding_stretch_report(instance, lp_result.x, params.rho)
    return list_schedule(instance, report.allotment, mu=params.mu)


def _best_of(fn, arg, repeats):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(arg)
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_single(smoke):
    n = 150 if smoke else 500
    repeats = 1 if smoke else 3
    inst = make_instance("erdos_renyi", n, 8, model="power", seed=7)
    jz_schedule(make_instance("layered", 10, 4, model="power", seed=0))
    seed_s, seed_sched = _best_of(seed_pipeline, inst, repeats)
    new_s, new_sched = _best_of(engine_pipeline, inst, repeats)
    same = [
        (e.task, e.start, e.processors, e.duration)
        for e in seed_sched.entries
    ] == [
        (e.task, e.start, e.processors, e.duration)
        for e in new_sched.entries
    ]
    assert same, "optimized pipeline diverged from the seed path"
    return {
        "instance": inst.name,
        "n_tasks": inst.n_tasks,
        "m": inst.m,
        "makespan": new_sched.makespan,
        "schedules_identical": same,
        "seed_path_s": seed_s,
        "engine_path_s": new_s,
        "speedup": seed_s / new_s if new_s > 0 else float("inf"),
    }


def bench_batch(smoke):
    count, n = (6, 60) if smoke else (16, 500)
    worker_counts = (1, 2) if smoke else (1, 2, 4)
    instances = [
        make_instance("erdos_renyi", n, 8, model="power", seed=100 + k)
        for k in range(count)
    ]
    cores = os.cpu_count() or 1
    seq = jz_schedule_many(instances, workers=0)
    assert seq.n_errors == 0, seq.errors()
    rows = []
    base = None
    for w in worker_counts:
        # Pool even at w=1, so the scaling curve compares pool to pool
        # (fixed pool costs are not charged to parallelism).
        res = BatchRunner(workers=w, use_pool=True).run(instances)
        assert res.n_errors == 0, res.errors()
        assert [r.makespan for r in res.records] == [
            r.makespan for r in seq.records
        ], "pooled records diverged from in-process records"
        if base is None:
            base = res.throughput
        speedup = res.throughput / base if base else 0.0
        rows.append(
            {
                "workers": w,
                "wall_time_s": res.wall_time,
                "throughput_inst_per_s": res.throughput,
                "speedup_vs_1_worker_pool": speedup,
                "efficiency_vs_available_cores": speedup / min(w, cores),
            }
        )
    return {
        "instances": count,
        "n_tasks_each": n,
        "sequential_throughput_inst_per_s": seq.throughput,
        # Process pools cannot scale past the cores that exist: on a
        # machine with fewer cores than the largest worker count the
        # absolute speedup column is flat by construction and only the
        # per-core efficiency is meaningful.
        "scaling_limited_by_cores": cores < max(worker_counts),
        "available_cores": cores,
        "scaling": rows,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes for CI")
    ap.add_argument("-o", "--output", default="BENCH_engine.json")
    args = ap.parse_args(argv)

    result = {
        "benchmark": "bench_engine",
        "smoke": args.smoke,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "single": bench_single(args.smoke),
        "batch": bench_batch(args.smoke),
    }
    with open(args.output, "w") as fh:
        json.dump(result, fh, indent=2)
    single = result["single"]
    print(
        f"single ({single['instance']}): seed {single['seed_path_s']:.3f}s"
        f" -> engine {single['engine_path_s']:.3f}s "
        f"({single['speedup']:.2f}x)"
    )
    for row in result["batch"]["scaling"]:
        print(
            f"batch workers={row['workers']}: "
            f"{row['throughput_inst_per_s']:.2f} inst/s "
            f"(speedup {row['speedup_vs_1_worker_pool']:.2f}x, "
            f"efficiency {row['efficiency_vs_available_cores']:.2f})"
        )
    print(f"written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
