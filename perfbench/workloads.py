"""The benchmark workloads (``BENCHMARK.json`` lists all but
``wide_frontier``, which runs on request).

Each workload generates its inputs from the seed in :meth:`setup`, runs
ops for a fixed number of measured seconds in :meth:`run`, and checks
every op's output in :meth:`check`, outside the measured time.  An op is
one solve (``lp_heavy``, ``wide_frontier``), one instance of a batch
(``fleet``), one delta (``replan``) or one request (``service``).

With tracing on, :meth:`run` spends the first third of its time exactly
as an untraced run does and the rest with the ``repro.obs`` tracer
armed, timing each layer's public functions from this file (the solver
itself gains no spans).  Comparing the two thirds' op rates gives
``obs.trace_overhead``.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import nullcontext
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.core.arrays import instance_arrays
from repro.core.evolve import evolve
from repro.core.list_scheduler import dispatch_tier, list_schedule
from repro.core.lp import assemble_allotment_arrays
from repro.core.parameters import resolve_parameters
from repro.core.rounding import rounding_stretch_report
from repro.engine import BatchRunner
from repro.io import (
    instance_from_dict,
    instance_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.lpsolve.scipy_backend import solve_ub_arrays
from repro.obs import trace as obs_trace
from repro.obs.metrics import REGISTRY
from repro.pipeline import ReplanSession, SchedulingPipeline
from repro.schedule import validate_schedule
from repro.schedule.replan import diff_schedules, replan_schedule

import instances as gen
from metrics import PEAK_METRICS
from stats import ERROR, OK, REFUSED, WRONG, mean, median, percentile

#: Relative slack on the certified bounds (LP optimum and r(m)·bound).
BOUND_TOL = 1e-9


class Op:
    """One measured operation and its outcome."""

    __slots__ = ("latency", "outcome", "ratio", "kind", "data")

    def __init__(self, latency, outcome=OK, ratio=None, kind="op",
                 data=None):
        self.latency = latency
        self.outcome = outcome
        self.ratio = ratio
        self.kind = kind
        self.data = data


def _entries(schedule):
    return [(e.task, e.start, e.processors, e.duration)
            for e in schedule.entries]


def _bound_problems(makespan, lower, ratio_bound):
    """Violations of ``lower <= makespan <= ratio_bound * lower``."""
    out = []
    if not makespan >= lower * (1 - BOUND_TOL):
        out.append(f"makespan {makespan} below lower bound {lower}")
    if ratio_bound is not None and not (
        makespan <= ratio_bound * lower * (1 + BOUND_TOL)
    ):
        out.append(
            f"makespan {makespan} above {ratio_bound} x bound {lower}"
        )
    return out


class LayerProbe:
    """Times calls into layer functions by wrapping module attributes.

    Installed only for the traced part of a run and always restored.
    Each wrapped call also opens a ``repro.obs`` span named after its
    metric, so the program's own work counters land on it.
    """

    def __init__(self):
        self.seconds: Dict[str, float] = defaultdict(float)
        self._undo = []

    def wrap(self, owner, attr: str, metric: str) -> None:
        original = getattr(owner, attr)
        seconds = self.seconds

        @functools.wraps(original)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                with obs_trace.span(metric):
                    return original(*args, **kwargs)
            finally:
                seconds[metric] += time.perf_counter() - t0

        setattr(owner, attr, timed)
        self._undo.append((owner, attr, original))

    def take(self) -> Dict[str, float]:
        out = dict(self.seconds)
        self.seconds.clear()
        return out

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


class Workload:
    """Shared driver: set-up, a measured loop of ops, checks, metrics."""

    name = ""

    def __init__(self, seed: int, scale: float = 1.0, root: str = "."):
        self.seed = seed
        self.scale = scale
        #: repository root: the daemon runs from its ``src``.
        self.root = root
        self.ops: List[Op] = []
        self.timed_s = 0.0
        self.failures: List[str] = []
        #: per-layer samples, one value per op that loaded the layer.
        self.layers: Dict[str, List[float]] = defaultdict(list)
        #: per-layer values measured once per run.
        self.layer_values: Dict[str, float] = {}
        self.trace_overhead = 0.0
        #: peak resident memory of the process during each step.
        self.step_peaks_mb: List[float] = []
        #: what :meth:`peak_rss_mb` reports, read after the measured phase.
        self.rss_mb = 0.0

    # -- to override ---------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def step(self, traced: bool) -> Tuple[float, List[Op]]:
        """Run one op (or one batch of ops); return its measured seconds
        and the ops."""
        raise NotImplementedError

    def check(self) -> None:
        """Checks that need the whole run; per-op checks run right
        after each op, outside the measured time."""

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        """Mean over steps of the process's peak resident memory during
        the step.  A whole-run peak would be set by the one input with
        the largest solver footprint (HiGHS needs 37 MB on some chains
        where it needs 20 MB on others of the same size), and so by the
        seed rather than by the program."""
        return mean(self.step_peaks_mb)

    # -- driver ----------------------------------------------------------
    def run(self, seconds: float, trace: bool) -> None:
        if not trace:
            self.timed_s, _ = self.phase(seconds, traced=False)
        else:
            t_u, n_u = self.phase(seconds / 3.0, traced=False)
            t_t, n_t = self.phase(seconds * 2.0 / 3.0, traced=True)
            self.timed_s = t_u + t_t
            if n_u and n_t and t_u > 0 and t_t > 0:
                self.trace_overhead = (n_u / t_u) / (n_t / t_t) - 1.0
        self.rss_mb = self.peak_rss_mb()

    def phase(self, seconds: float, traced: bool) -> Tuple[float, int]:
        """Run ops until ``seconds`` of measured time; returns the
        measured time and the number of ops."""
        timed, count = 0.0, 0
        while timed < seconds:
            _reset_peak_rss()
            elapsed, ops = self.step(traced)
            self.step_peaks_mb.append(_vm_hwm_kb(os.getpid()) / 1024)
            timed += elapsed
            count += len(ops)
            self.ops.extend(ops)
        return timed, count

    def fail(self, op: Op, message: str) -> None:
        op.outcome = WRONG
        self.failures.append(f"{self.name}: {message}")

    def check_schedule(self, op: Op, inst, rep, label: str) -> None:
        """Validator-clean, and ``bound <= makespan <= r(m) * bound``."""
        bad, secs = _timed(validate_schedule, inst, rep.schedule)
        self.layers["schedule.validate_s"].append(secs)
        bad += _bound_problems(rep.makespan, rep.lower_bound,
                               rep.ratio_bound)
        if bad:
            self.fail(op, f"{label}: {bad[:3]}")

    def build_pool(self, specs) -> list:
        """Fresh instances for ``specs``, sampling the build layers."""
        pool = []
        for spec in specs:
            inst, dag_s, inst_s = gen.build(spec)
            self.sample({"dag.build_s": dag_s, "dag.edges": inst.dag.n_edges,
                         "core.instance_build_s": inst_s})
            pool.append(inst)
        return pool

    def sample(self, values: Dict[str, float]) -> None:
        for key, value in values.items():
            self.layers[key].append(value)

    # -- results ---------------------------------------------------------
    def ok_ops(self) -> List[Op]:
        return [o for o in self.ops if o.outcome == OK]

    def end_to_end(self) -> Dict[str, float]:
        ok = self.ok_ops()
        return {
            "ops_per_s": len(ok) / self.timed_s if self.timed_s else 0.0,
            "latency_p50_s": median(o.latency for o in ok),
            "ratio_mean": mean(o.ratio for o in ok if o.ratio is not None),
            "peak_rss_mb": self.rss_mb,
        }

    def latency_metrics(self) -> Dict[str, float]:
        """Latency percentiles of successful ops (0 when the tail rule
        leaves a percentile unreported) and, for ``service``, split by
        request kind."""
        ok = self.ok_ops()
        lat = [o.latency for o in ok]
        out = {
            "latency_p90_s": percentile(lat, 0.9) or 0.0,
            "latency_samples": float(len(lat)),
        }
        for kind in ("hit", "miss"):
            sel = [o.latency for o in ok if o.kind == kind]
            out[f"{kind}_latency_p50_s"] = median(sel)
            out[f"{kind}_latency_p90_s"] = percentile(sel, 0.9) or 0.0
        out["replan_latency_p50_s"] = median(
            o.latency for o in ok if o.kind == "replan"
        )
        return out

    def per_layer(self) -> Dict[str, float]:
        out = {}
        for key, values in self.layers.items():
            if key in PEAK_METRICS:
                out[key] = float(max(values))
            elif key.endswith("_s"):
                out[key] = median(values)
            else:
                out[key] = mean(values)
        out.update(self.layer_values)
        out.update(self.latency_metrics())
        out["obs.trace_overhead"] = self.trace_overhead
        return out


# ---------------------------------------------------------------------------
# lp_heavy, wide_frontier: cold single solves
# ---------------------------------------------------------------------------
class SolveWorkload(Workload):
    """Cold ``jz × earliest-start`` solves, one at a time, in-process."""

    #: Instances built during set-up; later ops build theirs outside
    #: the measured time.
    pool_size = 16
    #: Distinct instances a run cycles through.
    distinct = 128

    def spec_list(self, seed: int, count: int, scale: float):
        raise NotImplementedError

    def setup(self) -> None:
        self.pipeline = SchedulingPipeline("jz", "earliest-start")
        self.specs = self.spec_list(self.seed, self.distinct, self.scale)
        self.pool = self.build_pool(self.specs[:self.pool_size])
        self.next_op = 0
        warm = self.spec_list(self.seed + 1, 1, 0.1 * self.scale)[0]
        self.pipeline.solve(gen.build(warm)[0])

    def fresh(self):
        """The next op's spec and a fresh instance of it."""
        k = self.next_op
        self.next_op += 1
        spec = self.specs[k % len(self.specs)]
        if k < len(self.pool):
            inst, self.pool[k] = self.pool[k], None
            return spec, inst
        return spec, gen.build(spec)[0]

    def step(self, traced):
        spec, inst = self.fresh()
        if traced:
            composed = self.composed(spec)
        with obs_trace.tracing() if traced else nullcontext():
            try:
                t0 = time.perf_counter()
                rep = self.pipeline.solve(inst)
                elapsed = time.perf_counter() - t0
            except Exception:
                traceback.print_exc()
                return 0.0, [Op(0.0, ERROR)]
        op = Op(elapsed, ratio=rep.observed_ratio)
        if traced:
            self.compare(op, composed, rep, elapsed)
        self.check_schedule(op, inst, rep, inst.name)
        return elapsed, [op]

    def composed(self, spec):
        """The solve as its stage calls, each timed in its own span."""
        vals = {}

        def stage(metric, fn, *args, **kwargs):
            with obs_trace.span(metric) as sp:
                out, vals[metric] = _timed(fn, *args, **kwargs)
            return out, sp.counters

        with obs_trace.tracing():
            inst, vals["dag.build_s"], vals["core.instance_build_s"] = (
                gen.build(spec)
            )
            vals["dag.edges"] = inst.dag.n_edges
            params = resolve_parameters(inst.m)
            stage("core.arrays_s", instance_arrays, inst)
            stage("core.content_key_s", inst.content_key)
            arrays, _ = stage("core.lp_assemble_s",
                              assemble_allotment_arrays, inst)
            vals["core.lp_rows"] = len(arrays.b_ub)
            vals["core.lp_nnz"] = len(arrays.vals)
            sol, counters = stage("lpsolve.solve_s", solve_ub_arrays, arrays)
            vals["lpsolve.pivots"] = counters.get("lp_pivots", 0)
            x = [sol.values[3 * j] for j in range(inst.n_tasks)]
            rounding, _ = stage("core.round_s", rounding_stretch_report,
                                inst, x, params.rho)
            sched, counters = stage("core.list_s", list_schedule, inst,
                                    rounding.allotment, mu=params.mu)
            for key in ("frontier_steps", "frontier_size_sum",
                        "frontier_peak"):
                vals["core." + key] = counters.get(key, 0)
            tier = dispatch_tier(inst)
            vals["core.list_tier.array"] = float(tier == "array")
            vals["core.list_tier.loop"] = float(tier == "loop")
        stages = sum(vals[k] for k in (
            "core.arrays_s", "core.lp_assemble_s", "lpsolve.solve_s",
            "core.round_s", "core.list_s",
        ))
        return vals, stages, sched, sol.objective

    def compare(self, op, composed, rep, elapsed):
        vals, stages, sched, objective = composed
        vals["pipeline.solve_s"] = elapsed
        vals["pipeline.self_s"] = elapsed - stages
        self.sample(vals)
        if _entries(sched) != _entries(rep.schedule):
            self.fail(op, "composed stage calls diverged from the pipeline")
        if objective != rep.lower_bound:
            self.fail(op, "composed LP optimum diverged from the pipeline")


class LpHeavy(SolveWorkload):
    name = "lp_heavy"

    def spec_list(self, seed, count, scale):
        return gen.lp_heavy_specs(seed, count, scale)


class WideFrontier(SolveWorkload):
    name = "wide_frontier"
    pool_size = 8
    distinct = 64

    def spec_list(self, seed, count, scale):
        return gen.wide_frontier_specs(seed, count, scale)


# ---------------------------------------------------------------------------
# fleet: BatchRunner over many small instances
# ---------------------------------------------------------------------------
class Fleet(Workload):
    """``BatchRunner(workers=0, batch_kernel="auto")`` over ~200 small
    mixed-family instances, submitted in batches of 40."""

    name = "fleet"
    #: Instances built during set-up; later batches build theirs outside
    #: the measured time.
    fleet_size = 200
    distinct = 800
    batch_size = gen.FLEET_BATCH
    check_sample = 4

    def setup(self) -> None:
        self.runner = BatchRunner(workers=0, batch_kernel="auto")
        self.specs = gen.fleet_specs(self.seed, self.distinct, self.scale)
        self.pool = self.build_pool(self.specs[:self.fleet_size])
        self.next_op = 0
        warm = gen.fleet_specs(self.seed + 1, 2, 0.2 * self.scale)
        self.runner.run([gen.build(s)[0] for s in warm])

    def next_batch(self):
        batch = []
        for _ in range(self.batch_size):
            k = self.next_op
            self.next_op += 1
            spec = self.specs[k % len(self.specs)]
            if k < len(self.pool):
                inst, self.pool[k] = self.pool[k], None
            else:
                inst = gen.build(spec)[0]
            batch.append((spec, inst))
        return batch

    def step(self, traced):
        batch = self.next_batch()
        items = [inst for _, inst in batch]
        probe = self.probe() if traced else None
        fallbacks = self.fallbacks()
        try:
            with obs_trace.tracing() if traced else nullcontext() as tr:
                t0 = time.perf_counter()
                result = self.runner.run(items)
                elapsed = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            return 0.0, [Op(0.0, ERROR) for _ in items]
        finally:
            if probe is not None:
                probe.restore()
        if traced:
            nb = len(items)
            vals = {k: v / nb for k, v in probe.take().items()}
            counters = tr.counter_totals()
            vals.update({
                "engine.run_s": elapsed / nb,
                "engine.batched_share":
                    result.kernel_tiers().get("batched", 0) / nb,
                "engine.group_fallbacks": self.fallbacks() - fallbacks,
                "engine.pool_chunks": counters.get("pool_chunks", 0),
                "batchkernel.blocks": counters.get("batchkernel_blocks", 0),
                "batchkernel.packed_tasks":
                    counters.get("batchkernel_packed_tasks", 0),
                "lpsolve.pivots": counters.get("lp_pivots", 0) / nb,
            })
            self.sample(vals)
        return elapsed, [
            Op(elapsed, OK if rec.ok else ERROR, ratio=rec.observed_ratio,
               data=(spec, rec))
            for (spec, _), rec in zip(batch, result.records)
        ]

    @staticmethod
    def fallbacks() -> float:
        """Batched-tier groups that fell back to per-instance solves."""
        return sum(REGISTRY.family_values(
            "repro_solver_batchkernel_fallback_total").values())

    @staticmethod
    def probe() -> LayerProbe:
        """Timers on the batched tier's stage functions."""
        import repro.batchkernel.solve as bk
        import repro.lpsolve.scipy_backend as sb

        probe = LayerProbe()
        for attr, metric in (
            ("pack_csrs", "batchkernel.pack_s"),
            ("stack_profiles", "batchkernel.pack_s"),
            ("assemble_batch_lp", "batchkernel.lp_assemble_s"),
            ("extract_block_x", "batchkernel.round_s"),
            ("batched_round", "batchkernel.round_s"),
            ("batched_list_schedule", "batchkernel.list_s"),
        ):
            probe.wrap(bk, attr, metric)
        probe.wrap(sb, "solve_ub_blocks", "batchkernel.lp_solve_s")
        return probe

    def check(self) -> None:
        pipeline = SchedulingPipeline("jz", "earliest-start")
        rng = random.Random(f"fleet-check/{self.seed}")
        ok = [o for o in self.ops if o.outcome == OK]
        for op in ok:
            spec, rec = op.data
            bad = _bound_problems(rec.makespan, rec.lower_bound,
                                  rec.ratio_bound)
            if bad:
                self.fail(op, f"{spec}: {bad}")
        for op in rng.sample(ok, min(self.check_sample, len(ok))):
            spec, rec = op.data
            inst = gen.build(spec)[0]
            direct = pipeline.solve(inst)
            bad, secs = _timed(validate_schedule, inst, direct.schedule)
            self.layers["schedule.validate_s"].append(secs)
            if (rec.makespan, rec.lower_bound, rec.ratio_bound) != (
                direct.makespan, direct.lower_bound, direct.ratio_bound
            ):
                bad.append("record differs from a per-instance solve")
            if bad:
                self.fail(op, f"{spec}: {bad[:3]}")



# ---------------------------------------------------------------------------
# replan: a ReplanSession fed a seeded stream of deltas
# ---------------------------------------------------------------------------
class Replan(Workload):
    """Two ``ReplanSession`` objects served in turn; each op commits one
    delta to one of them and re-solves it.

    Nine in ten deltas are non-structural (``retime``, ``complete``) and
    take the warm HiGHS path; one in ten adds a task or an arc (in turn)
    and falls back to a cold solve.
    """

    name = "replan"
    #: Sessions served in turn, so that one random instance does not
    #: set a whole run's numbers.
    sessions = 2
    check_every = 16
    block = ("retime",) * 5 + ("complete",) * 4 + ("structural",)

    def setup(self) -> None:
        specs = gen.replan_specs(self.seed, self.sessions, self.scale)
        self.pool = [ReplanSession(inst) for inst in self.build_pool(specs)]
        for session in self.pool:
            session.solve()
        self.next_op = 0
        self.rng = random.Random(f"replan-ops/{self.seed}")
        self.kinds: List[str] = []
        self.structural = 0
        self.cold = SchedulingPipeline("jz", "earliest-start")
        self.warm_rounds = 0
        self.check_offset = random.Random(
            f"replan-check/{self.seed}").randrange(self.check_every)

    def next_operations(self, session):
        """The next delta's operations, drawn from the session's current
        round.

        Kinds come in shuffled blocks of ten (one structural delta per
        block), so every run sees the same warm/cold mix."""
        rng = self.rng
        if not self.kinds:
            self.kinds = list(self.block)
            rng.shuffle(self.kinds)
        kind = self.kinds.pop()
        cur = session.instance
        n = cur.n_tasks
        if kind == "retime":
            j = rng.randrange(n)
            f = rng.uniform(0.8, 1.25)
            return [{"op": "retime", "task": j,
                     "times": [f * t for t in cur.task(j).times]}]
        if kind == "complete":
            j = rng.randrange(n)
            start = next(e.start for e in session.report.schedule.entries
                         if e.task == j)
            return [{"op": "complete", "task": j, "start": start}]
        self.structural += 1
        if self.structural % 2:
            j = rng.randrange(n)
            preds = sorted(rng.sample(range(n), 2))
            return [{"op": "add_task", "times": list(cur.task(j).times),
                     "predecessors": preds}]
        while True:
            u, v = sorted(rng.sample(range(n), 2))
            if not cur.dag.has_edge(u, v):
                return [{"op": "add_edge", "source": u, "target": v}]

    def step(self, traced):
        session = self.pool[self.next_op % len(self.pool)]
        self.next_op += 1
        operations = self.next_operations(session)
        probe = None
        if traced:
            import repro.lpsolve.highs_warm as hw
            import repro.pipeline.incremental as inc
            import repro.pipeline.strategies as strat

            probe = LayerProbe()
            probe.wrap(inc, "assemble_allotment_arrays",
                       "core.lp_assemble_s")
            probe.wrap(inc, "rounding_stretch_report", "core.round_s")
            probe.wrap(strat, "list_schedule", "core.list_s")
            probe.wrap(hw.WarmUbModel, "solve", "lpsolve.solve_s")
        try:
            with obs_trace.tracing() if traced else nullcontext() as tr:
                t0 = time.perf_counter()
                child, delta = evolve(session.instance, operations)
                t1 = time.perf_counter()
                res = session.resolve_delta(child, delta)
                t2 = time.perf_counter()
        except Exception:
            traceback.print_exc()
            return 0.0, [Op(0.0, ERROR)]
        finally:
            if probe is not None:
                probe.restore()
        rep = res.report
        op = Op(t2 - t0, ratio=rep.observed_ratio, kind=res.mode)
        self.check_round(op, child, rep, res.mode)
        if traced:
            vals = probe.take()
            vals["core.evolve_commit_s"] = t1 - t0
            vals["pipeline.resolve_delta_s"] = t2 - t1
            vals["pipeline.lp_edits"] = res.lp_edits
            vals["pipeline.warm_share"] = float(res.mode == "warm")
            pivots = tr.counter_totals().get("lp_pivots", 0)
            key = "lpsolve.warm_pivots" if res.mode == "warm" else (
                "lpsolve.pivots")
            vals[key] = pivots
            for key in ("frontier_steps", "frontier_size_sum",
                        "frontier_peak"):
                vals["core." + key] = tr.counter_totals().get(key, 0)
            self.sample(vals)
        return t2 - t0, [op]

    def check_round(self, op, child, rep, mode) -> None:
        """Every round is validated; a seeded sample of warm rounds
        (one in :attr:`check_every`) must match a cold re-solve of a
        fresh copy of the child on allotment and makespan."""
        self.check_schedule(op, child, rep, f"{mode} round")
        if mode != "warm":
            return
        self.warm_rounds += 1
        if self.warm_rounds % self.check_every != self.check_offset:
            return
        cold = self.cold.solve(instance_from_dict(instance_to_dict(child)))
        if (cold.allotment, cold.makespan) != (rep.allotment, rep.makespan):
            self.fail(op, "warm round differs from a cold re-solve")


# ---------------------------------------------------------------------------
# service: `repro serve` driven by two closed-loop clients
# ---------------------------------------------------------------------------
class Service(Workload):
    """``repro serve --workers 1`` in its own process, driven by two
    closed-loop :class:`ServiceClient` connections.

    The request stream repeats a shuffled block of 20: 9 fresh solves
    (misses), 9 repeats of an instance first sent at least
    :attr:`repeat_gap` requests earlier (hits), and 2 anchored
    ``/replan`` requests of an earlier instance with one task retimed.
    """

    name = "service"
    clients = 2
    fresh_instances = 160
    repeat_gap = 10
    #: Instances per run whose reply is compared with a direct solve.
    check_sample = 24
    block = ("miss",) * 9 + ("hit",) * 9 + ("replan",) * 2
    #: Requests a client waits for at most before it counts as failed.
    request_timeout_s = 60.0

    def __init__(self, seed, scale=1.0, root="."):
        super().__init__(seed, scale, root)
        self.daemon = None
        self.stderr_tail: List[str] = []

    # -- daemon lifecycle -----------------------------------------------
    def start_daemon(self) -> None:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1"],
            cwd=self.root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        port = None
        for line in self.daemon.stderr:
            self.stderr_tail.append(line)
            match = re.search(r"serving on http://[^:]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            raise RuntimeError(
                "daemon did not start: " + "".join(self.stderr_tail[-5:])
            )
        self.drain = threading.Thread(target=self._drain, daemon=True)
        self.drain.start()
        self.port = port

    def _drain(self) -> None:
        for line in self.daemon.stderr:
            self.stderr_tail = (self.stderr_tail + [line])[-20:]

    def client(self):
        from repro.resilience import RetryPolicy
        from repro.service import ServiceClient

        return ServiceClient(port=self.port, timeout=self.request_timeout_s,
                             retry=RetryPolicy(max_attempts=1))

    def close(self) -> None:
        if self.daemon is None:
            return
        try:
            if self.daemon.poll() is None:
                with self.client() as c:
                    c.shutdown()
        except Exception:
            pass
        try:
            self.daemon.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.daemon.kill()
            self.daemon.wait(timeout=20)
        self.drain.join(timeout=5)
        self.daemon = None

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the daemon plus its pool worker."""
        return sum(_vm_hwm_kb(pid) for pid in _tree(self.daemon.pid)) / 1024

    # -- workload --------------------------------------------------------
    def setup(self) -> None:
        self.specs = gen.service_specs(self.seed, self.fresh_instances,
                                       self.scale)
        self.pool = self.build_pool(self.specs)
        self.requests = self.request_stream()
        self.start_daemon()
        with self.client() as c:
            c.health()
            warm = gen.service_specs(self.seed + 1, 1, 0.2 * self.scale)[0]
            c.solve(gen.build(warm)[0])

    def request_stream(self):
        """The seeded request list: (kind, instance index, operations)."""
        rng = random.Random(f"service-stream/{self.seed}")
        out, fresh = [], 0
        while fresh < len(self.pool):
            kinds = list(self.block)
            rng.shuffle(kinds)
            if not out:  # nothing to repeat yet
                kinds.sort(key=lambda k: k != "miss")
            for kind in kinds:
                # Repeat only misses well back in the stream, so they
                # are almost surely answered before the repeat is sent;
                # a repeat that still meets the solve in flight is
                # answered as "deduped" and counted apart.
                done = [k for kd, k, _ in out[:-self.repeat_gap]
                        if kd == "miss"]
                if kind == "miss" or not done:
                    if fresh == len(self.pool):
                        break
                    out.append(("miss", fresh, None))
                    fresh += 1
                elif kind == "hit":
                    out.append(("hit", rng.choice(done), None))
                else:
                    k = rng.choice(done)
                    inst = self.pool[k]
                    j = rng.randrange(inst.n_tasks)
                    f = rng.uniform(0.8, 1.25)
                    ops = [{"op": "retime", "task": j,
                            "times": [f * t for t in inst.task(j).times]}]
                    out.append(("replan", k, ops))
        return out

    def phase(self, seconds, traced):
        start = len(self.ops)
        lock = threading.Lock()
        records: List[Optional[Op]] = []
        cursor = [getattr(self, "cursor", 0)]
        deadline = time.perf_counter() + seconds

        def worker():
            with self.client() as c:
                while time.perf_counter() < deadline:
                    with lock:
                        k = cursor[0]
                        if k >= len(self.requests):
                            return
                        cursor[0] += 1
                        records.append(None)
                        slot = len(records) - 1
                    request = self.requests[k]
                    try:
                        records[slot] = self.send(c, request, traced)
                    except Exception:
                        traceback.print_exc()
                        records[slot] = Op(0.0, ERROR, kind=request[0])

        # One tracer for the whole traced phase: both client threads
        # share it, so neither can disarm it under the other.
        with obs_trace.tracing() if traced else nullcontext():
            t0 = time.perf_counter()
            threads = [threading.Thread(target=worker)
                       for _ in range(self.clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = time.perf_counter() - t0
        self.cursor = cursor[0]
        self.ops.extend(records)
        return elapsed, len(self.ops) - start

    def send(self, client, request, traced) -> Op:
        from repro.service import ServiceError

        kind, k, operations = request
        inst = self.pool[k]
        vals = {}
        if traced:
            body, vals["io.encode_s"] = _timed(
                lambda: json.dumps({"instance": instance_to_dict(inst)})
            )
            vals["io.request_bytes"] = len(body)
            # Without its fingerprint the dict parses without hashing,
            # so the hash is timed on its own below.
            data = json.loads(body)["instance"]
            data.pop("fingerprint", None)
            parsed, vals["io.parse_s"] = _timed(instance_from_dict, data)
            _, vals["core.arrays_s"] = _timed(instance_arrays, parsed)
            _, vals["core.content_key_s"] = _timed(parsed.content_key)
        try:
            t0 = time.perf_counter()
            if kind == "replan":
                reply = client.replan(inst, operations, anchored=True)
            else:
                reply = client.solve(inst)
            latency = time.perf_counter() - t0
        except ServiceError as exc:
            code = exc.code or ""
            outcome = REFUSED if code in (
                "overloaded", "deadline_exceeded", "shutting_down"
            ) else ERROR
            print(f"service: {kind} request failed: {exc}", file=sys.stderr)
            return Op(0.0, outcome, kind=kind)
        if kind != "replan":
            kind = ("hit" if reply.get("cached") else
                    "deduped" if reply.get("deduped") else "miss")
        if traced:
            vals["io.response_bytes"] = len(json.dumps(reply))
            vals["service.client_attempts"] = reply.attempts
            if kind == "miss":
                vals["service.wait_s"] = latency - reply["solve_wall_time"]
            self.sample(vals)
        return Op(latency, ratio=reply["makespan"] / reply["lower_bound"],
                  kind=kind, data=(request, reply))

    def daemon_counters(self):
        """``/stats`` and the solve-time histogram from ``/metrics``."""
        import http.client

        with self.client() as c:
            stats = c.stats()
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=30)
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode()
        finally:
            conn.close()
        prom = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                prom[name] = float(value)
        return stats, prom

    def run(self, seconds, trace):
        if trace:
            before = self.daemon_counters()
        super().run(seconds, trace)
        if trace:
            self.daemon_deltas(before, self.daemon_counters())

    def daemon_deltas(self, before, after):
        (s0, p0), (s1, p1) = before, after
        c0, c1 = s0["cache"], s1["cache"]
        hits = c1["hits"] - c0["hits"]
        lookups = hits + c1["misses"] - c0["misses"]
        solves = (p1.get("repro_service_solve_seconds_count", 0)
                  - p0.get("repro_service_solve_seconds_count", 0))
        solve_sum = (p1.get("repro_service_solve_seconds_sum", 0)
                     - p0.get("repro_service_solve_seconds_sum", 0))
        r0, r1 = s0["resilience"], s1["resilience"]
        pivots = "repro_solver_lp_pivots_total{backend=\"scipy\"}"
        self.layer_values.update({
            "service.daemon_solve_s": solve_sum / solves if solves else 0.0,
            "service.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "service.deduped": float(s1["deduped"] - s0["deduped"]),
            "service.refused": float(
                r1["shed_overload"] - r0["shed_overload"]
                + r1["shed_deadline"] - r0["shed_deadline"]
            ),
            "service.errors": float(s1["errors"] - s0["errors"]),
            "service.pool_restarts": float(
                s1["pool_restarts"] - s0["pool_restarts"]
            ),
            "lpsolve.pivots": (
                (p1.get(pivots, 0) - p0.get(pivots, 0)) / solves
                if solves else 0.0
            ),
        })

    def check(self) -> None:
        """Every reply is validated and equals the first reply for its
        instance; for a seeded sample of instances that first reply
        equals a direct pipeline solve bit for bit, and every anchored
        replan equals a local ``replan_schedule``."""
        pipeline = SchedulingPipeline("jz", "earliest-start")
        direct: Dict[int, object] = {}

        def solved(k):
            if k not in direct:
                direct[k] = pipeline.solve(gen.build(self.specs[k])[0])
            return direct[k]

        def key(reply):
            return (reply["schedule"], reply["makespan"],
                    reply["lower_bound"])

        ok = [op for op in self.ops if op.outcome == OK]
        first = {}
        for op in ok:
            (kind, k, _), reply = op.data
            if kind != "replan":
                first.setdefault(k, key(reply))
        rng = random.Random(f"service-check/{self.seed}")
        sample = set(rng.sample(sorted(first),
                                min(self.check_sample, len(first))))
        for k in sorted(sample):
            rep = solved(k)
            if first[k] != (schedule_to_dict(rep.schedule), rep.makespan,
                            rep.lower_bound):
                self.failures.append(
                    f"service: instance {k} reply differs from a direct "
                    "solve")
        for op in ok:
            (kind, k, operations), reply = op.data
            if kind != "replan":
                bad, secs = _timed(validate_schedule, self.pool[k],
                                   schedule_from_dict(reply["schedule"]))
                bad += _bound_problems(reply["makespan"],
                                       reply["lower_bound"],
                                       reply["ratio_bound"])
                if key(reply) != first[k]:
                    bad.append("reply differs from the first reply")
            else:
                bad, secs = self.check_replan(k, operations, reply,
                                              solved(k), pipeline)
            self.layers["schedule.validate_s"].append(secs)
            if bad:
                self.fail(op, f"{kind} of instance {k}: {bad[:3]}")

    def check_replan(self, k, operations, reply, parent, pipeline):
        child, delta = evolve(self.pool[k], operations)
        rep = pipeline.solve(child)
        alloc = [0] * child.n_tasks
        for e in rep.schedule.entries:
            alloc[e.task] = e.processors
        anchored, secs = _timed(
            replan_schedule, child, alloc, parent.schedule,
            node_map=delta.node_map, completed=delta.completed,
        )
        _, diff_s = _timed(diff_schedules, parent.schedule, anchored,
                           node_map=delta.node_map)
        self.sample({"schedule.anchored_s": secs, "schedule.diff_s": diff_s})
        bad, secs = _timed(validate_schedule, child,
                           schedule_from_dict(reply["schedule"]))
        bad += _bound_problems(reply["makespan"], reply["lower_bound"], None)
        if (reply["schedule"], reply["lower_bound"]) != (
            schedule_to_dict(anchored), rep.lower_bound
        ):
            bad.append("anchored reply differs from a local replan")
        return bad, secs



def _tree(pid: int) -> List[int]:
    """``pid`` and its live descendants, read from ``/proc``."""
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except OSError:
            pass
    return out


_LIBC = ctypes.CDLL(None)


def _reset_peak_rss() -> None:
    """Return the allocator's free memory to the system and reset this
    process's ``VmHWM`` to its current resident size, so that the next
    step's peak is its own and not a leftover of an earlier step.
    Without ``malloc_trim`` (not glibc) or ``clear_refs`` (before Linux
    4.0) a step reads the peak so far."""
    trim = getattr(_LIBC, "malloc_trim", None)
    if trim is not None:
        trim(0)
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def _vm_hwm_kb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


WORKLOADS = {
    "lp_heavy": LpHeavy,
    "wide_frontier": WideFrontier,
    "fleet": Fleet,
    "replan": Replan,
    "service": Service,
}
