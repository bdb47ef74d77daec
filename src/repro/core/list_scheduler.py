"""LIST — the phase-2 scheduler (paper Table 1).

Given an allotment α′ and the cap ``μ``, the algorithm first *reduces* the
allotment, ``l_j = min(l′_j, μ)``, and then list-schedules:

    SCHEDULED = ∅
    while SCHEDULED != J:
        READY = { J_j : Γ⁻(j) ⊆ SCHEDULED }
        compute the earliest possible starting time for all tasks in READY
        schedule the ready task with the smallest earliest starting time
        SCHEDULED = SCHEDULED ∪ {J_j}

"Earliest possible starting time" accounts for both precedence (completion
times of already-scheduled predecessors, which are fixed) and processor
availability (the first window with ``l_j`` processors free for the whole
duration).

The cap matters for the analysis: with every task using at most
``μ <= ⌊(m+1)/2⌋`` processors, a task and any ready successor can never be
blocked purely by each other, which is what makes the heavy-path argument
of Lemma 4.3 work.

:func:`list_schedule` is also usable standalone with any allotment and
``μ = m`` — that is the classic Graham list scheduling [8] generalized to
malleable allotments, and is what the naive baselines build on.

Implementation note — array-backed ready frontier
-------------------------------------------------
Three implementations share one bit-identical contract:

* :func:`list_schedule` — the array-native path.  The ready frontier
  lives in NumPy vectors (indegree counters, a cached earliest-start
  vector, durations); selection is an ``argmin`` over the earliest-start
  vector (with an exact scalar fallback for the rare sub-tolerance tie),
  and revalidation after each reservation batches the overlapping ready
  tasks into *groups* sharing (cached start, demand) — measured at a
  few groups per hundreds of overlapping tasks — each answered by one
  :meth:`repro.schedule.timeline.ArrayTimeline.earliest_start_batch`
  suffix sweep.
* :func:`list_schedule_loop` — the earlier per-task Python loop with the
  incremental earliest-start cache (the pre-CSR optimized path, kept as
  the scaling benchmark's baseline).
* :func:`list_schedule_reference` — the literal transcription of
  Table 1, the executable specification.

The produced schedules are identical float for float: all three compute
the same ``start + duration`` sums on the same IEEE doubles and select
with the same index order and tolerance — asserted by the test suite on
random instances.
"""

from __future__ import annotations

from bisect import insort
from typing import List, Optional, Sequence

import numpy as np

from ..obs import trace as obs_trace
from ..obs.metrics import REGISTRY as _METRICS
from ..schedule import ResourceTimeline, Schedule, ScheduledTask
from ..schedule.timeline import ArrayTimeline
from .instance import Instance

_FRONTIER_STEPS = _METRICS.counter(
    "repro_solver_frontier_steps_total",
    "List-scheduler iterations (one task scheduled per step) by tier",
    ("tier",),
)

__all__ = [
    "dispatch_tier",
    "list_schedule",
    "list_schedule_loop",
    "list_schedule_reference",
    "capped_allotment",
]

#: Tolerance of the "smallest earliest start" selection scan.  A candidate
#: replaces the incumbent only when it is better by more than this, so the
#: lowest-index task wins among numerically tied starts.
_SELECT_TOL = 1e-12

#: Below this task count :func:`list_schedule` goes straight to the
#: per-task loop without building CSR arrays, level structure, packed
#: profiles or any vector state — for tiny instances the constant-time
#: setup of the array path costs more than the whole solve.
_TINY_N = 64

#: The array tier pays off once the ready frontier holds about a hundred
#: tasks.  The mean level width ``n / #levels`` under-reads the frontier
#: of a LIST pass (tasks turn ready before "their" level), the widest
#: level over-reads it on triangular DAGs (LU, Cholesky); the product of
#: the two tracked the array/loop crossover on every measured family
#: (Erdős–Rényi n = 400–10,000 at out-degree 2 and 8, m = 4–32, and the
#: library families at n = 300–3,000).  The array tier runs when
#: ``widest * n / #levels >= _WIDE_FRONTIER``.
_WIDE_FRONTIER = 70 * 70


def _array_tier(n: int, csr) -> bool:
    """The loop/array choice of :func:`list_schedule` (both tiers are
    bit-identical, so this is purely a constant-factor choice)."""
    if n < 256:
        return False
    ptr = csr.depths().ptr
    widest = int(np.diff(ptr).max())
    return widest * n >= _WIDE_FRONTIER * (len(ptr) - 1)


def dispatch_tier(instance: Instance) -> str:
    """Which kernel tier :func:`list_schedule` would run on ``instance``.

    ``"loop"`` — the per-task Python loop (tiny or narrow instances);
    ``"array"`` — the vectorized frontier over CSR arrays.  The batch
    engine records this per instance (a ``"batched"`` tier exists as
    well, chosen by :func:`repro.batchkernel.solve_batch` callers — see
    :mod:`repro.engine.batch`).  Tiny instances never touch the CSR, so
    this predicate must not either.
    """
    n = instance.n_tasks
    if n < 256 or not _array_tier(n, instance.dag.to_csr()):
        return "loop"
    return "array"


def capped_allotment(allotment: Sequence[int], mu: int) -> List[int]:
    """The phase-2 allotment ``l_j = min(l′_j, μ)`` (Table 1, init step)."""
    if mu < 1:
        raise ValueError(f"mu must be >= 1, got {mu}")
    return [min(int(l), mu) for l in allotment]


def _checked_cap(instance: Instance, mu: Optional[int]) -> int:
    cap = instance.m if mu is None else int(mu)
    if not (1 <= cap <= instance.m):
        raise ValueError(f"mu must be in [1, {instance.m}], got {mu}")
    return cap


def _scan_select(ready_ids: np.ndarray, est: np.ndarray) -> int:
    """The literal selection scan of Table 1 over exact cached starts:
    iterate ready tasks in index order, replacing the incumbent only on
    a strictly-more-than-tolerance improvement."""
    best_j, best_t = -1, float("inf")
    for j in ready_ids.tolist():
        t = est[j]
        if t < best_t - _SELECT_TOL:
            best_j, best_t = j, t
    return best_j


def list_schedule(
    instance: Instance,
    allotment: Sequence[int],
    mu: Optional[int] = None,
) -> Schedule:
    """Run LIST (Table 1) on ``instance`` with allotment α′ and cap ``μ``.

    Parameters
    ----------
    instance:
        The scheduling instance.
    allotment:
        α′ — processor counts per task (each in ``1..m``).
    mu:
        Allotment cap; ``None`` means no cap (``μ = m``).

    Returns
    -------
    Schedule
        A feasible schedule (validated property in the test suite),
        bit-identical to :func:`list_schedule_reference` but computed
        over the CSR arrays with the batched ready-frontier described in
        the module docstring.
    """
    n = instance.n_tasks
    # Tiny instances: straight to the loop path before any CSR or
    # array state exists — see _TINY_N.
    if n < _TINY_N:
        return list_schedule_loop(instance, allotment, mu=mu)
    csr = instance.dag.to_csr()
    # Narrow-frontier dispatch: on deep, thin DAGs (chains, skinny
    # layers) the ready set holds a handful of tasks and the per-task
    # loop beats per-iteration NumPy overhead — see _WIDE_FRONTIER.
    if not _array_tier(n, csr):
        return list_schedule_loop(instance, allotment, mu=mu)

    instance.validate_allotment(allotment)
    m = instance.m
    alloc_list = capped_allotment(allotment, _checked_cap(instance, mu))

    from .arrays import instance_arrays
    arrays = instance_arrays(instance)
    alloc = np.asarray(alloc_list, dtype=np.intp)
    dur = arrays.times[np.arange(n), alloc - 1]

    timeline = ArrayTimeline(m)
    est = np.full(n, np.inf)
    completion = np.zeros(n)
    indeg = csr.in_degrees().copy()
    ready_ids = np.flatnonzero(indeg == 0)
    # Empty timeline: every source's earliest start is its ready time 0.
    est[ready_ids] = 0.0

    succ_indptr, succ_indices = csr.succ_indptr, csr.succ_indices
    pred_indptr, pred_indices = csr.pred_indptr, csr.pred_indices
    entries: List[ScheduledTask] = []
    # Frontier-size accounting only when a tracer is armed: the global
    # read is hoisted out of the loop, leaving a local None-check per
    # iteration on the disarmed path.
    tracer = obs_trace.active()
    frontier_sum = 0
    frontier_peak = 0

    for _ in range(n):
        if not ready_ids.size:  # pragma: no cover - impossible on a DAG
            raise RuntimeError("no ready task but unscheduled tasks remain")
        if tracer is not None:
            w = int(ready_ids.size)
            frontier_sum += w
            if w > frontier_peak:
                frontier_peak = w
        # Schedule the ready task with the smallest earliest start.  The
        # argmin over the (index-sorted) ready frontier — first
        # occurrence = lowest task id — equals the reference tolerance
        # scan unless distinct values sit within the tolerance of the
        # minimum; then run the exact scalar scan.
        vals = est[ready_ids]
        bi = int(np.argmin(vals))
        vmin = vals[bi]
        near = vals <= vmin + _SELECT_TOL
        if np.count_nonzero(near) > 1 and bool(
            np.any(vals[near] != vmin)
        ):
            j = _scan_select(ready_ids, est)
        else:
            j = int(ready_ids[bi])
        best_t = float(est[j])
        dj = float(dur[j])
        aj = int(alloc[j])
        end = best_t + dj
        timeline.reserve(best_t, end, aj)
        completion[j] = end
        entries.append(
            ScheduledTask(task=j, start=best_t, processors=aj, duration=dj)
        )
        est[j] = np.inf
        ready_ids = ready_ids[ready_ids != j]

        # Newly-ready successors: their ready time is the max completion
        # over their predecessors (all scheduled by now).
        s0, s1 = succ_indptr[j], succ_indptr[j + 1]
        newly = None
        if s1 > s0:
            succ = succ_indices[s0:s1]
            indeg[succ] -= 1
            newly = succ[indeg[succ] == 0]
            if newly.size:
                for s in newly.tolist():
                    p0, p1 = pred_indptr[s], pred_indptr[s + 1]
                    est[s] = completion[pred_indices[p0:p1]].max()
                ready_ids = np.sort(np.concatenate([ready_ids, newly]))
            else:
                newly = None

        # One mixed batch query per iteration refreshes every start that
        # the new reservation may have moved: ready tasks whose cached
        # window overlaps it, plus the newly-ready tasks (whose ``est``
        # currently holds just the precedence ready time).
        if ready_ids.size:
            t_r = est[ready_ids]
            refresh = (t_r < end) & (t_r + dur[ready_ids] > best_t)
            if newly is not None:
                refresh |= np.isin(ready_ids, newly, assume_unique=True)
            if refresh.any():
                ids = ready_ids[refresh]
                est[ids] = timeline.earliest_start_many(
                    est[ids], dur[ids], alloc[ids]
                )

    _FRONTIER_STEPS.labels("array").inc(n)
    if tracer is not None:
        tracer.add("frontier_steps", n)
        tracer.add("frontier_size_sum", frontier_sum)
        tracer.add("frontier_peak", frontier_peak)
    return Schedule(m, entries)


def list_schedule_loop(
    instance: Instance,
    allotment: Sequence[int],
    mu: Optional[int] = None,
) -> Schedule:
    """The pre-CSR optimized path: per-task Python loop with an
    incremental earliest-start cache.

    Reservations only ever *add* usage, so a cached start stays exact
    unless its window overlaps the newly reserved rectangle, and on
    overlap the fresh earliest start can be recomputed starting from the
    cached value (feasible starts are monotone under added
    reservations).  Kept as the scaling benchmark's baseline and as an
    equivalence witness between :func:`list_schedule` and
    :func:`list_schedule_reference`.
    """
    instance.validate_allotment(allotment)
    m = instance.m
    alloc = capped_allotment(allotment, _checked_cap(instance, mu))

    dag = instance.dag
    n = instance.n_tasks
    timeline = ResourceTimeline(m)
    completion = [0.0] * n
    n_sched = 0
    entries: List[ScheduledTask] = []
    dur = [instance.task(j).time(alloc[j]) for j in range(n)]

    # READY bookkeeping: indegree over *scheduled* predecessors, plus the
    # cached earliest feasible start ``est[j]`` of every ready task.
    remaining_preds = [dag.in_degree(j) for j in range(n)]
    ready = sorted(j for j in range(n) if remaining_preds[j] == 0)
    est = {
        j: timeline.earliest_start(0.0, dur[j], alloc[j]) for j in ready
    }
    tracer = obs_trace.active()
    frontier_sum = 0
    frontier_peak = 0

    while n_sched < n:
        if not ready:  # pragma: no cover - impossible on a DAG
            raise RuntimeError("no ready task but unscheduled tasks remain")
        if tracer is not None:
            w = len(ready)
            frontier_sum += w
            if w > frontier_peak:
                frontier_peak = w
        # Schedule the ready task with the smallest earliest start; ready
        # is kept sorted so numerically tied starts go to the lowest index.
        best_i, best_t = -1, float("inf")
        for i, j in enumerate(ready):
            t = est[j]
            if t < best_t - _SELECT_TOL:
                best_i, best_t = i, t
        j = ready.pop(best_i)
        end = best_t + dur[j]
        timeline.reserve(best_t, end, alloc[j])
        completion[j] = end
        entries.append(
            ScheduledTask(
                task=j, start=best_t, processors=alloc[j], duration=dur[j]
            )
        )
        n_sched += 1
        del est[j]
        # Revalidate cached starts whose window overlaps the reservation
        # just made; all other cached values are still exact.
        for k in ready:
            t = est[k]
            if t < end and t + dur[k] > best_t:
                est[k] = timeline.earliest_start(t, dur[k], alloc[k])
        for s in dag.successors(j):
            remaining_preds[s] -= 1
            if remaining_preds[s] == 0:
                ready_at = max(
                    (completion[p] for p in dag.predecessors(s)),
                    default=0.0,
                )
                est[s] = timeline.earliest_start(
                    ready_at, dur[s], alloc[s]
                )
                insort(ready, s)

    _FRONTIER_STEPS.labels("loop").inc(n)
    if tracer is not None:
        tracer.add("frontier_steps", n)
        tracer.add("frontier_size_sum", frontier_sum)
        tracer.add("frontier_peak", frontier_peak)
    return Schedule(m, entries)


def list_schedule_reference(
    instance: Instance,
    allotment: Sequence[int],
    mu: Optional[int] = None,
) -> Schedule:
    """Literal transcription of LIST (Table 1) — the pre-optimization path.

    Recomputes every ready task's earliest start on every iteration.  Kept
    as the executable specification: the test suite asserts
    :func:`list_schedule` matches it bit for bit, and the benchmarks
    measure the speedup against it.
    """
    instance.validate_allotment(allotment)
    m = instance.m
    alloc = capped_allotment(allotment, _checked_cap(instance, mu))

    dag = instance.dag
    n = instance.n_tasks
    timeline = ResourceTimeline(m)
    completion = [0.0] * n
    n_sched = 0
    entries: List[ScheduledTask] = []

    remaining_preds = [dag.in_degree(j) for j in range(n)]
    ready = {j for j in range(n) if remaining_preds[j] == 0}

    while n_sched < n:
        if not ready:  # pragma: no cover - impossible on a DAG
            raise RuntimeError("no ready task but unscheduled tasks remain")
        best_j, best_t = -1, float("inf")
        for j in sorted(ready):
            ready_at = max(
                (completion[p] for p in dag.predecessors(j)), default=0.0
            )
            dur = instance.task(j).time(alloc[j])
            t = timeline.earliest_start(ready_at, dur, alloc[j])
            if t < best_t - _SELECT_TOL:
                best_j, best_t = j, t
        j = best_j
        dur = instance.task(j).time(alloc[j])
        timeline.reserve(best_t, best_t + dur, alloc[j])
        completion[j] = best_t + dur
        entries.append(
            ScheduledTask(
                task=j, start=best_t, processors=alloc[j], duration=dur
            )
        )
        n_sched += 1
        ready.discard(j)
        for s in dag.successors(j):
            remaining_preds[s] -= 1
            if remaining_preds[s] == 0:
                ready.add(s)

    return Schedule(m, entries)
