"""Batched end-to-end solves: one block-diagonal pass over a fleet.

:func:`solve_batch` runs the same two-stage pipeline as
:class:`repro.pipeline.SchedulingPipeline` — allotment stage, then the
earliest-start LIST rule — but over *all* instances at once: profiles
stacked into one :class:`~repro.batchkernel.packing.StackedProfiles`
pack, DAGs packed into one disjoint union, allotment LPs assembled per
block, rounding and phase 2 vectorized across every block.
Per block the returned schedules are bit-identical to the per-instance
pipeline (asserted by the property suite and by every committed
benchmark cell); the reports carry the same allotment, μ, ρ, lower
bound and ratio bound, with ``metadata={"kernel_tier": "batched"}``
instead of the per-instance stage extras (LP vectors, stretch reports).

Eligibility is deliberately narrow: the four allotment strategies whose
batched replicas are proven bit-exact (``jz``, ``ltw``, ``sequential``,
``full``) composed with the analyzed ``earliest-start`` rule.  LP-based
strategies additionally need the SciPy backend, since the batched LP
tier solves its blocks through the same HiGHS seam the per-instance
path uses.  Everything else falls back to the per-instance pipeline in
the callers (:class:`repro.engine.batch.BatchRunner`, the service
broker) — never silently to different numbers.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from ..baselines.ltw import LTW_RHO
from ..core.instance import Instance
from ..core.parameters import resolve_parameters
from ..obs import trace as obs_trace
from ..obs.metrics import REGISTRY as _METRICS
from ..pipeline.base import SolveReport
from ..pipeline.registry import get_allotment, get_phase2
from ..theory.ltw import ltw_parameters
from .lp import assemble_batch_lp, batched_round, extract_block_x
from .packing import (
    batched_trivial_lower_bounds,
    pack_csrs,
    stack_profiles,
)
from .scheduler import batched_list_schedule

__all__ = [
    "AUTO_MAX_TASKS",
    "BatchKernelError",
    "ELIGIBLE_ALGORITHMS",
    "ELIGIBLE_PRIORITY",
    "eligible_strategy",
    "solve_batch",
]

#: Allotment strategies with a proven bit-exact batched replica.
ELIGIBLE_ALGORITHMS = frozenset({"jz", "ltw", "sequential", "full"})

#: The only phase-2 rule the batched scheduler replicates.
ELIGIBLE_PRIORITY = "earliest-start"

#: ``--batch-kernel auto`` routes a group through the batched tier only
#: when every instance has at most this many tasks — past that point
#: the per-instance array path already amortizes its NumPy overhead and
#: batching buys little while holding B instances' arrays live at once.
AUTO_MAX_TASKS = 2048


_GROUPS = _METRICS.counter(
    "repro_solver_batchkernel_groups_total",
    "Instance groups solved end-to-end by the batched kernel tier",
)
# Same family the per-instance pipeline bumps: a solve is a solve,
# whichever kernel tier produced it.
_SOLVES = _METRICS.counter(
    "repro_solver_solves_total",
    "Pipeline solves completed, by allotment strategy",
    ("algorithm",),
)


class BatchKernelError(RuntimeError):
    """A group cannot be solved by the batched kernel tier."""


def _scipy_available() -> bool:
    try:
        import scipy  # noqa: F401
    except ImportError:
        return False
    return True


def eligible_strategy(
    algorithm: str,
    priority: str,
    lp_backend: str = "auto",
) -> bool:
    """Whether ``(algorithm, priority)`` has a batched replica.

    Accepts registry aliases; unknown names are simply ineligible (the
    per-instance pipeline is the one that reports them as errors).
    """
    try:
        algo = get_allotment(algorithm).name
        prio = get_phase2(priority).name
    except Exception:
        return False
    if prio != ELIGIBLE_PRIORITY or algo not in ELIGIBLE_ALGORITHMS:
        return False
    if algo in ("jz", "ltw"):
        if lp_backend not in ("auto", "scipy"):
            return False
        if not _scipy_available():
            return False
    return True


def solve_batch(
    instances: Sequence[Instance],
    algorithm: str = "jz",
    priority: str = "earliest-start",
    *,
    rho: Optional[float] = None,
    mu: Optional[int] = None,
    lp_backend: str = "auto",
) -> List[SolveReport]:
    """Solve every instance in one batched pass; one report per block.

    Raises :class:`BatchKernelError` when the strategy pair has no
    batched replica (see :func:`eligible_strategy`) — callers treat
    that as "use the per-instance pipeline", not as a failed solve.
    """
    allot_info = get_allotment(algorithm)
    phase2_info = get_phase2(priority)
    algo, prio = allot_info.name, phase2_info.name
    if prio != ELIGIBLE_PRIORITY:
        raise BatchKernelError(
            f"batched kernel tier only replicates "
            f"{ELIGIBLE_PRIORITY!r}, got priority {prio!r}"
        )
    if algo not in ELIGIBLE_ALGORITHMS:
        raise BatchKernelError(
            f"no batched replica for allotment strategy {algo!r}"
        )
    instances = list(instances)
    nb = len(instances)
    if nb == 0:
        return []

    t0 = time.perf_counter()
    with obs_trace.span("batchkernel.pack", blocks=nb):
        bcsr = pack_csrs([inst.dag.to_csr() for inst in instances])
        sp = stack_profiles(instances)
        obs_trace.add("batchkernel_blocks", nb)
        obs_trace.add("batchkernel_packed_tasks", int(bcsr.n_total))
    n_b = np.diff(sp.node_ptr)

    rho_rep: List[Optional[float]]
    ratio_rep: List[Optional[float]]
    if algo == "jz":
        params = [
            resolve_parameters(inst.m, rho=rho, mu=mu)
            for inst in instances
        ]
        rho_blocks = np.array([p.rho for p in params])
        mu_rep = [p.mu for p in params]
        rho_rep = [p.rho for p in params]
        # earliest-start carries the guarantee, so the proven ratio is
        # claimed exactly as the per-instance pipeline does.
        ratio_rep = [p.ratio for p in params]
    elif algo == "ltw":
        lparams = [ltw_parameters(inst.m) for inst in instances]
        use_rho = LTW_RHO if rho is None else float(rho)
        rho_blocks = np.full(nb, use_rho)
        mu_rep = [p.mu if mu is None else int(mu) for p in lparams]
        rho_rep = [use_rho] * nb
        ratio_rep = [
            p.ratio if rho is None and mu is None else None
            for p in lparams
        ]
    else:
        mu_rep = [None if mu is None else int(mu)] * nb
        rho_rep = [None] * nb
        ratio_rep = [None] * nb

    lower: Sequence[float]
    if algo in ("jz", "ltw"):
        if lp_backend not in ("auto", "scipy"):
            raise BatchKernelError(
                f"batched LP tier needs the scipy backend, "
                f"got lp_backend={lp_backend!r}"
            )
        try:
            from ..lpsolve.scipy_backend import solve_ub_blocks
        except ImportError:
            raise BatchKernelError(
                "batched LP tier needs scipy, which is unavailable"
            )
        with obs_trace.span("batchkernel.solve", stage="lp", blocks=nb):
            blocks = assemble_batch_lp(sp, bcsr)
            sols = solve_ub_blocks(blocks)
        x = extract_block_x(sp, sols)
        allot_flat = batched_round(
            sp, x, np.repeat(rho_blocks, n_b)
        )
        lower = [s.objective for s in sols]
    elif algo == "sequential":
        allot_flat = np.ones(bcsr.n_total, dtype=np.intp)
        lower = batched_trivial_lower_bounds(instances, bcsr)
    else:  # full
        allot_flat = sp.m_of_task.astype(np.intp, copy=True)
        lower = batched_trivial_lower_bounds(instances, bcsr)
    t1 = time.perf_counter()

    # Phase 2 under the μ cap — same range validation and
    # ``min(l, μ)`` as list_schedule's ``_checked_cap``.
    cap_blocks = np.empty(nb, dtype=np.intp)
    for b, inst in enumerate(instances):
        cap = inst.m if mu_rep[b] is None else int(mu_rep[b])
        if not (1 <= cap <= inst.m):
            raise ValueError(
                f"mu must be in [1, {inst.m}], got {mu_rep[b]}"
            )
        cap_blocks[b] = cap
    alloc = np.minimum(allot_flat, np.repeat(cap_blocks, n_b))
    with obs_trace.span("batchkernel.solve", stage="list", blocks=nb):
        schedules = batched_list_schedule(sp, bcsr, alloc)
    t2 = time.perf_counter()
    _GROUPS.inc()
    _SOLVES.labels(algo).inc(nb)

    allot_time = (t1 - t0) / nb
    sched_time = (t2 - t1) / nb
    allot_list = allot_flat.tolist()
    reports: List[SolveReport] = []
    for b in range(nb):
        s, e = int(sp.node_ptr[b]), int(sp.node_ptr[b + 1])
        reports.append(SolveReport(
            schedule=schedules[b],
            algorithm=algo,
            priority=prio,
            allotment=tuple(allot_list[s:e]),
            mu=mu_rep[b],
            rho=rho_rep[b],
            lower_bound=float(lower[b]),
            ratio_bound=ratio_rep[b],
            allotment_time=allot_time,
            schedule_time=sched_time,
            metadata={"kernel_tier": "batched"},
        ))
    return reports
