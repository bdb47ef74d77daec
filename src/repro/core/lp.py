"""Phase 1 linear program — eq. (9) of the paper.

The allotment problem asks for fractional processing times ``x_j`` that
simultaneously keep the critical path ``L`` and the average work ``W/m``
small; both are lower bounds on the makespan (eq. (11)).  The paper's key
move (Section 3.1) is that, because the work function is **convex** in the
processing time (Theorem 2.2), the piecewise-linear program (7) can be
written as the genuine linear program (9):

    min  C
    s.t. C_i + x_j <= C_j                   for every arc (i, j)
         x_j <= C_j                          for every source j
         C_j <= L                            for every sink j
         segment_l(x_j) <= w̄_j              for every work segment of J_j
         L <= C
         (Σ_j w̄_j) / m <= C
         p_j(m) <= x_j <= p_j(1),  C_j >= 0

where ``segment_l`` are the chords of eq. (8).  Embedding both criteria in
one LP with the extra ``L <= C`` and ``W/m <= C`` rows is what lets the
paper avoid the binary search of Lepère et al. [18] (see the Remark at the
end of Section 3.1).

The paper states the fit row ``x_j <= C_j`` and the span row
``C_j <= L`` for *every* task; most of them are implied and are not
emitted.  A task with a predecessor ``i`` has ``x_j <= C_i + x_j <=
C_j`` (as ``C_i >= 0``), and a task with a successor ``k`` has ``C_j <=
C_j + x_k <= C_k`` (as ``x_k >= p_k(m) > 0``), which chains down to a
sink's span row.  So only sources carry a fit row and only sinks a span
row, and the model has ``3n + 2`` variables and

    |E| + #sources + #sinks + Σ_j (#segments_j) + 2

rows, the same optimum and the same feasible ``x``.  Every consumer of
the layout — the bulk assembly, the modeling layer, the deadline LP of
:mod:`repro.core.allotment_bsearch`, the batched assembly and the
evolve-path row patcher — goes through the one row generator
:func:`lp9_arrays`.

The optimum satisfies ``max(L*, W*/m) <= C* <= OPT`` (eq. (11)), making
``C*`` the certified lower bound every ratio measurement in the benchmark
harness divides by.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..lpsolve import LinearProgram, LpSolution, UbArrays
from ..obs import trace as obs_trace
from .arrays import memoized_on_instance
from .instance import Instance

__all__ = [
    "AllotmentLp",
    "AllotmentLpResult",
    "AllotmentArrays",
    "assemble_allotment_arrays",
    "build_allotment_lp",
    "instance_lp9_arrays",
    "lp9_arrays",
    "lp_model",
    "patch_allotment_arrays",
    "solve_allotment_lp",
]


@dataclass(frozen=True)
class AllotmentLpResult:
    """Optimal fractional solution of LP (9).

    Attributes
    ----------
    x:
        Fractional processing times ``x*_j``.
    completion:
        Fractional completion times ``C*_j``.
    work_bar:
        The LP's linearized work values ``w̄*_j`` (equal to
        ``w_j(x*_j)`` whenever the total-work constraint is active).
    work:
        Recomputed exact piecewise-linear work ``w_j(x*_j)`` — this is the
        quantity Lemma 4.2 reasons about, so downstream code uses it.
    critical_path:
        ``L*`` — the LP's critical-path value.
    total_work:
        ``W* = Σ_j w_j(x*_j)``.
    objective:
        ``C* = max(L*, W*/m)`` at the optimum; a lower bound on OPT.
    backend:
        LP backend used.
    """

    x: Tuple[float, ...]
    completion: Tuple[float, ...]
    work_bar: Tuple[float, ...]
    work: Tuple[float, ...]
    critical_path: float
    total_work: float
    objective: float
    backend: str


@dataclass
class AllotmentLp:
    """The constructed LP together with its variable handles."""

    lp: LinearProgram
    x_vars: Tuple[int, ...]
    c_vars: Tuple[int, ...]
    w_vars: Tuple[int, ...]
    l_var: int
    c_max_var: int


#: LP (9) as NumPy arrays — the :class:`repro.lpsolve.UbArrays` shape,
#: in the layout :func:`lp9_arrays` documents.
AllotmentArrays = UbArrays


def lp9_arrays(
    m: int,
    min_time: np.ndarray,
    max_time: np.ndarray,
    work_lo: np.ndarray,
    seg_task: np.ndarray,
    seg_slope: np.ndarray,
    seg_intercept: np.ndarray,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    coupled: bool = True,
) -> AllotmentArrays:
    """The one row generator for LP (9) and its deadline variant.

    Takes the packed profile arrays (per task ``p_j(m)``, ``p_j(1)``
    and the rigid-work bound; per flat segment, in task order, its task,
    slope and intercept) and the arcs ``edge_u[k] -> edge_v[k]``, and
    emits the slim layout.  Variables are ``x_j = 3j``, ``C_j = 3j + 1``,
    ``w_j = 3j + 2``, then ``L = 3n`` and ``C = 3n + 1``.  Rows are
    grouped per task — the fit row if ``j`` is a source, the span row if
    ``j`` is a sink, then the work segments of ``J_j`` — followed by the
    precedence arcs in CSR order and the two coupling rows ``L <= C``
    and ``W/m <= C``: ``|E| + #sources + #sinks + Σ_j #segments_j + 2``
    rows (the module docstring explains which rows are implied).  The
    COO triplets list every segment's ``(slope, -1)`` pair first, so the
    slope of flat segment ``p`` is entry ``2p``.

    ``coupled=False`` gives the deadline LP of
    :mod:`repro.core.allotment_bsearch` instead: no ``L``/``C``
    variables, no span or coupling rows, objective ``Σ_j w̄_j``.
    """
    n = len(min_time)
    xs = np.arange(n, dtype=np.intp) * 3
    cs = xs + 1
    ws = xs + 2
    nv = 3 * n + 2 if coupled else 3 * n
    lo = np.zeros(nv)
    hi = np.full(nv, np.inf)
    lo[xs] = min_time
    hi[xs] = max_time
    # Rigid tasks (no segments) have constant work; bound w̄ directly.
    lo[ws] = work_lo
    c = np.zeros(nv)
    if coupled:
        c[3 * n + 1] = 1.0
    else:
        c[ws] = 1.0

    # Only sources need a fit row and only sinks a span row.
    fit = np.bincount(edge_v, minlength=n) == 0
    span = np.bincount(edge_u, minlength=n) == 0 if coupled else (
        np.zeros(n, dtype=bool)
    )
    head = fit.astype(np.intp) + span
    nseg = np.bincount(seg_task, minlength=n)
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(head + nseg, out=start[1:])
    fit_j = np.flatnonzero(fit)
    span_j = np.flatnonzero(span)
    fit_rows = start[fit_j]
    span_rows = start[span_j] + fit[span_j]
    # Flat segment p of task j follows the task's head rows:
    # start[j] + head[j] + (p - Σ_{k<j} nseg_k) = p + Σ_{k<=j} head_k.
    seg_rows = np.arange(len(seg_task)) + np.cumsum(head)[seg_task]
    ne = len(edge_u)
    prec_rows = start[-1] + np.arange(ne)
    n_rows = int(start[-1]) + ne

    rows = [
        np.repeat(seg_rows, 2),  # slope·x_j - w_j <= -intercept
        np.repeat(fit_rows, 2),  # x_j - C_j <= 0
        np.repeat(span_rows, 2),  # C_j - L <= 0
        np.repeat(prec_rows, 3),  # C_i + x_j - C_j <= 0
    ]
    cols = [
        np.column_stack([xs[seg_task], ws[seg_task]]).ravel(),
        np.column_stack([xs[fit_j], cs[fit_j]]).ravel(),
        np.column_stack([cs[span_j], np.full(len(span_j), 3 * n)]).ravel(),
        np.column_stack([cs[edge_u], xs[edge_v], cs[edge_v]]).ravel(),
    ]
    vals = [
        np.column_stack([seg_slope, np.full(len(seg_task), -1.0)]).ravel(),
        np.tile([1.0, -1.0], len(fit_j)),
        np.tile([1.0, -1.0], len(span_j)),
        np.tile([1.0, 1.0, -1.0], ne),
    ]
    if coupled:
        r_lc, r_wm = n_rows, n_rows + 1
        n_rows += 2
        # L <= C and W/m <= C.
        rows += [np.array([r_lc, r_lc]), np.full(n + 1, r_wm)]
        cols += [np.array([3 * n, 3 * n + 1]), np.append(ws, 3 * n + 1)]
        vals += [np.array([1.0, -1.0]), np.append(np.ones(n), -float(m))]
    b_ub = np.zeros(n_rows)
    b_ub[seg_rows] = -seg_intercept
    return AllotmentArrays(
        n_variables=nv,
        c=c,
        lo=lo,
        hi=hi,
        rows=np.concatenate(rows).astype(np.intp, copy=False),
        cols=np.concatenate(cols).astype(np.intp, copy=False),
        vals=np.concatenate(vals),
        b_ub=b_ub,
    )


def instance_lp9_arrays(instance: Instance, coupled: bool = True):
    """:func:`lp9_arrays` fed from the memoized packed profile arrays
    (:func:`repro.core.arrays.instance_arrays`) and the DAG's CSR."""
    from .arrays import instance_arrays

    arr = instance_arrays(instance)
    csr = instance.dag.to_csr()
    return lp9_arrays(
        arr.m, arr.min_time, arr.max_time, arr.work_lo, arr.seg_task,
        arr.seg_slope, arr.seg_intercept, csr.edge_sources(),
        csr.succ_indices, coupled=coupled,
    )


def lp_model(arrays, name: str) -> LinearProgram:
    """The modeling-layer twin of an assembled model: the same
    variables, bounds, objective and rows, in the same order."""
    lp = LinearProgram(name=name)
    n = arrays.n_variables // 3
    for v in range(arrays.n_variables):
        label = f"{'xCw'[v % 3]}{v // 3}" if v < 3 * n else "LC"[v - 3 * n]
        lp.add_variable(
            label, lo=arrays.lo[v], hi=arrays.hi[v], obj=arrays.c[v]
        )
    order = np.argsort(arrays.rows, kind="stable")
    bounds = np.searchsorted(
        arrays.rows[order], np.arange(len(arrays.b_ub) + 1)
    ).tolist()
    cols = arrays.cols[order].tolist()
    vals = arrays.vals[order].tolist()
    for r, rhs in enumerate(arrays.b_ub.tolist()):
        s, e = bounds[r], bounds[r + 1]
        lp.add_constraint(dict(zip(cols[s:e], vals[s:e])), "<=", rhs)
    return lp


def build_allotment_lp(instance: Instance) -> AllotmentLp:
    """Construct LP (9) for ``instance`` in the modeling layer.

    The model is :func:`lp_model` of :func:`assemble_allotment_arrays`:
    ``3n + 2`` variables and
    ``|E| + #sources + #sinks + Σ_j (#segments_j) + 2`` constraints —
    polynomial in ``n`` and ``m`` as the paper notes, with the implied
    fit/span rows left out (see the module docstring).
    """
    n = instance.n_tasks
    lp = lp_model(
        assemble_allotment_arrays(instance),
        f"allotment(9) n={n} m={instance.m}",
    )
    return AllotmentLp(
        lp=lp,
        x_vars=tuple(range(0, 3 * n, 3)),
        c_vars=tuple(range(1, 3 * n, 3)),
        w_vars=tuple(range(2, 3 * n, 3)),
        l_var=3 * n,
        c_max_var=3 * n + 1,
    )


@memoized_on_instance
def assemble_allotment_arrays(instance: Instance) -> AllotmentArrays:
    """Assemble LP (9) for ``instance`` directly into NumPy arrays.

    :func:`lp9_arrays` over the memoized packed profile arrays and the
    DAG's CSR edge arrays — no per-task or per-edge Python work at all.
    The result is itself memoized per instance (weakly), so the LP-based
    strategies of a pipeline sweep share one assembly.
    """
    return instance_lp9_arrays(instance)


def patch_allotment_arrays(
    parent: AllotmentArrays,
    child_arr: "InstanceArrays",
    retimed: "Sequence[int]",
) -> AllotmentArrays:
    """The child's LP (9) assembly, patched from the parent's.

    For a non-structural evolution (same tasks, same arcs, same per-task
    segment counts) the constraint matrix's sparsity pattern is
    unchanged — only the bounds of the retimed ``x_j`` columns, the
    slopes of their work-segment rows and the matching right-hand sides
    move.  This patches exactly those entries of the parent's assembly,
    so an evolved instance never pays the from-scratch bulk build.
    ``child_arr`` must be the child's packed profile arrays and
    ``retimed`` the child-space ids whose profile changed.
    """
    retimed_arr = np.asarray(sorted(retimed), dtype=np.intp)
    xs = retimed_arr * 3
    lo = parent.lo.copy()
    hi = parent.hi.copy()
    lo[xs] = child_arr.min_time[retimed_arr]
    hi[xs] = child_arr.max_time[retimed_arr]
    lo[xs + 2] = child_arr.work_lo[retimed_arr]
    flat = np.flatnonzero(np.isin(child_arr.seg_task, retimed_arr))
    # lp9_arrays lists flat segment p's slope as COO entry 2p; the
    # entry's row index is the segment's row.
    nz = 2 * flat
    vals = parent.vals.copy()
    vals[nz] = child_arr.seg_slope[flat]
    b_ub = parent.b_ub.copy()
    b_ub[parent.rows[nz]] = -child_arr.seg_intercept[flat]
    return parent._replace(lo=lo, hi=hi, vals=vals, b_ub=b_ub)


def _result_from_values(
    instance: Instance,
    x: Tuple[float, ...],
    completion: Tuple[float, ...],
    work_bar: Tuple[float, ...],
    critical_path: float,
    objective: float,
    backend: str,
) -> AllotmentLpResult:
    work = tuple(
        instance.task(j).work_of_time(x[j]) for j in range(instance.n_tasks)
    )
    return AllotmentLpResult(
        x=x,
        completion=completion,
        work_bar=work_bar,
        work=work,
        critical_path=critical_path,
        total_work=sum(work),
        objective=objective,
        backend=backend,
    )


def solve_allotment_lp(
    instance: Instance, backend: str = "auto"
) -> AllotmentLpResult:
    """Build and solve LP (9); returns the fractional optimum.

    With ``backend`` ``"auto"`` or ``"scipy"`` (and SciPy importable) the
    constraint matrix is assembled in bulk via
    :func:`assemble_allotment_arrays` and handed straight to HiGHS; the
    layout matches the modeling-layer path exactly, so the result is the
    same.  Other backends — and environments without SciPy — go through
    :func:`build_allotment_lp` and :meth:`LinearProgram.solve` as before.
    """
    if backend in ("auto", "scipy"):
        try:
            from ..lpsolve.scipy_backend import solve_ub_arrays
        except ImportError:
            if backend == "scipy":
                from ..lpsolve import LpError

                raise LpError("scipy backend requested but unavailable")
        else:
            with obs_trace.span("lp.assemble", n=instance.n_tasks):
                arrays = assemble_allotment_arrays(instance)
            with obs_trace.span("lp.solve", backend="scipy"):
                sol = solve_ub_arrays(arrays)
            n = instance.n_tasks
            return _result_from_values(
                instance,
                x=tuple(sol.values[3 * j] for j in range(n)),
                completion=tuple(sol.values[3 * j + 1] for j in range(n)),
                work_bar=tuple(sol.values[3 * j + 2] for j in range(n)),
                critical_path=sol.values[3 * n],
                objective=sol.objective,
                backend=sol.backend,
            )
    with obs_trace.span("lp.assemble", n=instance.n_tasks, layer="model"):
        built = build_allotment_lp(instance)
    sol: LpSolution = built.lp.solve(backend=backend)
    return _result_from_values(
        instance,
        x=tuple(sol[v] for v in built.x_vars),
        completion=tuple(sol[v] for v in built.c_vars),
        work_bar=tuple(sol[v] for v in built.w_vars),
        critical_path=sol[built.l_var],
        objective=sol.objective,
        backend=sol.backend,
    )
