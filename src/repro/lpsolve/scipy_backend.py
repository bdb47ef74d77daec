"""SciPy/HiGHS backend: the one-shot solves behind one HiGHS seam.

Pre-assembled ``A_ub v <= b_ub`` arrays (:func:`solve_ub_arrays`, and
through it the batched tier's :func:`solve_ub_blocks` and the deadline
binary search) and :class:`repro.lpsolve.LinearProgram` models
(:func:`solve_with_scipy`) are all loaded into SciPy's vendored HiGHS by
:func:`repro.lpsolve.highs_warm.load_highs` — the loader the resident
:class:`~repro.lpsolve.highs_warm.WarmUbModel` uses too — with the
option set ``scipy.optimize.linprog(method="highs")`` passes, minus its
per-call input validation and result post-processing.  ``linprog``
itself is only the fallback for SciPy builds without that binding
(:func:`~repro.lpsolve.highs_warm.warm_capable` is ``False``).

HiGHS is orders of magnitude faster than the built-in dense simplex on
the larger benchmark sweeps, so :meth:`LinearProgram.solve` prefers it
when SciPy is installed; the built-in simplex remains the
dependency-free fallback and the cross-check used by the test suite.
"""

from __future__ import annotations

from typing import List

import numpy as np

try:  # pragma: no cover - import guard exercised implicitly
    from scipy.optimize import linprog as _linprog
    from scipy.sparse import csc_matrix as _csc
except ImportError as _exc:  # pragma: no cover
    raise ImportError("scipy is not available") from _exc

from ..obs import trace as obs_trace
from ..obs.metrics import REGISTRY as _METRICS
from .highs_warm import colwise, load_highs, run_highs, warm_capable
from .model import LinearProgram, LpError, LpSolution, LpStatus, UbArrays

__all__ = [
    "solve_with_scipy",
    "solve_ub_arrays",
    "solve_ub_blocks",
]

_PIVOTS = _METRICS.counter(
    "repro_solver_lp_pivots_total",
    "LP pivots/iterations by backend",
    ("backend",),
)


def solve_ub_arrays(arrays, A_ub=None, row_lower=None) -> LpSolution:
    """Solve a pre-assembled ``row_lower <= A v <= b_ub`` LP with HiGHS.

    ``arrays`` is a :class:`repro.lpsolve.UbArrays`-shaped tuple (COO
    triplets plus objective and bounds) produced by bulk NumPy
    assembly — no per-constraint Python conversion happens here.  Pass a
    prebuilt ``A_ub`` (from :func:`repro.lpsolve.highs_warm.colwise`) to
    skip even the matrix conversion on repeated solves; ``row_lower``
    defaults to ``-inf`` on every row.
    """
    if A_ub is None:
        A_ub = colwise(arrays)
    if warm_capable():
        return run_highs(load_highs(arrays, row_lower, A_ub), "scipy")
    return _solve_with_linprog(arrays, A_ub, row_lower)


def _solve_with_linprog(arrays, matrix, row_lower) -> LpSolution:
    """The same solve through ``scipy.optimize.linprog`` (SciPy builds
    without the vendored HiGHS binding)."""
    start, index, value = matrix
    A = _csc(
        (value, index, start), shape=(len(arrays.b_ub), arrays.n_variables)
    )
    b = np.asarray(arrays.b_ub, dtype=float)
    eq = np.zeros(len(b), dtype=bool) if row_lower is None else (
        np.asarray(row_lower) == b
    )
    res = _linprog(
        arrays.c,
        A_ub=A[~eq] if (~eq).any() else None,
        b_ub=b[~eq] if (~eq).any() else None,
        A_eq=A[eq] if eq.any() else None,
        b_eq=b[eq] if eq.any() else None,
        bounds=np.column_stack([arrays.lo, arrays.hi]),
        method="highs",
    )
    if res.status == 2:
        raise LpError(LpStatus.INFEASIBLE)
    if res.status == 3:
        raise LpError(LpStatus.UNBOUNDED)
    if not res.success:  # pragma: no cover - solver-internal failures
        raise LpError(f"scipy/highs failed: {res.message}")
    iterations = int(getattr(res, "nit", 0) or 0)
    obs_trace.add("lp_pivots", iterations)
    _PIVOTS.labels("scipy").inc(iterations)
    return LpSolution(
        status=LpStatus.OPTIMAL,
        objective=float(res.fun),
        values=tuple(float(v) for v in res.x),
        backend="scipy",
        iterations=iterations,
    )


def solve_ub_blocks(blocks) -> List[LpSolution]:
    """Solve a sequence of independent pre-assembled LPs.

    The blocks of a block-diagonal problem (see
    :func:`repro.batchkernel.lp.assemble_batch_lp`) share no variables
    or rows, so the joint optimum is exactly the per-block optima;
    solving them back to back through the same HiGHS seam keeps each
    block's result bit-identical to a standalone
    :func:`solve_ub_arrays` call.
    """
    return [solve_ub_arrays(arrays) for arrays in blocks]


def solve_with_scipy(lp: LinearProgram) -> LpSolution:
    """Solve a modeling-layer ``lp`` through the HiGHS seam.

    ``>=`` rows are negated into ``<=`` rows and ``==`` rows follow all
    inequality rows, bounded on both sides — the row order
    ``linprog``'s ``A_ub``/``A_eq`` stacking gives.
    """
    ineq = [c for c in lp.constraints if c[1] != "=="]
    eq = [c for c in lp.constraints if c[1] == "=="]
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    rhs: List[float] = []
    for r, (coeffs, sense, b, _name) in enumerate(ineq + eq):
        sign = -1.0 if sense == ">=" else 1.0
        for v, coef in coeffs.items():
            rows.append(r)
            cols.append(v)
            vals.append(sign * coef)
        rhs.append(sign * b)
    bounds = np.asarray(lp.bounds, dtype=float).reshape(-1, 2)
    arrays = UbArrays(
        n_variables=lp.n_variables,
        c=np.asarray(lp.objective_coefficients, dtype=float),
        lo=bounds[:, 0],
        hi=bounds[:, 1],
        rows=np.asarray(rows, dtype=np.intp),
        cols=np.asarray(cols, dtype=np.intp),
        vals=np.asarray(vals, dtype=float),
        b_ub=np.asarray(rhs, dtype=float),
    )
    row_lower = None
    if eq:
        row_lower = np.concatenate(
            [np.full(len(ineq), -np.inf), arrays.b_ub[len(ineq):]]
        )
    return solve_ub_arrays(arrays, row_lower=row_lower)
