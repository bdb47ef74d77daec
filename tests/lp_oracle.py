"""Reference oracles for LP (9): the full fit/span layout and linprog.

:func:`full_allotment_arrays` is LP (9) exactly as the paper states it —
a fit row ``x_j <= C_j`` and a span row ``C_j <= L`` for *every* task —
in the per-task row layout (fit, span, work segments; then the arcs;
then ``L <= C`` and ``W/m <= C``).  The production assembly
(:func:`repro.core.lp.lp9_arrays`) leaves out the rows the precedence
system implies; the property suite checks it against this one.

:func:`linprog_solve` solves a pre-assembled model through
``scipy.optimize.linprog(method="highs")``, the reference for the
direct HiGHS seam.
"""

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from repro.core.arrays import instance_arrays
from repro.core.lp import AllotmentArrays


def full_allotment_arrays(instance) -> AllotmentArrays:
    """LP (9) with a fit and a span row for every task."""
    arr = instance_arrays(instance)
    n, m = arr.n, arr.m
    nv = 3 * n + 2
    xs = np.arange(n) * 3
    cs, ws = xs + 1, xs + 2
    l_var, c_max = 3 * n, 3 * n + 1
    lo = np.zeros(nv)
    hi = np.full(nv, np.inf)
    lo[xs] = arr.min_time
    hi[xs] = arr.max_time
    lo[ws] = arr.work_lo
    c = np.zeros(nv)
    c[c_max] = 1.0

    off = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(arr.nseg + 2, out=off[1:])
    t_idx = arr.seg_task
    seg_rows = np.arange(len(t_idx)) + 2 * t_idx + 2
    csr = instance.dag.to_csr()
    eu, ev = csr.edge_sources(), csr.succ_indices
    ne = len(eu)
    prec_rows = off[-1] + np.arange(ne)
    r_lc = off[-1] + ne
    r_wm = r_lc + 1
    rows = np.concatenate([
        np.repeat(off[:-1], 2),
        np.repeat(off[:-1] + 1, 2),
        np.repeat(seg_rows, 2),
        np.repeat(prec_rows, 3),
        [r_lc, r_lc],
        np.full(n + 1, r_wm),
    ])
    cols = np.concatenate([
        np.column_stack([xs, cs]).ravel(),
        np.column_stack([cs, np.full(n, l_var)]).ravel(),
        np.column_stack([xs[t_idx], ws[t_idx]]).ravel(),
        np.column_stack([cs[eu], xs[ev], cs[ev]]).ravel(),
        [l_var, c_max],
        np.append(ws, c_max),
    ])
    vals = np.concatenate([
        np.tile([1.0, -1.0], 2 * n),
        np.column_stack([arr.seg_slope, -np.ones(len(t_idx))]).ravel(),
        np.tile([1.0, 1.0, -1.0], ne),
        [1.0, -1.0],
        np.append(np.ones(n), -float(m)),
    ])
    b_ub = np.zeros(int(r_wm) + 1)
    b_ub[seg_rows] = -arr.seg_intercept
    return AllotmentArrays(nv, c, lo, hi, rows.astype(np.intp),
                           cols.astype(np.intp), vals, b_ub)


def linprog_solve(arrays):
    """``linprog(method="highs")`` on a pre-assembled model; returns the
    SciPy result (``.fun``, ``.x``, ``.status``)."""
    A = csr_matrix(
        (arrays.vals, (arrays.rows, arrays.cols)),
        shape=(len(arrays.b_ub), arrays.n_variables),
    )
    return linprog(
        arrays.c,
        A_ub=A,
        b_ub=arrays.b_ub,
        bounds=np.column_stack([arrays.lo, arrays.hi]),
        method="highs",
    )


def max_violation(arrays, values) -> float:
    """Largest bound or row violation of ``values`` in ``arrays``,
    relative to ``1 + max|values|``."""
    v = np.asarray(values, dtype=float)
    lhs = np.zeros(len(arrays.b_ub))
    np.add.at(lhs, arrays.rows, arrays.vals * v[arrays.cols])
    worst = max(
        float(np.max(lhs - arrays.b_ub, initial=0.0)),
        float(np.max(arrays.lo - v, initial=0.0)),
        float(np.max(v - arrays.hi, initial=0.0)),
    )
    return worst / (1.0 + float(np.max(np.abs(v), initial=0.0)))
