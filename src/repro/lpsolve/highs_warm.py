"""The HiGHS seam: one model loader, one-shot and basis-reusing solves.

Every HiGHS solve in this package loads its model through
:func:`load_highs` — the solver vendored inside SciPy
(``scipy.optimize._highspy``), fed the ``A_ub v <= b_ub`` arrays
directly, with the option set ``scipy.optimize.linprog(method="highs")``
uses — and reads the optimum back through :func:`run_highs`.  The cold
seam (:func:`repro.lpsolve.scipy_backend.solve_ub_arrays`) loads, runs
and drops the model.

For the incremental path (:mod:`repro.pipeline.incremental`) that is
the wrong shape: an evolution that retimes one task perturbs a handful
of variable bounds and segment coefficients of LP (9), and a dual
simplex restarted from the previous optimal basis re-proves optimality
in a few pivots instead of thousands.  :class:`WarmUbModel` keeps the
loaded model resident.  The first :meth:`~WarmUbModel.solve` is a normal
cold solve; afterwards :meth:`~WarmUbModel.update` *diffs* a patched
assembly against the loaded one — changed variable bounds, changed
matrix coefficients, changed right-hand sides — and pushes exactly
those edits through HiGHS's modification API, which preserves the
factorized basis.  Presolve is disabled after the first solve:
re-presolving would discard the basis and cost more than the handful of
warm pivots it saves.

The module degrades gracefully: when the vendored binding is missing
(:func:`warm_capable` is ``False``) callers fall back to
``scipy.optimize.linprog``.
"""

from __future__ import annotations

import numpy as np

from ..obs import trace as obs_trace
from ..obs.metrics import REGISTRY as _METRICS
from .model import LpError, LpSolution, LpStatus

try:  # pragma: no cover - availability depends on the SciPy build
    from scipy.optimize._highspy import _core as _highs_core
except ImportError:  # pragma: no cover
    _highs_core = None

__all__ = [
    "WarmUbModel",
    "colwise",
    "load_highs",
    "run_highs",
    "warm_capable",
]

_INF = float("inf")

_PIVOTS = _METRICS.counter(
    "repro_solver_lp_pivots_total",
    "LP pivots/iterations by backend",
    ("backend",),
)
_WARM = _METRICS.counter(
    "repro_solver_warm_starts_total",
    "LP solves that started from a previous basis/model",
    ("backend",),
)


def warm_capable() -> bool:
    """Whether SciPy's vendored HiGHS binding is importable here."""
    return _highs_core is not None


def colwise(arrays):
    """COO triplets → CSC (start, index, value) for HiGHS kColwise."""
    order = np.lexsort((arrays.rows, arrays.cols))
    cols = np.asarray(arrays.cols)[order]
    start = np.zeros(arrays.n_variables + 1, dtype=np.int32)
    np.cumsum(
        np.bincount(cols, minlength=arrays.n_variables), out=start[1:]
    )
    return (
        start,
        np.asarray(arrays.rows, dtype=np.int32)[order],
        np.asarray(arrays.vals, dtype=float)[order],
    )


def load_highs(arrays, row_lower=None, matrix=None):
    """A HiGHS instance loaded with ``row_lower <= A v <= b_ub``.

    The one model loader behind every HiGHS solve in this package: the
    cold seam (:func:`repro.lpsolve.scipy_backend.solve_ub_arrays`) and
    :class:`WarmUbModel`.  ``arrays`` is a
    :class:`repro.lpsolve.UbArrays`-shaped tuple; ``row_lower``
    defaults to ``-inf`` (pure ``A_ub`` rows) and ``matrix`` to
    :func:`colwise` of the triplets.  The options are the ones
    ``scipy.optimize.linprog(method="highs")`` passes, so a solve here
    returns the same solution, bit for bit.
    """
    if _highs_core is None:  # pragma: no cover - guarded by callers
        raise LpError("SciPy's vendored HiGHS binding is unavailable")
    n_rows = len(arrays.b_ub)
    lp = _highs_core.HighsLp()
    lp.num_col_ = int(arrays.n_variables)
    lp.num_row_ = int(n_rows)
    lp.col_cost_ = np.asarray(arrays.c, dtype=float)
    lp.col_lower_ = np.asarray(arrays.lo, dtype=float)
    lp.col_upper_ = np.asarray(arrays.hi, dtype=float)
    lp.row_lower_ = (
        np.full(n_rows, -_INF) if row_lower is None
        else np.asarray(row_lower, dtype=float)
    )
    lp.row_upper_ = np.asarray(arrays.b_ub, dtype=float)
    start, index, value = colwise(arrays) if matrix is None else matrix
    lp.a_matrix_.format_ = _highs_core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = index
    lp.a_matrix_.value_ = value
    h = _highs_core._Highs()
    h.setOptionValue("output_flag", False)
    h.setOptionValue("presolve", "on")
    h.setOptionValue("simplex_strategy", 1)  # dual simplex
    h.passModel(lp)
    return h


def run_highs(h, backend: str) -> LpSolution:
    """Solve a loaded model and read its optimum; raises
    :class:`LpError` on infeasible/unbounded models."""
    h.run()
    status = h.getModelStatus()
    Status = _highs_core.HighsModelStatus
    if status == Status.kInfeasible:
        raise LpError(LpStatus.INFEASIBLE)
    if status in (Status.kUnbounded, Status.kUnboundedOrInfeasible):
        raise LpError(LpStatus.UNBOUNDED)
    if status != Status.kOptimal:  # pragma: no cover - solver quirks
        raise LpError(f"HiGHS solve failed: {h.modelStatusToString(status)}")
    info = h.getInfo()
    iterations = int(info.simplex_iteration_count)
    obs_trace.add("lp_pivots", iterations)
    _PIVOTS.labels(backend).inc(iterations)
    return LpSolution(
        status=LpStatus.OPTIMAL,
        objective=float(info.objective_function_value),
        values=tuple(h.getSolution().col_value),
        backend=backend,
        iterations=iterations,
    )


class WarmUbModel:
    """A resident HiGHS model over a pre-assembled ``A_ub v <= b_ub`` LP.

    Parameters
    ----------
    arrays:
        A :class:`repro.lpsolve.UbArrays`-shaped tuple (COO
        triplets, objective, bounds).  The model keeps a reference: the
        sparsity pattern is fixed for the model's lifetime, and
        :meth:`update` accepts only assemblies with the identical
        pattern (same rows/cols — exactly what
        :func:`repro.core.lp.patch_allotment_arrays` produces).
    """

    def __init__(self, arrays):
        self._arrays = arrays
        self._solved_once = False
        self._h = load_highs(arrays)

    # ------------------------------------------------------------------
    def update(self, arrays) -> int:
        """Push the diff between the loaded assembly and ``arrays``.

        Returns the number of individual modifications applied.  The
        new assembly must share the loaded one's sparsity pattern
        (rows/cols identical); only ``lo``/``hi``, ``vals`` and
        ``b_ub`` entries may differ.  The solver's basis survives the
        edits, so the next :meth:`solve` is warm.
        """
        old = self._arrays
        if len(arrays.vals) != len(old.vals) or len(arrays.b_ub) != len(
            old.b_ub
        ):
            raise LpError(
                "warm update requires an identical sparsity pattern"
            )
        h = self._h
        edits = 0
        changed_cols = np.flatnonzero(
            (arrays.lo != old.lo) | (arrays.hi != old.hi)
        )
        for col in changed_cols:
            h.changeColBounds(
                int(col), float(arrays.lo[col]), float(arrays.hi[col])
            )
        edits += len(changed_cols)
        changed_nz = np.flatnonzero(arrays.vals != old.vals)
        for k in changed_nz:
            h.changeCoeff(
                int(old.rows[k]), int(old.cols[k]), float(arrays.vals[k])
            )
        edits += len(changed_nz)
        changed_rows = np.flatnonzero(arrays.b_ub != old.b_ub)
        for r in changed_rows:
            h.changeRowBounds(int(r), -_INF, float(arrays.b_ub[r]))
        edits += len(changed_rows)
        self._arrays = arrays
        return edits

    def solve(self) -> LpSolution:
        """Run the solver; warm from the previous basis after the first
        call.  Raises :class:`LpError` on infeasible/unbounded models."""
        warm = self._solved_once
        sol = run_highs(self._h, "highs-warm")
        if not warm:
            # Presolve would run again on every re-solve and discard
            # the basis; from here on the warm pivots are the point.
            self._h.setOptionValue("presolve", "off")
            self._solved_once = True
        else:
            obs_trace.add("warm_starts", 1)
            _WARM.labels("highs-warm").inc()
        return sol

    @property
    def arrays(self):
        """The assembly currently loaded in the model."""
        return self._arrays
