"""Alternative phase 1: deadline LP + binary search (the [18] approach).

The Remark at the end of Section 3.1 explains that the paper *avoids* the
earlier two-step approach of Lepère et al. [18]: there, the allotment
problem is treated as a bicriteria time-cost tradeoff — for a guessed
deadline ``d`` on the critical path, minimize the total work — and a
binary search over ``d`` balances the two criteria, whereas LP (9) embeds
both criteria (``L <= C`` and ``W/m <= C``) in a single program.

This module implements the avoided variant faithfully so the claim can be
*measured* (see ``benchmarks/bench_phase1_variants.py``): same final
quality (both phase-1 formulations relax the same problem) but strictly
more LP solves for the binary search.

Because the search solves the *same* LP a few dozen times with only the
deadline changing, the re-solves are warm-started instead of rebuilt from
scratch:

* the constraint matrix is assembled **once** per instance
  (:func:`assemble_deadline_arrays`, memoized) — each probe only swaps
  the completion-variable upper bounds before handing the sparse arrays
  to HiGHS, which leaves the solution bit-identical to the cold path;
* with the built-in simplex backend, each probe additionally starts from
  the previous probe's optimal **basis**
  (:func:`repro.lpsolve.simplex.solve_with_simplex`'s ``warm_basis``),
  falling back to the cold two-phase start when the basis is no longer
  feasible at the new deadline.

API
---
:func:`deadline_work_lp` — min Σ w̄_j/m subject to the precedence system
with every completion time <= ``d``.
:func:`bsearch_allotment` — binary search on ``d`` to minimize
``max(d, W(d)/m)``, then critical-point rounding; returns the allotment
and a report with the search trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from ..lpsolve import LinearProgram, LpError
from ..obs import trace as obs_trace
from ..obs.metrics import REGISTRY as _METRICS
from .arrays import memoized_on_instance
from .instance import Instance
from .lp import instance_lp9_arrays, lp_model
from .rounding import round_fractional_times

__all__ = [
    "assemble_deadline_arrays",
    "deadline_work_lp",
    "DeadlineArrays",
    "DeadlineLpResult",
    "BsearchReport",
    "bsearch_allotment",
]


@dataclass(frozen=True)
class DeadlineLpResult:
    """Optimal fractional times for one deadline guess."""

    deadline: float
    total_work: float  #: W(d) = Σ w_j(x_j) at the optimum
    x: Tuple[float, ...]


class DeadlineArrays(NamedTuple):
    """The deadline LP assembled in bulk (``A_ub v <= b_ub`` form).

    :func:`repro.core.lp.lp9_arrays` with ``coupled=False``: variables
    ``x_j = 3j``, ``C_j = 3j + 1``, ``w_j = 3j + 2``; rows grouped per
    task (a fit row for sources only — a task with a predecessor has it
    implied by its precedence rows — then the work segments), then the
    precedence arcs.  The deadline itself only appears as the upper
    bound of the ``C_j`` variables (``c_cols``), so one assembly serves
    every probe of the binary search.
    """

    n_variables: int
    c: np.ndarray  #: objective coefficients (1 on every w̄_j)
    lo: np.ndarray  #: variable lower bounds
    hi: np.ndarray  #: variable upper bounds, *without* a deadline
    rows: np.ndarray  #: COO row indices of A_ub
    cols: np.ndarray  #: COO column indices of A_ub
    vals: np.ndarray  #: COO values of A_ub
    b_ub: np.ndarray  #: right-hand sides
    c_cols: np.ndarray  #: column indices of the C_j variables


@memoized_on_instance
def assemble_deadline_arrays(instance: Instance) -> DeadlineArrays:
    """Assemble the deadline LP's constraint matrix once, memoized.

    The modeling-layer path of :func:`deadline_work_lp` is built from
    the same arrays, so handing either to the same solver returns the
    same optimum.
    """
    arrays = instance_lp9_arrays(instance, coupled=False)
    return DeadlineArrays(
        *arrays, c_cols=np.arange(1, arrays.n_variables, 3)
    )


def _build_deadline_model(
    instance: Instance, deadline: float
) -> Tuple[LinearProgram, list]:
    """Modeling-layer build of the deadline LP (the dense fallback)."""
    arrays = assemble_deadline_arrays(instance)
    hi = arrays.hi.copy()
    hi[arrays.c_cols] = deadline
    lp = lp_model(arrays._replace(hi=hi), f"deadline-work d={deadline:g}")
    return lp, list(range(0, arrays.n_variables, 3))


_PROBES = _METRICS.counter(
    "repro_solver_bsearch_probes_total",
    "Deadline LP probes solved by the binary-search phase 1",
)


class _DeadlineSolver:
    """Warm-start state for the binary search's repeated deadline solves.

    With SciPy available (backend ``"auto"``/``"scipy"``) the instance's
    :class:`DeadlineArrays` are assembled once and every probe only swaps
    the ``C_j`` upper bounds — solutions are identical to the cold
    modeling-layer path.  With the built-in simplex the model is rebuilt
    per probe (it is cheap at simplex-friendly sizes) but each solve
    starts from the previous probe's optimal basis.  ``warm_start=False``
    disables both: every probe rebuilds the model and solves cold,
    exactly the pre-warm-start behavior — which is what the pinning
    tests compare the warm path against.
    """

    def __init__(
        self,
        instance: Instance,
        backend: str = "auto",
        warm_start: bool = True,
    ):
        self._instance = instance
        self._backend = backend
        self._warm_start = bool(warm_start)
        self._basis: Optional[Tuple[int, ...]] = None
        self._arrays: Optional[DeadlineArrays] = None
        self._matrix = None
        if backend in ("auto", "scipy"):
            try:
                # Importing the SciPy backend is the availability check.
                from ..lpsolve.scipy_backend import colwise

                if warm_start:
                    self._arrays = assemble_deadline_arrays(instance)
                    self._matrix = colwise(self._arrays)
            except ImportError:
                if backend == "scipy":
                    raise LpError(
                        "scipy backend requested but unavailable"
                    ) from None

    def solve(self, deadline: float) -> Optional[DeadlineLpResult]:
        """One probe: ``None`` when the deadline is infeasible."""
        if deadline <= 0:
            return None
        with obs_trace.span("lp.probe", deadline=deadline):
            obs_trace.add("bsearch_probes", 1)
            _PROBES.inc()
            return self._probe(deadline)

    def _probe(self, deadline: float) -> Optional[DeadlineLpResult]:
        instance = self._instance
        n = instance.n_tasks
        if self._arrays is not None:
            from ..lpsolve.scipy_backend import solve_ub_arrays

            arr = self._arrays
            hi = arr.hi.copy()
            hi[arr.c_cols] = deadline
            try:
                sol = solve_ub_arrays(
                    arr._replace(hi=hi), A_ub=self._matrix
                )
            except LpError:
                return None
            x = tuple(sol.values[3 * j] for j in range(n))
        else:
            # Cold path: rebuild the model per probe (exactly the
            # pre-warm-start behavior; also the no-SciPy fallback).
            lp, x_vars = _build_deadline_model(instance, deadline)
            if self._backend == "simplex":
                from ..lpsolve.simplex import solve_with_simplex

                try:
                    sol = solve_with_simplex(
                        lp,
                        warm_basis=(
                            self._basis if self._warm_start else None
                        ),
                    )
                except LpError:
                    return None
                self._basis = sol.basis
            else:
                try:
                    sol = lp.solve(backend=self._backend)
                except LpError:
                    return None
            x = tuple(sol[v] for v in x_vars)
        total = sum(
            instance.task(j).work_of_time(x[j]) for j in range(n)
        )
        return DeadlineLpResult(deadline=deadline, total_work=total, x=x)


def deadline_work_lp(
    instance: Instance, deadline: float, backend: str = "auto"
) -> Optional[DeadlineLpResult]:
    """Minimize total work subject to critical path <= ``deadline``.

    Returns ``None`` when the deadline is infeasible (shorter than the
    all-``m`` critical path).  One-shot form of :class:`_DeadlineSolver`
    — repeated solves of the same instance share the memoized matrix
    assembly.
    """
    return _DeadlineSolver(instance, backend=backend).solve(deadline)


@dataclass(frozen=True)
class BsearchReport:
    """Outcome of the binary-search phase 1."""

    allotment: Tuple[int, ...]
    x: Tuple[float, ...]
    deadline: float  #: final deadline guess d
    objective: float  #: max(d, W(d)/m) achieved
    lp_solves: int  #: number of deadline LPs solved (the avoided cost)


def bsearch_allotment(
    instance: Instance,
    rho: float,
    rel_tol: float = 1e-4,
    max_iterations: int = 60,
    backend: str = "auto",
    warm_start: bool = True,
) -> BsearchReport:
    """Phase 1 via deadline binary search, as in [18].

    Searches the deadline ``d`` in ``[L_min, Σ p_j(1)]`` for the balance
    point of ``max(d, W(d)/m)`` (``W(d)`` is non-increasing in ``d``,
    ``d`` is increasing, so the max is unimodal), then applies the same
    critical-point rounding as the direct pipeline.  Every probe after
    the first is warm-started (see the module docstring); pass
    ``warm_start=False`` for the cold-start path, which the test suite
    pins the warm results against.
    """
    m = instance.m
    lo = max(instance.min_critical_path(), 1e-12)
    hi = max(instance.sequential_makespan(), lo * (1 + 1e-9))
    solver = _DeadlineSolver(
        instance, backend=backend, warm_start=warm_start
    )
    solves = 0

    def evaluate(d: float) -> Tuple[float, Optional[DeadlineLpResult]]:
        nonlocal solves
        res = solver.solve(d)
        solves += 1
        if res is None:
            return float("inf"), None
        return max(d, res.total_work / m), res

    best_obj, best = evaluate(hi)
    # Binary search: if W(d)/m > d the balance point is to the right.
    for _ in range(max_iterations):
        if hi - lo <= rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        obj, res = evaluate(mid)
        if res is None:
            lo = mid
            continue
        if obj < best_obj:
            best_obj, best = obj, res
        if res.total_work / m > mid:
            lo = mid
        else:
            hi = mid
    if best is None:  # pragma: no cover - hi is always feasible
        raise RuntimeError("binary search found no feasible deadline")
    allot = round_fractional_times(instance, best.x, rho)
    return BsearchReport(
        allotment=tuple(allot),
        x=tuple(best.x),
        deadline=best.deadline,
        objective=best_obj,
        lp_solves=solves,
    )
