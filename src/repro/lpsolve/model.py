"""A small linear-programming modeling layer.

The allotment phase of the paper's algorithm solves linear program (9).
Rather than hand-coding matrices at the call site, :mod:`repro.core.lp`
builds the LP through this modeling layer, which can then be solved by
either of two interchangeable backends:

* :mod:`repro.lpsolve.simplex` — a self-contained dense two-phase primal
  simplex implemented in this repository (no external dependencies), and
* :mod:`repro.lpsolve.scipy_backend` — SciPy's HiGHS solver, used by
  default when SciPy is importable because it is much faster on large
  instances.

The model is a minimization problem over real variables with box bounds and
linear constraints with senses ``<=``, ``>=`` or ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = ["LinearProgram", "LpSolution", "LpStatus", "LpError", "UbArrays"]


class LpError(RuntimeError):
    """Raised when an LP cannot be solved (infeasible/unbounded/failure)."""


class LpStatus:
    """Solver status constants."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class UbArrays(NamedTuple):
    """A model as NumPy arrays, ``A_ub v <= b_ub`` with box bounds —
    the shape every HiGHS solve loads (see
    :mod:`repro.lpsolve.highs_warm`)."""

    n_variables: int
    c: np.ndarray  #: objective coefficients
    lo: np.ndarray  #: variable lower bounds
    hi: np.ndarray  #: variable upper bounds
    rows: np.ndarray  #: COO row indices of A_ub
    cols: np.ndarray  #: COO column indices of A_ub
    vals: np.ndarray  #: COO values of A_ub
    b_ub: np.ndarray  #: right-hand sides


@dataclass(frozen=True)
class LpSolution:
    """Result of an LP solve.

    Attributes
    ----------
    status:
        One of :class:`LpStatus`.
    objective:
        Optimal objective value (minimization), when optimal.
    values:
        Optimal variable values indexed like the model's variables.
    backend:
        Which solver produced the solution (``"simplex"`` or ``"scipy"``).
    iterations:
        Pivot/iteration count reported by the backend (0 if unknown).
    basis:
        Final basis (one standard-form column index per row) when the
        backend exposes one — the built-in simplex does, and accepts it
        back as a warm start for a re-solve of a structurally identical
        model (see :func:`repro.lpsolve.simplex.solve_with_simplex`).
    """

    status: str
    objective: float
    values: Tuple[float, ...]
    backend: str
    iterations: int = 0
    basis: Optional[Tuple[int, ...]] = None

    def __getitem__(self, var: int) -> float:
        return self.values[var]


class LinearProgram:
    """Mutable builder for ``min c^T v`` subject to linear constraints.

    Variables are identified by the integer handle returned from
    :meth:`add_variable`.  Constraints are sparse: a mapping from variable
    handle to coefficient.
    """

    def __init__(self, name: str = "lp"):
        self.name = name
        self._obj: List[float] = []
        self._lo: List[float] = []
        self._hi: List[float] = []
        self._var_names: List[str] = []
        # Each constraint: (coeffs dict, sense, rhs, name)
        self._cons: List[Tuple[Dict[int, float], str, float, str]] = []

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def add_variable(
        self,
        name: str = "",
        lo: float = 0.0,
        hi: float = float("inf"),
        obj: float = 0.0,
    ) -> int:
        """Add a variable with bounds ``[lo, hi]`` and objective coefficient
        ``obj``; returns its integer handle."""
        if lo > hi:
            raise ValueError(f"variable {name!r}: lo={lo} > hi={hi}")
        self._obj.append(float(obj))
        self._lo.append(float(lo))
        self._hi.append(float(hi))
        self._var_names.append(name or f"v{len(self._obj) - 1}")
        return len(self._obj) - 1

    def set_objective(self, var: int, coef: float) -> None:
        """Set (overwrite) the objective coefficient of ``var``."""
        self._obj[var] = float(coef)

    def add_constraint(
        self,
        coeffs: Dict[int, float],
        sense: str,
        rhs: float,
        name: str = "",
    ) -> int:
        """Add ``sum coeffs[v] * v  (sense)  rhs`` with sense in
        {"<=", ">=", "=="}; returns the constraint index."""
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"unknown sense {sense!r}")
        clean = {int(v): float(c) for v, c in coeffs.items() if c != 0.0}
        for v in clean:
            if not (0 <= v < len(self._obj)):
                raise ValueError(f"constraint references unknown variable {v}")
        self._cons.append((clean, sense, float(rhs), name))
        return len(self._cons) - 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def n_variables(self) -> int:
        return len(self._obj)

    @property
    def n_constraints(self) -> int:
        return len(self._cons)

    @property
    def objective_coefficients(self) -> Tuple[float, ...]:
        return tuple(self._obj)

    @property
    def bounds(self) -> Tuple[Tuple[float, float], ...]:
        return tuple(zip(self._lo, self._hi))

    @property
    def constraints(
        self,
    ) -> Tuple[Tuple[Dict[int, float], str, float, str], ...]:
        return tuple(self._cons)

    def variable_name(self, var: int) -> str:
        return self._var_names[var]

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(self, backend: str = "auto") -> LpSolution:
        """Solve the model.

        ``backend`` is ``"auto"`` (scipy if available, else simplex),
        ``"scipy"`` or ``"simplex"``.  Raises :class:`LpError` when the
        problem is infeasible or unbounded.
        """
        if backend not in ("auto", "scipy", "simplex"):
            raise ValueError(f"unknown backend {backend!r}")
        if backend in ("auto", "scipy"):
            try:
                from .scipy_backend import solve_with_scipy

                return solve_with_scipy(self)
            except ImportError:
                if backend == "scipy":
                    raise LpError("scipy backend requested but unavailable")
        from .simplex import solve_with_simplex

        return solve_with_simplex(self)

    def check_solution(
        self, values: Sequence[float], tol: float = 1e-6
    ) -> List[str]:
        """Return human-readable descriptions of violated constraints/bounds
        (empty list means the point is feasible within ``tol``)."""
        bad: List[str] = []
        scale = 1.0 + max((abs(v) for v in values), default=0.0)
        for v, (lo, hi) in enumerate(zip(self._lo, self._hi)):
            if values[v] < lo - tol * scale:
                bad.append(
                    f"{self._var_names[v]} = {values[v]} < lower bound {lo}"
                )
            if values[v] > hi + tol * scale:
                bad.append(
                    f"{self._var_names[v]} = {values[v]} > upper bound {hi}"
                )
        for idx, (coeffs, sense, rhs, name) in enumerate(self._cons):
            lhs = sum(c * values[v] for v, c in coeffs.items())
            label = name or f"c{idx}"
            if sense == "<=" and lhs > rhs + tol * scale:
                bad.append(f"{label}: {lhs} <= {rhs} violated")
            elif sense == ">=" and lhs < rhs - tol * scale:
                bad.append(f"{label}: {lhs} >= {rhs} violated")
            elif sense == "==" and abs(lhs - rhs) > tol * scale:
                bad.append(f"{label}: {lhs} == {rhs} violated")
        return bad

    def __repr__(self) -> str:
        return (
            f"LinearProgram({self.name!r}, vars={self.n_variables}, "
            f"cons={self.n_constraints})"
        )
