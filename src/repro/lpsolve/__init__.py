"""LP substrate: modeling layer, built-in simplex, optional SciPy backend."""

from .model import LinearProgram, LpError, LpSolution, LpStatus, UbArrays
from .simplex import solve_with_simplex

__all__ = [
    "LinearProgram",
    "LpError",
    "LpSolution",
    "LpStatus",
    "UbArrays",
    "solve_with_simplex",
]
