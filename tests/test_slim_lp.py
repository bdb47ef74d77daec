"""The slim LP (9) layout against the full one, and the HiGHS seam
against ``scipy.optimize.linprog``.

:func:`repro.core.lp.lp9_arrays` leaves out the fit rows of tasks with a
predecessor and the span rows of tasks with a successor.  Those rows are
implied by the precedence rows, so the optimum must match the paper's
full layout (the :mod:`lp_oracle` reference) to 1e-9 relative, and the
slim optimum must be feasible in the full LP.  The direct HiGHS seam
must return exactly what ``linprog(method="highs")`` returns.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lp_oracle import full_allotment_arrays, linprog_solve, max_violation
from repro.core.allotment_bsearch import assemble_deadline_arrays
from repro.core.instance import Instance
from repro.core.lp import assemble_allotment_arrays
from repro.dag import Dag
from repro.lpsolve import LinearProgram, LpError
from repro.lpsolve import scipy_backend
from repro.lpsolve.scipy_backend import solve_ub_arrays, solve_with_scipy
from repro.workloads import make_instance, make_tasks_for_dag


@st.composite
def instances(draw):
    """A random DAG over a connected-ish prefix plus 0–3 isolated
    tasks, with power, amdahl or mixed profiles."""
    core = draw(st.integers(1, 24))
    isolated = draw(st.integers(0, 3))
    pairs = [(i, j) for i in range(core) for j in range(i + 1, core)]
    edges = draw(
        st.lists(st.sampled_from(pairs), max_size=2 * core)
        if pairs else st.just([])
    )
    dag = Dag(core + isolated, edges)
    m = draw(st.sampled_from([1, 2, 4, 8]))
    model = draw(st.sampled_from(["power", "amdahl", "mixed"]))
    seed = draw(st.integers(0, 2**16))
    return Instance(make_tasks_for_dag(dag, m, model=model, seed=seed), dag, m)


def _row_count(inst):
    dag = inst.dag
    n = inst.n_tasks
    sources = sum(not dag.predecessors(j) for j in range(n))
    sinks = sum(not dag.successors(j) for j in range(n))
    segs = sum(len(inst.task(j).segments()) for j in range(n))
    return dag.n_edges + sources + sinks + segs + 2


@settings(max_examples=60, deadline=None)
@given(instances())
def test_slim_lp_matches_full_layout(inst):
    slim = assemble_allotment_arrays(inst)
    full = full_allotment_arrays(inst)
    assert len(slim.b_ub) == _row_count(inst)
    segs = sum(len(inst.task(j).segments()) for j in range(inst.n_tasks))
    assert len(full.b_ub) == inst.dag.n_edges + 2 * inst.n_tasks + segs + 2
    got = solve_ub_arrays(slim)
    ref = linprog_solve(full)
    assert ref.status == 0
    assert math.isclose(got.objective, ref.fun, rel_tol=1e-9)
    assert max_violation(full, got.values) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(instances())
def test_direct_seam_bit_identical_to_linprog(inst):
    arrays = assemble_allotment_arrays(inst)
    got = solve_ub_arrays(arrays)
    ref = linprog_solve(arrays)
    assert got.objective == ref.fun
    assert got.values == tuple(ref.x)
    assert got.iterations == ref.nit


def _full_fit_rows(arrays):
    """``arrays`` plus the fit row ``x_j - C_j <= 0`` of every task."""
    n = arrays.n_variables // 3
    xs = np.arange(n) * 3
    r0 = len(arrays.b_ub)
    return arrays._replace(
        rows=np.concatenate([arrays.rows, np.repeat(r0 + np.arange(n), 2)]),
        cols=np.concatenate(
            [arrays.cols, np.column_stack([xs, xs + 1]).ravel()]
        ),
        vals=np.concatenate([arrays.vals, np.tile([1.0, -1.0], n)]),
        b_ub=np.concatenate([arrays.b_ub, np.zeros(n)]),
    )


@settings(max_examples=40, deadline=None)
@given(instances(), st.floats(0.3, 1.2))
def test_slim_deadline_lp_matches_full_fit_rows(inst, frac):
    arrays = assemble_deadline_arrays(inst)
    hi = arrays.hi.copy()
    hi[arrays.c_cols] = inst.sequential_makespan() * frac
    slim = arrays._replace(hi=hi)
    ref = linprog_solve(_full_fit_rows(slim))
    if ref.status == 2:
        with pytest.raises(LpError):
            solve_ub_arrays(slim)
        return
    got = solve_ub_arrays(slim)
    assert math.isclose(got.objective, ref.fun, rel_tol=1e-9, abs_tol=1e-12)
    assert max_violation(_full_fit_rows(slim), got.values) <= 1e-9


@pytest.mark.parametrize("family", ["layered", "chain", "erdos_renyi"])
def test_linprog_fallback_matches_seam(family, monkeypatch):
    """Without the vendored binding the seam falls back to linprog and
    returns the same solution."""
    inst = make_instance(family, 30, 4, model="mixed", seed=5)
    arrays = assemble_allotment_arrays(inst)
    seam = solve_ub_arrays(arrays)
    monkeypatch.setattr(scipy_backend, "warm_capable", lambda: False)
    fallback = solve_ub_arrays(arrays)
    assert (fallback.objective, fallback.values) == (
        seam.objective, seam.values
    )


@pytest.mark.parametrize("direct", [True, False])
def test_model_seam_handles_ge_and_eq_rows(direct, monkeypatch):
    """min x + 2y  s.t.  x + y >= 3,  x - y == 1,  y <= 5."""
    if not direct:
        monkeypatch.setattr(scipy_backend, "warm_capable", lambda: False)
    lp = LinearProgram()
    x = lp.add_variable("x", obj=1.0)
    y = lp.add_variable("y", hi=5.0, obj=2.0)
    lp.add_constraint({x: 1.0, y: 1.0}, ">=", 3.0)
    lp.add_constraint({x: 1.0, y: -1.0}, "==", 1.0)
    sol = solve_with_scipy(lp)
    assert sol.objective == pytest.approx(4.0)
    assert (sol[x], sol[y]) == pytest.approx((2.0, 1.0))
    lp.add_constraint({x: 1.0}, "<=", 1.0)
    with pytest.raises(LpError):
        solve_with_scipy(lp)
