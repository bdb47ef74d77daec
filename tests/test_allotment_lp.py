"""Tests for LP (9) construction and its optimum (:mod:`repro.core.lp`)."""

import pytest

from repro import Instance, MalleableTask
from repro.core import build_allotment_lp, solve_allotment_lp
from repro.dag import chain_dag, diamond_dag, independent_dag
from repro.models import power_law_profile


def make_inst(dag, m, d=0.5, p1=10.0):
    return Instance.from_profile_fn(
        dag, m, lambda j: power_law_profile(p1, d, m)
    )


class TestConstruction:
    def test_sizes(self):
        inst = make_inst(diamond_dag(3), 4)
        built = build_allotment_lp(inst)
        n, m = inst.n_tasks, inst.m
        assert built.lp.n_variables == 3 * n + 2
        # |E| precedence rows, a fit row per source, a span row per
        # sink, one segment row per canonical chord, L<=C and W/m<=C.
        segs = sum(len(inst.task(j).segments()) for j in range(n))
        sources = sum(not inst.dag.predecessors(j) for j in range(n))
        sinks = sum(not inst.dag.successors(j) for j in range(n))
        assert (sources, sinks) == (1, 1)
        assert built.lp.n_constraints == (
            inst.dag.n_edges + sources + sinks + segs + 2
        )

    def test_variable_bounds_match_profiles(self):
        inst = make_inst(chain_dag(3), 4)
        built = build_allotment_lp(inst)
        for j, v in enumerate(built.x_vars):
            lo, hi = built.lp.bounds[v]
            assert lo == pytest.approx(inst.task(j).min_time)
            assert hi == pytest.approx(inst.task(j).max_time)


class TestSingleTask:
    def test_single_task_optimum(self):
        """One task alone: C* = max over the tradeoff of max(x, w(x)/m);
        for a power law the best is x = p(m) where both equal W(m)/m...
        actually min over x of max(x, w(x)/m)."""
        m = 4
        inst = make_inst(independent_dag(1), m, d=1.0)
        # Linear speedup: w(x) = p1 for all x, so optimum is
        # max(x, p1/m) minimized at x = p(m) = p1/m.
        res = solve_allotment_lp(inst)
        assert res.objective == pytest.approx(10.0 / 4, rel=1e-6)

    def test_rigid_single_task(self):
        m = 3
        inst = Instance([MalleableTask([5.0] * m)], independent_dag(1), m)
        res = solve_allotment_lp(inst)
        assert res.objective == pytest.approx(5.0, rel=1e-6)


class TestOptimumProperties:
    @pytest.mark.parametrize("backend", ["scipy", "simplex"])
    def test_backends_agree(self, backend):
        inst = make_inst(diamond_dag(4), 6)
        res = solve_allotment_lp(inst, backend=backend)
        ref = solve_allotment_lp(inst, backend="scipy")
        assert res.objective == pytest.approx(ref.objective, rel=1e-6)

    def test_objective_is_max_of_L_and_W_over_m(self):
        inst = make_inst(diamond_dag(5), 8)
        res = solve_allotment_lp(inst)
        assert res.objective == pytest.approx(
            max(res.critical_path, res.total_work / inst.m), rel=1e-5
        )

    def test_dominates_combinatorial_bounds(self):
        inst = make_inst(diamond_dag(5), 8)
        res = solve_allotment_lp(inst)
        assert res.objective >= inst.min_critical_path() - 1e-6
        assert (
            res.objective >= inst.min_total_work() / inst.m - 1e-6
        )

    def test_x_within_profile_ranges(self):
        inst = make_inst(diamond_dag(5), 8)
        res = solve_allotment_lp(inst)
        for j, x in enumerate(res.x):
            t = inst.task(j)
            assert t.min_time - 1e-7 <= x <= t.max_time + 1e-7

    def test_completion_times_respect_precedence(self):
        inst = make_inst(chain_dag(4), 4)
        res = solve_allotment_lp(inst)
        for (i, j) in inst.dag.edges:
            assert (
                res.completion[i] + res.x[j]
                <= res.completion[j] + 1e-6
            )

    def test_work_bar_at_least_true_work(self):
        inst = make_inst(diamond_dag(4), 6)
        res = solve_allotment_lp(inst)
        for j in range(inst.n_tasks):
            assert res.work_bar[j] >= res.work[j] - 1e-6

    def test_chain_optimum_is_full_speed(self):
        """On a chain, W/m never binds, so every task runs at x = p(m)."""
        m = 4
        inst = make_inst(chain_dag(5), m, d=0.5)
        res = solve_allotment_lp(inst)
        for j, x in enumerate(res.x):
            assert x == pytest.approx(inst.task(j).min_time, rel=1e-5)
        assert res.objective == pytest.approx(
            inst.min_critical_path(), rel=1e-6
        )

    def test_wide_graph_optimum_is_work_bound(self):
        """Many independent tasks: the work bound dominates and tasks are
        kept (nearly) sequential where the work function is increasing."""
        m = 4
        inst = make_inst(independent_dag(16), m, d=0.5)
        res = solve_allotment_lp(inst)
        assert res.objective == pytest.approx(
            res.total_work / m, rel=1e-5
        )

    def test_more_processors_never_hurts(self):
        vals = []
        for m in (2, 4, 8):
            inst = Instance.from_profile_fn(
                diamond_dag(6), m,
                lambda j: power_law_profile(10.0, 0.6, m),
            )
            vals.append(solve_allotment_lp(inst).objective)
        assert vals[0] >= vals[1] - 1e-6 >= vals[2] - 2e-6

    def test_lower_bound_vs_optimal_schedule(self):
        """eq. (11): C* <= OPT on an exactly solvable instance."""
        from repro.baselines import optimal_makespan

        m = 3
        inst = make_inst(diamond_dag(3), m, d=0.7)
        cstar = solve_allotment_lp(inst).objective
        opt = optimal_makespan(inst)
        assert cstar <= opt + 1e-6
