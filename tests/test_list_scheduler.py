"""Tests for LIST (Table 1) and the μ cap."""

import numpy as np
import pytest

from repro import Dag, Instance, assert_feasible
from repro.core import capped_allotment, list_schedule
from repro.dag import chain_dag, diamond_dag, independent_dag, layered_dag
from repro.models import power_law_profile
from repro.schedule import busy_profile


def make_inst(dag, m, d=0.5, p1=10.0):
    return Instance.from_profile_fn(
        dag, m, lambda j: power_law_profile(p1, d, m)
    )


class TestCappedAllotment:
    def test_caps(self):
        assert capped_allotment([1, 4, 8], 3) == [1, 3, 3]

    def test_identity_when_mu_large(self):
        assert capped_allotment([1, 2, 3], 10) == [1, 2, 3]

    def test_bad_mu(self):
        with pytest.raises(ValueError):
            capped_allotment([1], 0)


class TestListScheduleBasics:
    def test_chain_is_sequential(self):
        m = 4
        inst = make_inst(chain_dag(3), m)
        s = list_schedule(inst, [m] * 3)
        assert_feasible(inst, s)
        # On a chain, each task starts exactly when the previous ends.
        assert s[1].start == pytest.approx(s[0].end)
        assert s[2].start == pytest.approx(s[1].end)
        assert s.makespan == pytest.approx(
            sum(inst.task(j).time(m) for j in range(3))
        )

    def test_independent_tasks_packed(self):
        m = 4
        inst = make_inst(independent_dag(4), m)
        s = list_schedule(inst, [1] * 4)
        assert_feasible(inst, s)
        # All four fit side by side.
        assert s.makespan == pytest.approx(inst.task(0).time(1))

    def test_diamond(self):
        m = 2
        inst = make_inst(diamond_dag(2), m)
        s = list_schedule(inst, [1] * 4)
        assert_feasible(inst, s)
        # source, two parallel, sink
        assert s.makespan == pytest.approx(3 * inst.task(0).time(1))

    def test_mu_cap_applied(self):
        m = 8
        inst = make_inst(independent_dag(3), m)
        s = list_schedule(inst, [8, 8, 8], mu=2)
        for e in s.entries:
            assert e.processors == 2

    def test_mu_none_means_no_cap(self):
        m = 4
        inst = make_inst(independent_dag(1), m)
        s = list_schedule(inst, [4], mu=None)
        assert s[0].processors == 4

    def test_invalid_allotment(self):
        inst = make_inst(chain_dag(2), 4)
        with pytest.raises(ValueError):
            list_schedule(inst, [0, 1])
        with pytest.raises(ValueError):
            list_schedule(inst, [1])
        with pytest.raises(ValueError):
            list_schedule(inst, [1, 5])

    def test_invalid_mu(self):
        inst = make_inst(chain_dag(2), 4)
        with pytest.raises(ValueError):
            list_schedule(inst, [1, 1], mu=5)

    def test_empty_instance(self):
        inst = Instance([], Dag(0), 3)
        s = list_schedule(inst, [])
        assert s.makespan == 0.0


class TestListScheduleProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_feasible_on_random_dags(self, seed):
        m = 6
        dag = layered_dag(18, 5, 0.4, seed=seed)
        inst = make_inst(dag, m, d=0.6)
        import random

        rng = random.Random(seed)
        alloc = [rng.randint(1, m) for _ in range(18)]
        s = list_schedule(inst, alloc, mu=3)
        assert_feasible(inst, s)

    def test_no_unnecessary_idle_at_time_zero(self):
        """LIST is greedy: some source task starts at time 0."""
        m = 4
        dag = layered_dag(12, 4, 0.5, seed=2)
        inst = make_inst(dag, m)
        s = list_schedule(inst, [2] * 12, mu=2)
        assert min(e.start for e in s.entries) == 0.0

    def test_graham_bound_for_unit_allotment(self):
        """Classic Graham bound: Cmax <= W/m + L for l_j = 1."""
        m = 4
        dag = layered_dag(20, 5, 0.5, seed=3)
        inst = make_inst(dag, m)
        s = list_schedule(inst, [1] * 20)
        W = inst.total_work_for_allotment([1] * 20)
        L = inst.critical_path_for_allotment([1] * 20)
        assert s.makespan <= W / m + L + 1e-6

    def test_machine_never_fully_idle_before_makespan(self):
        """List schedules never have an interval with zero busy processors
        strictly inside [0, makespan) (some ready task would have run)."""
        m = 4
        dag = layered_dag(15, 4, 0.6, seed=4)
        inst = make_inst(dag, m)
        s = list_schedule(inst, [2] * 15, mu=2)
        prof = busy_profile(s)
        for k, (t, busy) in enumerate(prof):
            end = prof[k + 1][0] if k + 1 < len(prof) else s.makespan
            if end - t > 1e-9 and t < s.makespan - 1e-9:
                assert busy > 0, f"idle interval [{t}, {end})"

    def test_deterministic(self):
        m = 4
        dag = layered_dag(15, 4, 0.6, seed=5)
        inst = make_inst(dag, m)
        a = list_schedule(inst, [2] * 15, mu=2)
        b = list_schedule(inst, [2] * 15, mu=2)
        assert [
            (e.task, e.start, e.processors) for e in a.entries
        ] == [(e.task, e.start, e.processors) for e in b.entries]


class TestTierDispatch:
    """The loop/array choice reads the widest level times the mean level
    width; both tiers produce the same schedule."""

    @staticmethod
    def _entries(schedule):
        return [
            (e.task, e.start, e.processors, e.duration)
            for e in schedule.entries
        ]

    def test_wide_level_picks_array_tier(self):
        from repro.core.list_scheduler import dispatch_tier, list_schedule_loop
        from repro.workloads import make_instance

        # n / #levels is about 57, but one level holds 256 tasks.
        inst = make_instance("intree", 1000, 8, model="power", seed=5)
        widths = np.diff(inst.dag.to_csr().depths().ptr)
        assert inst.n_tasks / len(widths) < 70 and widths.max() >= 256
        assert dispatch_tier(inst) == "array"
        alloc = [1 + j % inst.m for j in range(inst.n_tasks)]
        assert self._entries(list_schedule(inst, alloc)) == self._entries(
            list_schedule_loop(inst, alloc)
        )

    def test_triangular_dag_stays_on_loop_tier(self):
        from repro.core.list_scheduler import dispatch_tier
        from repro.workloads import make_instance

        # One wide middle level, but the mean level is narrow.
        inst = make_instance("lu", 1000, 8, model="power", seed=5)
        widths = np.diff(inst.dag.to_csr().depths().ptr)
        assert widths.max() >= 100
        assert dispatch_tier(inst) == "loop"
