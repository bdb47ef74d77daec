"""Tests for instance evolution (:mod:`repro.core.evolve`).

The load-bearing invariant: an evolved child is indistinguishable from
an instance built from scratch with the same content — same CSR arrays
bit-for-bit, same content fingerprint — while sharing (or row-patching)
the parent's cached arrays only when that is provably safe.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Instance, MalleableTask
from repro.core.arrays import instance_arrays
from repro.core.evolve import InstanceEvolution, apply_operations, evolve
from repro.core.lp import assemble_allotment_arrays
from repro.dag import CycleError, Dag
from repro.models import power_law_profile
from repro.workloads import make_instance


def _inst(seed=0, size=12, m=4, family="layered"):
    return make_instance(family, size, m, model="power", seed=seed)


def _scaled_times(inst, j, factor=1.5):
    return [factor * t for t in inst.task(j).times]


def _rebuilt(child):
    """The same content, constructed from scratch."""
    dag = Dag(child.n_tasks, child.dag.edges)
    tasks = [child.task(j) for j in range(child.n_tasks)]
    return Instance(tasks, dag, child.m, name=child.name)


def _assert_csr_identical(a, b):
    for field in (
        "succ_indptr",
        "succ_indices",
        "pred_indptr",
        "pred_indices",
    ):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype
        assert np.array_equal(x, y), field


# ---------------------------------------------------------------------------
# builder semantics
# ---------------------------------------------------------------------------


class TestBuilder:
    def test_retime_only_child(self):
        parent = _inst()
        times = _scaled_times(parent, 3)
        child, delta = parent.evolve().retime(3, times).commit()
        assert child.n_tasks == parent.n_tasks
        assert list(child.task(3).times) == times
        assert child.task(2).times == parent.task(2).times
        assert delta.retimed_tasks == (3,)
        assert not delta.is_structural
        assert delta.node_map == tuple(range(parent.n_tasks))
        # Non-structural evolution shares the parent's validated DAG.
        assert child.dag is parent.dag

    def test_parent_untouched(self):
        parent = _inst()
        before = parent.content_key()
        old_times = parent.task(0).times
        ev = parent.evolve()
        ev.retime(0, _scaled_times(parent, 0))
        ev.remove_task(1)
        ev.commit()
        assert parent.task(0).times == old_times
        assert parent.n_tasks == _inst().n_tasks
        assert parent.content_key() == before

    def test_remove_task_compacts_ids(self):
        parent = _inst()
        child, delta = parent.evolve().remove_task(2).commit()
        assert child.n_tasks == parent.n_tasks - 1
        assert delta.node_map[2] == -1
        assert delta.node_map[1] == 1
        assert delta.node_map[3] == 2
        assert delta.removed_tasks == (2,)
        # Survivors keep their profiles under the new ids.
        for old, new in enumerate(delta.node_map):
            if new >= 0:
                assert child.task(new).times == parent.task(old).times

    def test_add_task_returns_final_id(self):
        parent = _inst()
        ev = parent.evolve()
        provisional = ev.add_task(
            _scaled_times(parent, 0), predecessors=[1], name="new"
        )
        assert provisional == parent.n_tasks
        child, delta = ev.commit()
        assert delta.added_tasks == (parent.n_tasks,)
        assert child.n_tasks == parent.n_tasks + 1
        assert child.task(provisional).name == "new"
        assert provisional in child.dag.successors(1)

    def test_add_and_remove_interleaved(self):
        parent = _inst()
        ev = parent.evolve()
        ev.remove_task(0)
        new = ev.add_task(_scaled_times(parent, 1), predecessors=[2])
        child, delta = ev.commit()
        assert child.n_tasks == parent.n_tasks
        assert delta.node_map[0] == -1
        # Task 2's new id is 1; the added task is last.
        assert delta.added_tasks == (child.n_tasks - 1,)
        assert delta.added_tasks[0] in child.dag.successors(1)
        assert new == parent.n_tasks  # provisional id, pre-compaction

    def test_remove_edge(self):
        parent = _inst()
        u, v = parent.dag.edges[0]
        child, delta = parent.evolve().remove_edge(u, v).commit()
        assert not child.dag.has_edge(u, v)
        assert delta.removed_edges == ((u, v),)
        assert delta.is_structural

    def test_mark_completed_shares_content(self):
        parent = _inst()
        child, delta = parent.evolve().mark_completed(0, 3.5).commit()
        assert delta.completed == {0: 3.5}
        # Completion is execution state, not content: same fingerprint.
        assert child.content_key() == parent.content_key()
        assert not delta.is_structural

    def test_chaining(self):
        parent = _inst()
        child, delta = (
            parent.evolve()
            .retime(0, _scaled_times(parent, 0))
            .mark_completed(1, 0.0)
            .commit()
        )
        assert delta.retimed_tasks == (0,)
        assert delta.completed == {1: 0.0}


class TestValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(CycleError):
            _inst().evolve().add_edge(4, 4)

    def test_cycle_rejected_at_commit(self):
        parent = Instance(
            [MalleableTask([4.0, 2.5]) for _ in range(3)],
            Dag(3, [(0, 1), (1, 2)]),
            2,
        )
        ev = parent.evolve().add_edge(2, 0)
        with pytest.raises(CycleError):
            ev.commit()

    def test_indirect_cycle_from_added_edges(self):
        parent = Instance(
            [MalleableTask([4.0, 2.5]) for _ in range(4)],
            Dag(4, [(0, 1)]),
            2,
        )
        ev = parent.evolve().add_edge(1, 2).add_edge(2, 3).add_edge(3, 0)
        with pytest.raises(CycleError):
            ev.commit()

    def test_retime_wrong_width_rejected(self):
        parent = _inst(m=4)
        with pytest.raises(ValueError, match="processors"):
            parent.evolve().retime(0, [5.0, 3.0])

    def test_retime_removed_task_rejected(self):
        ev = _inst().evolve()
        ev.remove_task(3)
        ev.retime(3, _scaled_times(_inst(), 3))
        with pytest.raises(ValueError):
            ev.commit()

    def test_edge_to_removed_task_rejected(self):
        ev = _inst().evolve()
        ev.remove_task(5)
        ev.add_edge(0, 5)
        with pytest.raises(ValueError):
            ev.commit()

    def test_unknown_task_rejected(self):
        parent = _inst()
        with pytest.raises(ValueError):
            parent.evolve().remove_task(parent.n_tasks)
        with pytest.raises(ValueError):
            parent.evolve().mark_completed(-1, 0.0)

    def test_remove_missing_edge_rejected(self):
        parent = _inst()
        sink = parent.dag.sinks()[0]
        src = parent.dag.sources()[0]
        assert not parent.dag.has_edge(sink, src)
        with pytest.raises(ValueError, match="not present"):
            parent.evolve().remove_edge(sink, src)

    def test_bad_frozen_start_rejected(self):
        ev = _inst().evolve()
        with pytest.raises(ValueError):
            ev.mark_completed(0, -1.0)
        with pytest.raises(ValueError):
            ev.mark_completed(0, float("nan"))


class TestJsonOperations:
    def test_apply_operations_round(self):
        parent = _inst()
        # A source->sink arc can never close a cycle; pick endpoints
        # not otherwise touched by the batch.
        src = parent.dag.sources()[0]
        snk = next(
            s
            for s in parent.dag.sinks()
            if s != src and not parent.dag.has_edge(src, s)
        )
        removed = next(
            j
            for j in range(parent.n_tasks)
            if j not in (0, 1, 3, src, snk)
        )
        child, delta = evolve(
            parent,
            [
                {"op": "retime", "task": 0,
                 "times": _scaled_times(parent, 0)},
                {"op": "complete", "task": 1, "start": 2.0},
                {"op": "add_task", "times": _scaled_times(parent, 2),
                 "predecessors": [3], "name": "x"},
                {"op": "remove_task", "task": removed},
                {"op": "add_edge", "source": src, "target": snk},
            ],
        )
        assert delta.retimed_tasks == (0,)
        assert delta.completed == {1: 2.0}
        assert len(delta.added_tasks) == 1
        assert delta.removed_tasks == (removed,)
        assert child.n_tasks == parent.n_tasks

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="op"):
            evolve(_inst(), [{"op": "teleport", "task": 0}])

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            evolve(_inst(), [{"op": "retime", "task": 0}])

    def test_delta_summary_is_json_shaped(self):
        import json

        parent = _inst()
        _child, delta = evolve(
            parent, [{"op": "remove_task", "task": 0}]
        )
        s = json.loads(json.dumps(delta.summary()))
        assert s["parent_fingerprint"] == parent.content_key()
        assert s["structural"] is True
        assert 0 < s["magnitude"] <= 1


# ---------------------------------------------------------------------------
# the memo regression: evolved copies must never inherit cached state
# that their content no longer matches
# ---------------------------------------------------------------------------


class TestCacheInheritance:
    def test_content_key_memo_not_inherited(self):
        parent = _inst()
        parent.content_key()  # memoize on the parent
        child, _ = (
            parent.evolve().retime(0, _scaled_times(parent, 0)).commit()
        )
        assert child.content_key() != parent.content_key()
        assert child.content_key() == _rebuilt(child).content_key()

    def test_retimed_child_never_serves_parent_arrays(self):
        parent = _inst()
        instance_arrays(parent)  # populate the parent's memo
        child, _ = (
            parent.evolve().retime(3, _scaled_times(parent, 3)).commit()
        )
        got = instance_arrays(child)
        fresh = instance_arrays.__wrapped__(child)
        assert np.array_equal(got.times, fresh.times)
        assert not np.array_equal(
            got.times, instance_arrays(parent).times
        )

    def test_seeded_lp_arrays_bit_identical_to_fresh(self):
        # One task of each kind the slim LP (9) layout treats apart: a
        # source (fit row), a sink (span row), an interior task (neither)
        # and a rigid task (no segment rows).  Retimed alone and all
        # together, the patched assembly must equal a fresh one.
        m = 4
        power = [MalleableTask(power_law_profile(p1, 0.6, m))
                 for p1 in (10.0, 14.0, 8.0)]
        rigid = MalleableTask([6.0] * m)
        dag = Dag(5, [(0, 1), (1, 2), (0, 3), (3, 2), (1, 4)])
        parent = Instance(power + [rigid, power[0]], dag, m)
        kinds = {"source": 0, "interior": 1, "sink": 2, "rigid": 3}
        new_times = {
            j: ([9.0] * m if j == 3 else _scaled_times(parent, j))
            for j in kinds.values()
        }
        for retimed in [[j] for j in kinds.values()] + [list(kinds.values())]:
            assemble_allotment_arrays(parent)
            instance_arrays(parent)
            evo = parent.evolve()
            for j in retimed:
                evo.retime(j, new_times[j])
            child, _ = evo.commit()
            seeded = assemble_allotment_arrays.peek(child)
            assert seeded is not None, retimed
            fresh = assemble_allotment_arrays.__wrapped__(child)
            for field in seeded._fields:
                a, b = getattr(seeded, field), getattr(fresh, field)
                if isinstance(a, np.ndarray):
                    assert np.array_equal(a, b), (retimed, field)
                else:
                    assert a == b, (retimed, field)

    def test_pure_completion_shares_parent_arrays(self):
        parent = _inst()
        arr = instance_arrays(parent)
        child, _ = parent.evolve().mark_completed(0, 0.0).commit()
        assert instance_arrays(child) is arr


# ---------------------------------------------------------------------------
# property: evolve-then-rebuild bit-identity
# ---------------------------------------------------------------------------


@st.composite
def mutation_sequences(draw):
    """(seed, ops) — random instance plus a random mutation batch."""
    seed = draw(st.integers(0, 2**16))
    n_ops = draw(st.integers(1, 6))
    return seed, draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["retime", "remove_task", "add_task", "add_edge",
                     "remove_edge", "complete"]
                ),
                st.integers(0, 2**16),
            ),
            min_size=n_ops,
            max_size=n_ops,
        )
    )


def _apply_random_ops(parent, ops):
    """Translate (kind, seed) pairs into valid builder calls."""
    import random as _random

    ev = parent.evolve()
    removed = set()
    n_added = 0
    for kind, s in ops:
        rng = _random.Random(s)
        alive = [j for j in range(parent.n_tasks) if j not in removed]
        if not alive:
            break
        j = rng.choice(alive)
        if kind == "retime":
            ev.retime(j, _scaled_times(parent, j, 1.0 + rng.random()))
        elif kind == "remove_task":
            ev.remove_task(j)
            removed.add(j)
        elif kind == "add_task":
            preds = rng.sample(alive, min(len(alive), rng.randint(0, 2)))
            ev.add_task(_scaled_times(parent, j), predecessors=preds)
            n_added += 1
        elif kind == "add_edge":
            # May close a cycle — commit's CycleError (a ValueError)
            # is treated as a legitimate rejection by the caller.
            u, v = rng.sample(range(parent.n_tasks), 2)
            if u not in removed and v not in removed:
                ev.add_edge(u, v)
        elif kind == "remove_edge":
            surviving = [
                (u, v)
                for (u, v) in parent.dag.edges
                if u not in removed and v not in removed
            ]
            if surviving:
                ev.remove_edge(*rng.choice(surviving))
        elif kind == "complete":
            ev.mark_completed(j, rng.uniform(0.0, 50.0))
    return ev


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutation_sequences())
def test_evolved_csr_bit_identical_to_rebuild(case):
    seed, ops = case
    parent = _inst(seed=seed % 101, size=10 + seed % 7)
    try:
        child, delta = _apply_random_ops(parent, ops).commit()
    except ValueError:
        # Conflicting random ops (retime+remove, duplicate arc...) are
        # a legitimate commit-time rejection, not a property failure.
        return
    rebuilt = _rebuilt(child)
    _assert_csr_identical(child.dag.to_csr(), rebuilt.dag.to_csr())
    assert child.content_key() == rebuilt.content_key()
    assert child.n_tasks == delta.n_child
    # Level decompositions recomputed on the patched CSR agree with the
    # from-scratch ones (same order within ties is not required; the
    # per-node depth is).
    got, ref = child.dag.to_csr().depths(), rebuilt.dag.to_csr().depths()
    assert got.n_levels == ref.n_levels
    n = child.n_tasks
    depth_of = np.empty(n, dtype=np.intp)
    for lev in range(got.n_levels):
        depth_of[got.order[got.ptr[lev]:got.ptr[lev + 1]]] = lev
    ref_depth = np.empty(n, dtype=np.intp)
    for lev in range(ref.n_levels):
        ref_depth[ref.order[ref.ptr[lev]:ref.ptr[lev + 1]]] = lev
    assert np.array_equal(depth_of, ref_depth)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16))
def test_double_evolution_composes(seed):
    import random as _random

    rng = _random.Random(seed)
    parent = _inst(seed=seed % 53)
    c1, d1 = (
        parent.evolve()
        .retime(rng.randrange(parent.n_tasks),
                _scaled_times(parent, 0, 1.2))
        .commit()
    )
    c2, d2 = c1.evolve().remove_task(rng.randrange(c1.n_tasks)).commit()
    assert d2.parent_key == c1.content_key()
    assert c2.content_key() == _rebuilt(c2).content_key()
    _assert_csr_identical(c2.dag.to_csr(), _rebuilt(c2).dag.to_csr())
