"""Seeded instance generation for the benchmark workloads.

Every instance is described by a :class:`Spec` (family, size, seed,
machine size, speedup model) drawn from the benchmark's ``--seed``;
:func:`build` turns a spec into a fresh :class:`repro.core.Instance`
and reports how long the DAG and the instance took to build.  Fresh
objects matter: the solver memoizes its packed arrays and LP assembly
per instance object, so a re-solved object would not be a cold solve.

The chain/layered/Erdős–Rényi samplers are vectorized (the library's
G(n, p) generator draws all O(n²) pairs in Python, which would swamp
set-up at n = 5000); the small mixed-family fleet uses the library's
own family generators.
"""

from __future__ import annotations

import random
import time
from typing import List, NamedTuple, Tuple

import numpy as np

from repro.core.instance import Instance
from repro.dag import Dag, random_family
from repro.workloads import make_tasks_for_dag

#: Library families the fleet draws from (all small and acyclic).
FLEET_FAMILIES = (
    "layered", "erdos_renyi", "fork_join", "series_parallel",
    "intree", "outtree", "cholesky", "fft",
)
#: Instances per fleet batch: five of each family.
FLEET_BATCH = 40


class Spec(NamedTuple):
    """Everything needed to rebuild one instance deterministically."""

    family: str  #: chain | layered | erdos_renyi | lib:<family>
    n: int
    seed: int
    m: int
    model: str = "power"
    degree: float = 2.0  #: average out-degree (erdos_renyi only)


def layered_edges(n: int, rng: np.random.Generator, width: int = 24):
    """Node i sits in layer i // width; every node past the first layer
    draws 1–3 predecessors from the previous (full) layer."""
    tail = np.arange(min(width, n), n)
    k = rng.integers(1, 4, size=len(tail))
    v = np.repeat(tail, k)
    u = (v // width - 1) * width + rng.integers(0, width, size=len(v))
    return np.unique(np.column_stack([u, v]), axis=0)


def erdos_renyi_edges(n: int, rng: np.random.Generator, degree: float):
    """G(n, p) over forward pairs with p = 2·degree / (n - 1), sampled
    by linear index over the upper triangle."""
    total = n * (n - 1) // 2
    p = min(1.0, degree * n / max(1, total))
    k = int(rng.binomial(total, p))
    pos = np.unique(rng.integers(0, total, size=int(k * 1.02) + 8))[:k]
    i = (
        n - 2 - np.floor(
            np.sqrt(-8.0 * pos + 4.0 * n * (n - 1) - 7) / 2.0 - 0.5
        )
    ).astype(np.intp)
    j = (pos + i + 1 - i * (2 * n - i - 1) // 2).astype(np.intp)
    return np.column_stack([i, j])


def build(spec: Spec) -> Tuple[Instance, float, float]:
    """A fresh instance for ``spec`` plus ``(dag_s, instance_s)``: the
    seconds spent in ``Dag(...)`` (which builds the CSR) and in the task
    profiles plus ``Instance(...)``."""
    rng = np.random.default_rng(spec.seed)
    if spec.family.startswith("lib:"):
        t0 = time.perf_counter()
        dag = random_family(spec.family[4:], spec.n, seed=spec.seed)
    else:
        if spec.family == "chain":
            edges = np.column_stack(
                [np.arange(spec.n - 1), np.arange(1, spec.n)]
            )
        elif spec.family == "layered":
            edges = layered_edges(spec.n, rng)
        elif spec.family == "erdos_renyi":
            edges = erdos_renyi_edges(spec.n, rng, spec.degree)
        else:
            raise ValueError(f"unknown family {spec.family!r}")
        t0 = time.perf_counter()
        dag = Dag(spec.n, edges)
    t1 = time.perf_counter()
    tasks = make_tasks_for_dag(dag, spec.m, model=spec.model,
                               seed=spec.seed + 1)
    inst = Instance(tasks, dag, spec.m,
                    name=f"{spec.family}-n{spec.n}-s{spec.seed}")
    t2 = time.perf_counter()
    return inst, t1 - t0, t2 - t1


def _seeds(rng: random.Random, count: int) -> List[int]:
    return [rng.randrange(1 << 30) for _ in range(count)]


def _size(n: int, scale: float) -> int:
    return max(int(n * scale), 30)


def lp_heavy_specs(seed: int, count: int, scale: float = 1.0):
    """Alternating layered (n = 800) and chain (n = 1200) DAGs, m = 8.
    The sizes give both shapes about the same solve time, so the median
    does not fall between two clusters."""
    rng = random.Random(f"lp_heavy/{seed}")
    return [
        Spec("layered", _size(800, scale), s, 8) if k % 2 == 0
        else Spec("chain", _size(1200, scale), s, 8)
        for k, s in enumerate(_seeds(rng, count))
    ]


def wide_frontier_specs(seed: int, count: int, scale: float = 1.0):
    """Erdős–Rényi DAGs, n = 2000, average out-degree 2, m = 8."""
    rng = random.Random(f"wide_frontier/{seed}")
    return [Spec("erdos_renyi", _size(2000, scale), s, 8, degree=2.0)
            for s in _seeds(rng, count)]


def fleet_specs(seed: int, count: int, scale: float = 1.0):
    """Small instances, n = 100–400, m = 8, mixed speedup model.  Every
    :data:`FLEET_BATCH` consecutive specs hold the same sizes (an even
    grid over 100–400, shuffled) and the families in turn, so batches
    differ in structure but not in size or family mix."""
    rng = random.Random(f"fleet/{seed}")
    grid = [100 + 300 * i // FLEET_BATCH for i in range(FLEET_BATCH)]
    sizes: List[int] = []
    while len(sizes) < count:
        rng.shuffle(grid)
        sizes += grid
    return [
        Spec("lib:" + FLEET_FAMILIES[k % len(FLEET_FAMILIES)],
             max(int(sizes[k] * scale), 8), s, 8, "mixed")
        for k, s in enumerate(_seeds(rng, count))
    ]


def replan_specs(seed: int, count: int, scale: float = 1.0):
    """The evolving instances: Erdős–Rényi, n = 1000, out-degree 8,
    m = 8."""
    rng = random.Random(f"replan/{seed}")
    return [Spec("erdos_renyi", _size(1000, scale), s, 8, degree=8.0)
            for s in _seeds(rng, count)]


def service_specs(seed: int, count: int, scale: float = 1.0):
    """Alternating layered and Erdős–Rényi instances, n = 200, m = 16."""
    rng = random.Random(f"service/{seed}")
    return [Spec(("layered", "erdos_renyi")[k % 2], _size(200, scale), s, 16)
            for k, s in enumerate(_seeds(rng, count))]
