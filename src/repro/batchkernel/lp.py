"""Per-block allotment LP assembly and batched rounding.

:func:`assemble_batch_lp` feeds each block's slice of the stacked
profiles and of the packed CSR to the one LP (9) row generator,
:func:`repro.core.lp.lp9_arrays`, so each block's
:class:`~repro.core.lp.AllotmentArrays` are element-for-element
identical to the per-instance assembly (asserted by the property
suite) and solving them through the same backend yields bit-identical
LP solutions.

:func:`batched_round` is the vectorized twin of
:func:`repro.core.rounding.round_fractional_times` +
``MalleableTask.bracket`` — same range check, clamp, first-close
breakpoint scan and critical-point comparison, over flat arrays.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..core.lp import AllotmentArrays, lp9_arrays
from ..core.task import _PLATEAU_RTOL, _RTOL
from .packing import BatchedCsr, StackedProfiles

__all__ = ["assemble_batch_lp", "batched_round", "extract_block_x"]


def assemble_batch_lp(
    sp: StackedProfiles, bcsr: BatchedCsr
) -> List[AllotmentArrays]:
    """Assemble LP (9) for every block of the batch.

    Returns one :class:`AllotmentArrays` per block, equal to
    ``assemble_allotment_arrays(instance)`` — both come from
    :func:`repro.core.lp.lp9_arrays` on the same floats and arcs.
    """
    node_ptr = sp.node_ptr
    seg_ptr = np.zeros(len(sp.nseg) + 1, dtype=np.intp)
    np.cumsum(sp.nseg, out=seg_ptr[1:])
    seg_ptr = seg_ptr[node_ptr]
    edge_ptr = bcsr.edge_ptr
    edge_u = bcsr.union.edge_sources()
    edge_v = bcsr.union.succ_indices
    out: List[AllotmentArrays] = []
    for b in range(sp.n_blocks):
        t, te = node_ptr[b], node_ptr[b + 1]
        s, se = seg_ptr[b], seg_ptr[b + 1]
        e, ee = edge_ptr[b], edge_ptr[b + 1]
        out.append(lp9_arrays(
            int(sp.m_blocks[b]),
            sp.min_time[t:te],
            sp.max_time[t:te],
            sp.work_lo[t:te],
            sp.seg_task[s:se] - t,
            sp.seg_slope[s:se],
            sp.seg_intercept[s:se],
            edge_u[e:ee] - t,
            edge_v[e:ee] - t,
        ))
    return out


def extract_block_x(
    sp: StackedProfiles, solutions: Sequence
) -> np.ndarray:
    """Stack the fractional times ``x_j = values[3j]`` of every block."""
    parts = []
    for b in range(sp.n_blocks):
        n = int(sp.node_ptr[b + 1] - sp.node_ptr[b])
        vals = np.asarray(solutions[b].values, dtype=float)
        parts.append(vals[np.arange(n) * 3])
    return np.concatenate(parts) if parts else np.zeros(0)


def batched_round(
    sp: StackedProfiles, x: np.ndarray, rho: np.ndarray
) -> np.ndarray:
    """Vectorized ``round_fractional_times`` over the whole batch.

    ``x`` and ``rho`` are flat per-task arrays.  Replays the exact
    reference sequence: range check against the raw minimum time,
    clamp to the canonical range, *first*-close breakpoint scan with
    ``_close(x, t, hi)`` tolerance, else the strictly-containing
    breakpoint pair and the critical-point test
    ``x >= rho * p_up + (1 - rho) * p_down``.
    """
    n = len(x)
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    hi = sp.brk_value[sp.brk_ptr[:-1]]       # first break = p(1)
    lo = sp.brk_value[sp.brk_ptr[1:] - 1]    # last canonical break
    bad = (x < sp.min_time * (1 - _PLATEAU_RTOL) - _RTOL * hi) | (
        x > hi * (1 + _RTOL)
    )
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"x={x[j]} outside the profile range [{lo[j]}, {hi[j]}]"
        )
    xc = np.minimum(np.maximum(x, lo), hi)
    # _close(a, b, scale=hi): both operands lie in (0, hi], so the
    # max(|a|, |b|, scale, 1.0) envelope is exactly max(hi, 1.0).
    tol = _RTOL * np.maximum(hi, 1.0)
    nbrk_total = len(sp.brk_value)
    brk_task = np.repeat(
        np.arange(n, dtype=np.intp), np.diff(sp.brk_ptr)
    )
    close = np.abs(
        xc[brk_task] - sp.brk_value
    ) <= tol[brk_task]
    first_close = np.minimum.reduceat(
        np.where(close, np.arange(nbrk_total), nbrk_total),
        sp.brk_ptr[:-1],
    )
    hit = first_close < nbrk_total

    allot = np.empty(n, dtype=np.intp)
    allot[hit] = sp.brk_level[first_close[hit]]

    miss = ~hit
    if miss.any():
        # Count breaks strictly above x: the containing pair is
        # (count-1, count) within the task's break list.  No-close
        # guarantees strict containment (1 <= count <= nbrk-1).
        above = np.add.reduceat(
            (sp.brk_value > xc[brk_task]).astype(np.int64),
            sp.brk_ptr[:-1],
        )
        idx_hi = sp.brk_ptr[:-1] + above - 1
        idx_lo = idx_hi + 1
        if not (
            (above[miss] >= 1).all()
            and (idx_lo[miss] < sp.brk_ptr[1:][miss]).all()
        ):  # pragma: no cover - mirrors bracket's assertion guard
            raise AssertionError("batched bracket failed")
        l_up = sp.brk_level[idx_hi]
        l_down = sp.brk_level[idx_lo]
        p_up = sp.brk_value[idx_hi]
        p_down = sp.brk_value[idx_lo]
        critical = rho * p_up + (1.0 - rho) * p_down
        allot[miss] = np.where(
            xc >= critical, l_up, l_down
        )[miss]
    return allot
