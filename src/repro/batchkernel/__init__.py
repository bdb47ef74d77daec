"""Cross-instance batched kernel tier.

Fleets of small DAGs (replanning sweeps, campaign grids, service
batches) spend their time in per-instance NumPy overhead, not in
arithmetic.  This package packs B independent instances into one
block-diagonal problem and runs every stage across all blocks at once:

* :mod:`~repro.batchkernel.packing` — disjoint-union CSR packing
  (:class:`BatchedCsr`), stacked profile arrays
  (:class:`StackedProfiles`) and batched level / bottom-level /
  lower-bound kernels;
* :mod:`~repro.batchkernel.lp` — per-block allotment-LP assembly
  through the shared LP (9) row generator, and vectorized
  critical-point rounding;
* :mod:`~repro.batchkernel.scheduler` — the lockstep phase-2 LIST
  scheduler (:func:`batched_list_schedule`) advancing B frontiers and
  B timelines per step;
* :mod:`~repro.batchkernel.solve` — :func:`solve_batch`, the
  end-to-end batched pipeline with per-instance
  :class:`~repro.pipeline.base.SolveReport` results.

Every batched stage replicates its per-instance reference bit for bit
(same floats, same comparisons, same tie-breaks); the callers assert
schedule identity rather than closeness.
"""

from .lp import assemble_batch_lp, batched_round, extract_block_x
from .packing import (
    BatchedCsr,
    StackedProfiles,
    batched_bottom_levels,
    batched_longest_path_lengths,
    batched_trivial_lower_bounds,
    pack_csrs,
    stack_profiles,
)
from .scheduler import BatchTimeline, batched_list_schedule
from .solve import (
    AUTO_MAX_TASKS,
    BatchKernelError,
    ELIGIBLE_ALGORITHMS,
    ELIGIBLE_PRIORITY,
    eligible_strategy,
    solve_batch,
)

__all__ = [
    "AUTO_MAX_TASKS",
    "BatchKernelError",
    "BatchedCsr",
    "BatchTimeline",
    "ELIGIBLE_ALGORITHMS",
    "ELIGIBLE_PRIORITY",
    "StackedProfiles",
    "assemble_batch_lp",
    "batched_bottom_levels",
    "batched_list_schedule",
    "batched_longest_path_lengths",
    "batched_round",
    "batched_trivial_lower_bounds",
    "eligible_strategy",
    "extract_block_x",
    "pack_csrs",
    "solve_batch",
    "stack_profiles",
]
