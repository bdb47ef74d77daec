"""Canonical content fingerprint of a scheduling instance.

The service layer (:mod:`repro.service`) keys its result cache by
*instance content*, not by file name or object identity: two requests
carrying the same machine count, the same processing-time matrix and the
same precedence relation must collide on one cache line no matter how
the instance reached the process (JSON file, generator, pickle, client
payload) or in which order its edges were written down.

The digest therefore hashes the **canonical array image** of the
instance, exactly the representation the solver itself consumes:

* ``m`` and ``n`` (which also fix the layout of everything below);
* the processing-time matrix ``p_j(l)`` row by row, as IEEE-754
  big-endian doubles — bit-exact, no decimal round-tripping;
* the successor CSR of the DAG (``indptr`` + ``indices``), which
  :class:`repro.dag.Dag` builds deduplicated and sorted at construction,
  so the edge *input order* and duplicate arcs never reach the hash.

Deliberately excluded: the instance/task ``name`` labels (display-only)
and the task ``model`` tag (a validation mode — the two recognized
models accept identical discrete profiles and the solvers read only the
profile).  Task *indices* are part of the content: ``tasks[j]`` is the
node ``J_j`` of the precedence DAG, so permuting indices genuinely
changes the instance.

The fingerprint is versioned: bump :data:`FINGERPRINT_VERSION` whenever
the byte layout changes, so stale on-disk cache entries can never be
mistaken for current ones.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .instance import Instance

__all__ = ["FINGERPRINT_VERSION", "instance_content_key"]

#: Version tag mixed into the digest; bump on any byte-layout change.
FINGERPRINT_VERSION = 1


def instance_content_key(instance: "Instance") -> str:
    """Stable hex SHA-256 of the instance's canonical content.

    Equal for any two instances with the same ``m``, the same
    processing-time matrix and the same precedence arcs — regardless of
    edge input order, duplicate arcs, labels, or a pickle round-trip.
    Prefer :meth:`repro.core.Instance.content_key`, which memoizes this.
    """
    from .arrays import instance_arrays

    h = hashlib.sha256()
    h.update(b"repro-instance-fingerprint-v%d" % FINGERPRINT_VERSION)
    h.update(
        np.asarray(
            [instance.m, instance.n_tasks], dtype=">i8"
        ).tobytes()
    )
    # The (n, m) times matrix in row-major order; n and m above fix the
    # framing.  A memoized array image is reused when one exists;
    # otherwise only the matrix is built — the full image also derives
    # every task's LP segments, which a service cache hit never reads.
    arrays = instance_arrays.peek(instance)
    times = (
        arrays.times if arrays is not None
        else np.array([t.times for t in instance.tasks], dtype=float)
    )
    h.update(times.astype(">f8").tobytes())
    csr = instance.dag.to_csr()
    h.update(np.asarray(csr.succ_indptr, dtype=">i8").tobytes())
    h.update(np.asarray(csr.succ_indices, dtype=">i8").tobytes())
    return h.hexdigest()
