"""Reference (oracle) implementations of SpMM and SpMM-like operations.

Every simulated kernel in :mod:`repro.core` and :mod:`repro.baselines` is
checked against these functions in the test suite.  They are written for
clarity and use vectorized segment reductions, not the GPU execution
model — they have no notion of warps, transactions or timing.
"""

from __future__ import annotations

import numpy as np

from repro.semiring import PLUS_TIMES, Semiring
from repro.sparse import segment
from repro.sparse.csr import CSRMatrix, VALUE_DTYPE

__all__ = [
    "reference_spmm",
    "reference_spmm_like",
    "reference_spmm_like_multi",
    "reference_spmv",
    "flops_of_spmm",
]


def reference_spmm(a: CSRMatrix, b: np.ndarray) -> np.ndarray:
    """Standard SpMM oracle: ``C = A @ B`` via SciPy."""
    b = segment._check_dense(a, b)
    return np.asarray(a.to_scipy() @ b, dtype=VALUE_DTYPE)


def reference_spmv(a: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector oracle: ``y = A @ x``."""
    x = np.asarray(x, dtype=VALUE_DTYPE)
    if x.shape != (a.ncols,):
        raise ValueError(f"vector length {x.shape} incompatible with {a.shape}")
    return np.asarray(a.to_scipy() @ x, dtype=VALUE_DTYPE)


def reference_spmm_like(
    a: CSRMatrix, b: np.ndarray, semiring: Semiring = PLUS_TIMES
) -> np.ndarray:
    """General SpMM-like oracle under an arbitrary semiring.

    Computes ``C[i, :] = reduce_k combine(A[i,k], B[k, :])`` with the
    semiring's identity for empty rows.  Executes through the
    segmented-reduction engine (:mod:`repro.sparse.segment`) for the
    builtin reductions; user-defined reductions, which have no
    matching ufunc, run one ``semiring.reduce`` per non-empty row.
    """
    b = segment._check_dense(a, b)
    if segment.reduce_ufunc(semiring) is not None:
        return segment.segment_spmm_like(a, b, semiring)
    return _rowloop_spmm_like(a, b, semiring)


def reference_spmm_like_multi(
    a: CSRMatrix, bs, semiring: Semiring = PLUS_TIMES
) -> list:
    """Batched :func:`reference_spmm_like`: K same-graph dense operands
    through one shared traversal (``segment_spmm_like_multi``) — the
    feature-width-batching primitive a serving layer coalesces
    concurrent same-graph requests onto.  Falls back to a per-operand
    loop for user-defined reductions; each output is byte-identical to
    the corresponding single-operand call either way.
    """
    if segment.reduce_ufunc(semiring) is not None:
        return segment.segment_spmm_like_multi(a, bs, semiring)
    return [reference_spmm_like(a, b, semiring) for b in bs]


def _rowloop_spmm_like(a: CSRMatrix, b: np.ndarray, semiring: Semiring) -> np.ndarray:
    """SpMM-like for a user-defined reduction: gather and combine once,
    then call ``semiring.reduce`` on each non-empty row's slice."""
    out = np.full((a.nrows, b.shape[1]), semiring.init, dtype=VALUE_DTYPE)
    if a.nnz:
        contributions = semiring.combine(a.values[:, None], b[a.colind64()])
        for i in range(a.nrows):
            lo, hi = int(a.rowptr[i]), int(a.rowptr[i + 1])
            if hi > lo:
                out[i] = semiring.reduce(contributions[lo:hi], axis=0)
    return semiring.finalize(out, a.row_lengths()).astype(VALUE_DTYPE)


def flops_of_spmm(a: CSRMatrix, n: int) -> int:
    """Theoretical floating-point operation count ``2 * nnz * N`` — the
    numerator of the paper's GFLOPS throughput metric (Section V-A3)."""
    return 2 * a.nnz * int(n)

