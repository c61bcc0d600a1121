"""Scatter and untiled references for ``repro.sparse.segment`` and
``CSRMatrix.to_dense`` (what each one checks: ``tests/oracles/__init__.py``)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.semiring import Semiring
from repro.sparse.csr import CSRMatrix, VALUE_DTYPE
from repro.sparse.segment import _check_dense, segment_argmax, segment_reduce


def scatter_segment_reduce(
    contributions: np.ndarray,
    rowptr: np.ndarray,
    ufunc: np.ufunc,
    init: float,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The pre-engine ``ufunc.at`` scatter path, the parity oracle for
    ``segment_reduce``."""
    rowptr = np.asarray(rowptr, dtype=np.int64)
    contributions = np.asarray(contributions)
    m = rowptr.shape[0] - 1
    lengths = rowptr[1:] - rowptr[:-1]
    if out is None:
        out = np.full((m,) + contributions.shape[1:], init, dtype=contributions.dtype)
    if m == 0 or contributions.shape[0] == 0:
        return out
    rows = np.repeat(np.arange(m, dtype=np.int64), lengths)
    ufunc.at(out, rows, contributions)
    if ufunc is np.add and init != 0.0:
        # add.at accumulated on top of init for occupied rows; restore the
        # identity only where nothing was accumulated.
        out[lengths == 0] = init
    return out


def scatter_spmm_like(a: CSRMatrix, b: np.ndarray, semiring: Semiring) -> np.ndarray:
    """The pre-engine ``reference_spmm_like`` body (``ufunc.at`` scatter
    with a generic per-row loop for unknown semirings), the parity
    oracle for the segment engine."""
    b = _check_dense(a, b)
    m = a.nrows
    n = b.shape[1]
    out = np.full((m, n), semiring.init, dtype=VALUE_DTYPE)
    if a.nnz == 0:
        return semiring.finalize(out, a.row_lengths()).astype(VALUE_DTYPE)

    contributions = semiring.combine(
        a.values[:, None].astype(VALUE_DTYPE), b[a.colind.astype(np.int64)]
    )
    rows = np.repeat(np.arange(m, dtype=np.int64), a.row_lengths())
    if semiring.reduce is np.add.reduce:
        np.add.at(out, rows, contributions)
        # Rows with no nonzeros keep init; for plus-like semirings that is
        # already the additive identity folded into the accumulate above
        # only for occupied rows, so reset empty rows explicitly.
        empty = a.row_lengths() == 0
        out[empty] = semiring.init
    elif semiring.reduce is np.maximum.reduce:
        np.maximum.at(out, rows, contributions)
    elif semiring.reduce is np.minimum.reduce:
        np.minimum.at(out, rows, contributions)
    else:  # generic fallback for user semirings
        for i in range(m):
            lo, hi = int(a.rowptr[i]), int(a.rowptr[i + 1])
            if hi > lo:
                out[i] = semiring.reduce(contributions[lo:hi], axis=0)
    return semiring.finalize(out, a.row_lengths()).astype(VALUE_DTYPE)


def untiled_spmm_like(
    a: CSRMatrix,
    b: np.ndarray,
    semiring: Semiring,
    ufunc: np.ufunc,
    out: np.ndarray,
) -> np.ndarray:
    """The pre-tiling engine body: one O(nnz·N) contributions temporary,
    one full-width ``reduceat``.  ``out`` must arrive filled with
    ``semiring.init``."""
    if a.nnz:
        contributions = semiring.combine(a.values[:, None], b[a.colind64()])
        segment_reduce(contributions, a.rowptr, ufunc, semiring.init, out=out)
    return semiring.finalize_into(out, a.row_lengths())


def loop_to_dense(a: CSRMatrix) -> np.ndarray:
    """One float32 ``+=`` per stored entry, in CSR order: duplicates
    accumulate exactly as COO semantics (and ``np.add.at``) do."""
    out = np.zeros(a.shape, dtype=VALUE_DTYPE)
    for i in range(a.nrows):
        for k in range(int(a.rowptr[i]), int(a.rowptr[i + 1])):
            out[i, int(a.colind[k])] += a.values[k]
    return out


def untiled_max_with_argmax(a: CSRMatrix, b: np.ndarray):
    """The pre-tiling ``segment_max_with_argmax`` body: one full-width
    max-times pass, then ``segment_argmax`` over the same
    ``(nnz, N)`` contributions."""
    out = np.full((a.nrows, b.shape[1]), -np.inf, dtype=VALUE_DTYPE)
    contributions = a.values[:, None] * b[a.colind64()]
    segment_reduce(contributions, a.rowptr, np.maximum, -np.inf, out=out)
    return out, segment_argmax(a, contributions, row_max=out)
