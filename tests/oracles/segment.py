"""Scatter, untiled and sequential references for
``repro.sparse.segment`` and ``CSRMatrix.to_dense`` (what each one
checks: ``tests/oracles/__init__.py``)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import obs
from repro.semiring import Semiring
from repro.sparse.csr import CSRMatrix, VALUE_DTYPE
from repro.sparse.segment import _check_dense, segment_reduce


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


def sequential_spmm_like(a: CSRMatrix, b: np.ndarray, semiring: Semiring) -> np.ndarray:
    """One float32 ``reduce_pair`` per nonzero: each row starts from its
    first contribution and accumulates the rest in CSR order, then the
    semiring's finalize runs.  The bit reference for plus/mean, whose
    fold adds every row strictly left to right."""
    b = _check_dense(a, b)
    out = np.full((a.nrows, b.shape[1]), semiring.init, dtype=VALUE_DTYPE)
    contributions = semiring.combine(a.values[:, None], b[a.colind64()])
    for i in range(a.nrows):
        lo, hi = int(a.rowptr[i]), int(a.rowptr[i + 1])
        if hi > lo:
            acc = contributions[lo]
            for k in range(lo + 1, hi):
                acc = semiring.reduce_pair(acc, contributions[k])
            out[i] = acc
    return semiring.finalize(out, a.row_lengths()).astype(VALUE_DTYPE)


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


def segment_argmax(
    a: CSRMatrix,
    contributions: np.ndarray,
    row_max: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Index of the first maximizing nonzero per output cell.

    Returns ``int32[M, N]`` of absolute positions into
    ``a.values``/``a.colind``; empty rows hold ``-1``.  Ties resolve to
    the lowest nonzero index (PyTorch ``scatter_max`` semantics).  Cells
    whose maximum is NaN also hold ``-1`` (NaN compares unequal to
    itself, so nothing ever matches) — the same no-gradient outcome the
    scatter oracle's ``contributions == out`` mask produces.  Consumers
    mask with ``argmax >= 0``.

    Implementation: one equality pass against the broadcast row maxima,
    then the *sparse* hit set (≈ one hit per output cell) is collapsed
    to first-per-cell with ``np.unique`` — an order of magnitude cheaper
    than a second dense ``(nnz, N)`` reduction, since ``np.nonzero``
    returns hits in ascending nonzero order and ``unique``'s first
    occurrence is therefore the lowest index.

    This is what lets ``aggregate_max`` keep an ``(M, N)`` int32 in its
    backward closure instead of the full ``(nnz, N)`` contributions.
    """
    m = a.nrows
    n = contributions.shape[1] if contributions.ndim == 2 else 1
    contributions = contributions.reshape(a.nnz, n)
    if row_max is None:
        row_max = segment_reduce(contributions, a.rowptr, np.maximum, -np.inf)
    argmax = np.full((m, n), -1, dtype=np.int32)
    if a.nnz == 0 or m == 0:
        return argmax
    rows = a.coo_rows()
    hits = contributions == row_max.reshape(m, n)[rows]
    hit_pos, hit_col = _sparse_nonzero(hits)
    cell = rows[hit_pos] * np.int64(n) + hit_col
    first_cell, first_idx = np.unique(cell, return_index=True)
    argmax.ravel()[first_cell] = hit_pos[first_idx].astype(np.int32)
    return argmax


def _sparse_nonzero(hits: np.ndarray):
    """``np.nonzero`` for a boolean matrix with ~one True per *row
    segment* (the argmax hit mask): prefilter rows by viewing each
    8-byte run of bools as one uint64, so the full-width scan only
    touches the ≈``M/nnz`` fraction of rows that contain a hit.
    Widths that are not a multiple of 8 (or non-contiguous masks) are
    zero-padded into an 8-aligned copy first — an O(rows·n) byte copy,
    still far cheaper than the full ``np.nonzero`` scan — so common
    widths like 100 keep the prefilter.  Only degenerate inputs fall
    back to plain ``np.nonzero``, counted as
    ``segment.sparse_nonzero.fallbacks``.  Row-major result order
    (ascending row index) is preserved — the first-occurrence semantics
    of the caller's ``np.unique`` depend on it."""
    if hits.ndim != 2 or hits.dtype != np.bool_ or 0 in hits.shape:
        obs.get_registry().counter("segment.sparse_nonzero.fallbacks").inc()
        return np.nonzero(hits)
    n = hits.shape[1]
    if not hits.flags.c_contiguous or n % 8 != 0:
        obs.get_registry().counter("segment.sparse_nonzero.pads").inc()
        aligned = np.zeros((hits.shape[0], -(-n // 8) * 8), dtype=np.bool_)
        aligned[:, :n] = hits
    else:
        aligned = hits
    words = aligned.view(np.uint64)
    if words.shape[1] == 1:
        row_any = words.ravel() != 0
    else:
        row_any = np.bitwise_or.reduce(words, axis=1) != 0
    cand = np.flatnonzero(row_any)
    # Scan the original-width mask so padded columns can never leak.
    sub_pos, sub_col = np.nonzero(hits[cand])
    return cand[sub_pos], sub_col
