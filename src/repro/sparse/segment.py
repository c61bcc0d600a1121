"""Segmented-reduction host execution engine.

Yang et al.'s *Design Principles for Sparse Matrix Multiplication on the
GPU* frames row-split SpMM as gather + segmented reduce; this module
brings the same structure to the host executor: contributions are
gathered once and reduced per CSR row with a single
``ufunc.reduceat`` call instead of the order-of-magnitude slower
``ufunc.at`` scatter loop.  Every numeric hot path —
``reference_spmm_like``, ``CSRMatrix.row_normalized`` /
``sym_normalized``, and ``gnn.aggregate`` — runs through here.  The
scatter implementations this engine replaced live on as parity oracles
in the test tree (``tests/oracles/``) and are enforced by
``tests/test_segment_engine.py`` and ``tests/test_tiled_engine.py``.

The parity contract (see ``docs/PERFORMANCE.md``):

* ``max`` / ``min`` reductions are **bit-identical** to the scatter
  oracles on any input — the reduction is order-independent, so
  ``np.maximum.reduceat`` and ``np.maximum.at`` agree float for float.
* ``plus`` / ``mean`` reductions are bit-identical whenever the
  accumulation is exact (integer-valued float32 operands, which the
  parity suite locks in), and agree to tight ``allclose`` tolerances on
  arbitrary floats.  ``np.add.reduceat`` does *not* reduce strictly
  left-to-right (NumPy pairs segment tails), so a rounding-level
  reassociation relative to the sequential scatter is unavoidable; all
  existing kernel/oracle comparisons use ``allclose`` and are
  insensitive to it.

Empty rows never reach ``reduceat`` (whose semantics for empty segments
are not a reduction): the output is pre-filled with the semiring
identity and only non-empty rows are overwritten, so identities are
exact by construction.

Column tiling (the host analogue of GE-SpMM's coarse-grained warp
merging, which reuses each loaded sparse row across feature tiles):
every SpMM-like call splits the dense operand into column tiles of
width ``T`` and gathers + combines + reduces each tile inside a
preallocated ``(nnz, T)`` workspace drawn from a per-process pool, so
peak transient memory is O(nnz·T) instead of O(nnz·N) and the working
set stays cache-resident on wide operands.  ``T`` comes from a fixed
LLC-size heuristic (:func:`tile_width_for`).  Tiling columns never
reorders a row's reduction, so the result is **bit-identical** to one
full-width ``reduceat`` for every reduction (the parity suite asserts
exact equality against the untiled oracle across tile widths).
``segment_spmm_like_multi`` runs K same-graph operands through one
traversal sharing the pooled workspace and cached gather indices — the
feature-width-batching primitive the serving layer coalesces concurrent
requests onto.
"""

from __future__ import annotations

import threading
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.semiring import MAX_TIMES, Semiring
from repro.sparse.csr import CSRMatrix, VALUE_DTYPE

__all__ = [
    "segment_reduce",
    "segment_spmm_like",
    "segment_spmm_like_multi",
    "segment_max_with_argmax",
    "segment_argmax",
    "reduce_ufunc",
    "tile_width_for",
    "clear_workspace_pool",
    "workspace_stats",
]

#: Assumed last-level-cache size for the tile-width heuristic.  The
#: workspace budget is a quarter of it: the gather workspace shares the
#: LLC with the dense-operand tile, the reduction output, and whatever
#: else the process keeps warm.  Deliberately a fixed constant (not
#: probed) so tile choices — and therefore the bit-exact telemetry —
#: are reproducible across hosts.
_LLC_BYTES = 32 * 1024 * 1024
_WORKSPACE_BUDGET = _LLC_BYTES // 4


def tile_width_for(nnz: int, n: int) -> int:
    """Tile width for an ``(nnz, n)`` contributions matrix.

    The largest multiple of 8 (keeping the argmax uint64 row-prefilter
    applicable) whose ``(nnz, T)`` float32 workspace fits the LLC
    budget, floored at 8 and capped at ``n``.
    """
    if nnz <= 0 or n <= 0:
        return max(n, 1)
    t = _WORKSPACE_BUDGET // (4 * nnz)
    if t >= n:
        return n
    return min(n, max(8, (t // 8) * 8))


class _WorkspacePool:
    """Per-process pool of flat float32 scratch buffers.

    The tiled executor draws its ``(nnz, T)`` gather workspace and
    ``(K, T)`` operand-tile buffer from here, so steady-state SpMM calls
    allocate nothing: ``segment.workspace.reuses`` counts pool hits,
    ``.allocs`` fresh buffers, and the ``segment.workspace.bytes_peak``
    gauge tracks the high-water mark of pool-owned bytes.  Thread-safe
    (sweep workers share the process pool); the free list is capped so
    a one-off giant operand cannot pin memory forever.
    """

    _MAX_FREE = 4

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: List[np.ndarray] = []
        self._owned_bytes = 0
        self._peak_bytes = 0

    def acquire(self, n_elems: int) -> np.ndarray:
        n_elems = int(n_elems)
        reg = obs.get_registry()
        with self._lock:
            best = -1
            for i, buf in enumerate(self._free):
                if buf.size >= n_elems and (best < 0 or buf.size < self._free[best].size):
                    best = i
            if best >= 0:
                buf = self._free.pop(best)
                reg.counter("segment.workspace.reuses").inc()
                return buf
        buf = np.empty(n_elems, dtype=VALUE_DTYPE)
        with self._lock:
            self._owned_bytes += buf.nbytes
            self._peak_bytes = max(self._peak_bytes, self._owned_bytes)
            peak = self._peak_bytes
        reg.counter("segment.workspace.allocs").inc()
        reg.gauge("segment.workspace.bytes_peak").set(peak)
        return buf

    def release(self, buf: np.ndarray) -> None:
        with self._lock:
            if len(self._free) < self._MAX_FREE:
                self._free.append(buf)
                return
            # Full: keep the larger buffers, drop the smallest.
            smallest = min(range(len(self._free)), key=lambda i: self._free[i].size)
            if self._free[smallest].size < buf.size:
                self._owned_bytes -= self._free[smallest].nbytes
                self._free[smallest] = buf
            else:
                self._owned_bytes -= buf.nbytes

    def clear(self) -> int:
        with self._lock:
            dropped = len(self._free)
            for buf in self._free:
                self._owned_bytes -= buf.nbytes
            self._free.clear()
        return dropped

    def stats(self) -> dict:
        with self._lock:
            return {
                "free_buffers": len(self._free),
                "owned_bytes": self._owned_bytes,
                "peak_bytes": self._peak_bytes,
            }


_POOL = _WorkspacePool()


def clear_workspace_pool() -> int:
    """Drop the pool's free buffers (memory-bench isolation, shard
    boundaries); returns the number dropped."""
    return _POOL.clear()


def workspace_stats() -> dict:
    """Current pool occupancy: free buffer count, owned and peak bytes."""
    return _POOL.stats()


#: semiring ``reduce`` callable -> the ufunc whose ``reduceat``
#: implements it.  Semirings outside this map (user-defined reductions)
#: run ``reference_spmm_like``'s per-row loop instead.
_REDUCE_UFUNCS = {
    np.add.reduce: np.add,
    np.maximum.reduce: np.maximum,
    np.minimum.reduce: np.minimum,
}


def reduce_ufunc(semiring: Semiring) -> Optional[np.ufunc]:
    """The ufunc implementing ``semiring.reduce``, or None if unknown."""
    return _REDUCE_UFUNCS.get(semiring.reduce)


def segment_reduce(
    contributions: np.ndarray,
    rowptr: np.ndarray,
    ufunc: np.ufunc,
    init: float,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Reduce ``contributions`` per CSR row with one ``ufunc.reduceat``.

    ``contributions`` is ``(nnz, ...)`` in row-major CSR order; row ``i``
    owns the slice ``rowptr[i]:rowptr[i+1]``.  Rows with no elements
    yield ``init`` exactly: only the non-empty rows' segment starts are
    passed to ``reduceat`` (consecutive non-empty starts then delimit
    exactly one row each), and the pre-filled output is left untouched
    elsewhere.
    """
    rowptr = np.asarray(rowptr, dtype=np.int64)
    contributions = np.asarray(contributions)
    m = rowptr.shape[0] - 1
    if out is None:
        out = np.full((m,) + contributions.shape[1:], init, dtype=contributions.dtype)
    obs.get_registry().counter("segment.reduce_calls", op=ufunc.__name__).inc()
    if m == 0 or contributions.shape[0] == 0:
        return out
    starts = rowptr[:-1]
    nonempty = rowptr[1:] > starts
    if nonempty.any():
        out[nonempty] = ufunc.reduceat(contributions, starts[nonempty], axis=0)
    return out


def _check_dense(a: CSRMatrix, b: np.ndarray) -> np.ndarray:
    b = np.ascontiguousarray(b, dtype=VALUE_DTYPE)
    if b.ndim != 2 or b.shape[0] != a.ncols:
        raise ValueError(f"dense operand shape {b.shape} incompatible with {a.shape}")
    return b


def _require_ufunc(semiring: Semiring) -> np.ufunc:
    ufunc = reduce_ufunc(semiring)
    if ufunc is None:
        raise NotImplementedError(
            f"semiring {semiring.name!r} has no reduceat-capable reduction; "
            "use reference_spmm_like"
        )
    return ufunc


def _prepare_out(
    a: CSRMatrix, n: int, init: float, out: Optional[np.ndarray]
) -> np.ndarray:
    if out is None:
        return np.full((a.nrows, n), init, dtype=VALUE_DTYPE)
    if out.shape != (a.nrows, n) or out.dtype != VALUE_DTYPE:
        raise ValueError(
            f"out buffer must be float32[{a.nrows}, {n}], "
            f"got {out.dtype}[{out.shape}]"
        )
    out.fill(init)
    return out


def _nonempty_starts(a: CSRMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """(nonempty-row mask, their segment starts) — the shared traversal
    state every tile of every operand reuses."""
    rowptr = a.rowptr64()
    starts = rowptr[:-1]
    nonempty = rowptr[1:] > starts
    return nonempty, starts[nonempty]


def _gathered_tiles(
    a: CSRMatrix, bs: Sequence[np.ndarray], semiring: Semiring, ufunc: np.ufunc
) -> Iterator[Tuple[int, slice, np.ndarray]]:
    """The one tile loop: yield ``(k, cols, contributions)`` for every
    column tile ``cols`` of every operand ``bs[k]``.

    The pooled ``(nnz, T)`` workspace (and, when an operand is wider
    than one tile, the ``(K, T)`` operand-tile buffer) is acquired once
    for all operands and released when the loop ends.  Each yielded
    ``contributions`` is a view of the workspace holding
    ``combine(A.values, B[colind, cols])`` in CSR order; it is
    overwritten by the next tile, so callers reduce it before resuming.
    Nothing is yielded when the matrix has no nonzeros or every operand
    is zero-width.
    """
    n_max = max((b.shape[1] for b in bs), default=0)
    if not (a.nnz and n_max):
        return
    tile_max = tile_width_for(a.nnz, n_max)
    idx = a.colind64()
    vals = a.values[:, None]
    reg = obs.get_registry()
    ws = _POOL.acquire(a.nnz * tile_max)
    bt = _POOL.acquire(a.ncols * tile_max) if tile_max < n_max else None
    try:
        for k, b in enumerate(bs):
            n = b.shape[1]
            if not n:
                continue
            reg.counter("segment.reduce_calls", op=ufunc.__name__).inc()
            tile = min(tile_max, n)
            for lo in range(0, n, tile):
                w = min(tile, n - lo)
                if tile < n:
                    src = bt[: a.ncols * w].reshape(a.ncols, w)
                    np.copyto(src, b[:, lo : lo + w])
                else:
                    src = b  # one tile spans the full width: gather in place
                wsv = ws[: a.nnz * w].reshape(a.nnz, w)
                # mode="clip" keeps np.take unbuffered (indices are
                # validated at construction, so clipping never fires).
                np.take(src, idx, axis=0, out=wsv, mode="clip")
                semiring.combine_into(vals, wsv, wsv)
                yield k, slice(lo, lo + w), wsv
                reg.counter("segment.tiles", op=ufunc.__name__).inc()
    finally:
        if bt is not None:
            _POOL.release(bt)
        _POOL.release(ws)


def _spmm_like_into(
    a: CSRMatrix,
    bs: Sequence[np.ndarray],
    semiring: Semiring,
    ufunc: np.ufunc,
    outs: List[np.ndarray],
) -> List[np.ndarray]:
    """Reduce every tile of every operand into its pre-filled output,
    then apply the semiring's finalize."""
    nonempty, ne_starts = _nonempty_starts(a)
    for k, cols, contributions in _gathered_tiles(a, bs, semiring, ufunc):
        outs[k][nonempty, cols] = ufunc.reduceat(contributions, ne_starts, axis=0)
    for out in outs:
        semiring.finalize_into(out, a.row_lengths())
    return outs


def segment_spmm_like(
    a: CSRMatrix,
    b: np.ndarray,
    semiring: Semiring,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """SpMM-like execution as gather + segmented reduce.

    Runs the column-tiled, workspace-pooled executor: peak transient
    memory O(nnz·T), bit-identical to one full-width reduction.
    ``out`` (a float32 ``(M, N)`` buffer) lets callers reuse output
    storage across calls — the serving layer's steady state.

    Requires a semiring whose ``reduce`` maps to a ufunc
    (:func:`reduce_ufunc`); ``reference_spmm_like`` also serves
    user-defined reductions.
    """
    ufunc = _require_ufunc(semiring)
    b = _check_dense(a, b)
    out = _prepare_out(a, b.shape[1], semiring.init, out)
    return _spmm_like_into(a, [b], semiring, ufunc, [out])[0]


def segment_spmm_like_multi(
    a: CSRMatrix,
    bs: Sequence[np.ndarray],
    semiring: Semiring,
    outs: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> List[np.ndarray]:
    """K same-graph SpMM-like executions through one shared traversal.

    The feature-width-batching primitive for multi-tenant serving: all
    operands share the cached gather indices, the nonempty-row segment
    starts, and **one** pooled workspace acquisition (the tile loop
    reuses the same buffers operand after operand), so coalescing K
    requests costs one gather's worth of ``segment.workspace.allocs``
    instead of K.  Operand widths may differ.  Each output is
    byte-identical to the corresponding ``segment_spmm_like`` call.
    """
    ufunc = _require_ufunc(semiring)
    bs = [_check_dense(a, b) for b in bs]
    if outs is None:
        outs = [None] * len(bs)
    if len(outs) != len(bs):
        raise ValueError(f"{len(bs)} operands but {len(outs)} output buffers")
    results = [
        _prepare_out(a, b.shape[1], semiring.init, o) for b, o in zip(bs, outs)
    ]
    if not bs:
        return results
    obs.get_registry().counter("segment.multi_calls", operands=len(bs)).inc()
    return _spmm_like_into(a, bs, semiring, ufunc, results)


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


def segment_max_with_argmax(
    a: CSRMatrix, b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Max-times forward and its argmax in one tiled traversal.

    The ``aggregate_max`` hot path: per column tile, gather + scale the
    contributions inside the pooled workspace, ``maximum.reduceat`` them
    into the output slice, and resolve that tile's first-maximizer
    indices while the workspace is still hot — so the full ``(nnz, N)``
    contributions array is never materialized.  Returns
    ``(out, argmax)`` where ``out`` is the raw max-times output (empty
    rows hold ``-inf``) and ``argmax`` the int32 winner positions of
    :func:`segment_argmax`.  Bit-identical to the untiled two-pass
    computation: tiles never split a row's reduction, and the argmax is
    resolved per column independently.
    """
    b = _check_dense(a, b)
    m, n = a.nrows, b.shape[1]
    out = np.full((m, n), -np.inf, dtype=VALUE_DTYPE)
    argmax = np.full((m, n), -1, dtype=np.int32)
    nonempty, ne_starts = _nonempty_starts(a)
    for _, cols, contributions in _gathered_tiles(a, [b], MAX_TIMES, np.maximum):
        out_tile = out[:, cols]
        out_tile[nonempty] = np.maximum.reduceat(contributions, ne_starts, axis=0)
        argmax[:, cols] = segment_argmax(a, contributions, row_max=out_tile)
    return out, argmax
