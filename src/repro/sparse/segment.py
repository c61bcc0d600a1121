"""Segmented-reduction host execution engine.

Every numeric hot path — ``reference_spmm_like``,
``CSRMatrix.row_normalized`` / ``sym_normalized``, and
``gnn.aggregate`` — runs through here.  The implementations this engine
replaced live on as parity oracles in the test tree
(``tests/oracles/``) and are enforced by ``tests/test_segment_engine.py``,
``tests/test_tiled_engine.py`` and ``tests/test_max_fold.py``.

Every built-in reduction (plus, mean, max, min) runs one row-stepped
fold over the degree-sorted (jagged-diagonal) row order
(:class:`JaggedOrder`): step ``j`` gathers whole rows of the dense
operand for the ``j``-th nonzero of every row longer than ``j`` — a
contiguous slab, since those rows are a prefix of the order — and folds
it into an ``(rows, T)`` accumulator; max/min track the first winner
inline with a strict ``>``.  This is GE-SpMM's Coalesced Row Caching on
the host: each nonzero's ``(colind, value)`` is read once and shared
across all output columns, and every access to the dense operand is a
whole contiguous row.  Hub rows still unfinished when fewer rows remain
than steps are reduced one block each.

The parity contract (see ``docs/PERFORMANCE.md``):

* ``max`` / ``min`` reductions equal the scatter oracles under
  ``array_equal`` on any input, NaN included: the reduction is
  order-independent except for the sign of a tie between ``+0`` and
  ``-0``, which no two implementations agree on (``reduceat`` and
  ``ufunc.at`` already differ).  The argmax is the first maximizer,
  exactly.
* ``plus`` / ``mean`` reductions add each row strictly left to right in
  CSR order, in float32, starting from the row's first contribution
  (hub tails merge as ``(acc + b0) + b1 + ...``), so they equal a
  per-nonzero sequential loop under ``array_equal`` on arbitrary floats.
  The sign of a row whose every contribution is ``-0`` is not pinned.

Empty rows are never reduced: the output is pre-filled with the
semiring identity and only non-empty rows are overwritten, so
identities are exact by construction.

Column tiling (the host analogue of GE-SpMM's coarse-grained warp
merging, which reuses each loaded sparse row across feature tiles): the
fold splits the dense operand into column tiles only when its state
outgrows the workspace budget (:func:`fold_tile_width`) and works inside
preallocated buffers drawn from a per-process pool, so peak transient
memory is O(rows·T) instead of O(nnz·N).  Tiling columns never reorders
a row's reduction, so the result is **bit-identical** at every tile
width.  ``segment_spmm_like_multi`` runs K same-graph operands through
one traversal sharing the pooled buffers and the cached jagged order —
the feature-width-batching primitive the serving layer coalesces
concurrent requests onto.
"""

from __future__ import annotations

import threading
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.semiring import MAX_TIMES, Semiring
from repro.sparse.csr import CSRMatrix, VALUE_DTYPE

__all__ = [
    "segment_reduce",
    "segment_spmm_like",
    "segment_spmm_like_multi",
    "segment_max_with_argmax",
    "reduce_ufunc",
    "clear_workspace_pool",
    "workspace_stats",
]

#: Assumed last-level-cache size for the tile-width heuristic.  The
#: workspace budget is a quarter of it: the fold state shares the LLC
#: with the dense-operand tile, the reduction output, and whatever else
#: the process keeps warm.  Deliberately a fixed constant (not
#: probed) so tile choices — and therefore the bit-exact telemetry —
#: are reproducible across hosts.
_LLC_BYTES = 32 * 1024 * 1024
_WORKSPACE_BUDGET = _LLC_BYTES // 4


class _WorkspacePool:
    """Per-process pool of flat float32 scratch buffers.

    The fold draws its state and the ``(K, T)`` operand-tile buffer from
    here, so steady-state SpMM calls allocate nothing:
    ``segment.workspace.reuses`` counts pool hits, ``.allocs`` fresh
    buffers, and the ``segment.workspace.bytes_peak`` gauge tracks the
    high-water mark of pool-owned bytes.  Thread-safe
    (sweep workers share the process pool); the free list is capped so
    a one-off giant operand cannot pin memory forever.

    Requests are rounded up to a size class with five significant bits,
    so a buffer exceeds its request by less than 1/16: the fold's state
    size drifts with every edit of a changing graph, and without classes
    each slightly larger request would allocate afresh and fill the free
    list with near-duplicates.
    """

    _MAX_FREE = 4
    _CLASS_BITS = 5

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: List[np.ndarray] = []
        self._owned_bytes = 0
        self._peak_bytes = 0

    def acquire(self, n_elems: int) -> np.ndarray:
        n_elems = int(n_elems)
        step = 1 << max(0, n_elems.bit_length() - self._CLASS_BITS)
        n_elems = -(-n_elems // step) * step
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


#: semiring ``reduce`` callable -> the ufunc the fold reduces with.
#: Semirings outside this map (user-defined reductions) run
#: ``reference_spmm_like``'s per-row loop instead.
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
            f"semiring {semiring.name!r} has no built-in ufunc reduction; "
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


def _spmm_like_into(
    a: CSRMatrix,
    bs: Sequence[np.ndarray],
    semiring: Semiring,
    ufunc: np.ufunc,
    outs: List[np.ndarray],
) -> List[np.ndarray]:
    """Fold every operand into its pre-filled output, then apply the
    semiring's finalize."""
    _fold(a, bs, semiring, ufunc, outs)
    for out in outs:
        semiring.finalize_into(out, a.row_lengths())
    return outs


# ----------------------------------------------------------------------
# The row-stepped fold over the jagged-diagonal order
# ----------------------------------------------------------------------


class JaggedOrder(NamedTuple):
    """Degree-sorted (jagged-diagonal) traversal order of a CSR matrix.

    ``perm`` lists the non-empty rows by descending length (stable, so
    equal-length rows keep CSR order).  ``cnt[j]`` is the number of rows
    longer than ``j``: they are the prefix ``perm[:cnt[j]]``, so step
    ``j`` of the fold works on a contiguous slab.  For ``j < switch``,
    ``col[ptr[j]:ptr[j+1]]`` / ``val[...]`` hold the column index (int64,
    ready for ``np.take``) and value of the ``j``-th nonzero of each of
    those rows.  From step ``switch`` on, the ``cnt[switch]`` rows still
    unfinished are reduced one row at a time instead.  ``switch =
    argmin_j(j + cnt[j])`` minimizes the number of slab steps plus
    per-row tails, so a hub row of a skewed graph costs one block
    reduction rather than one step per element.
    """

    perm: np.ndarray
    cnt: np.ndarray
    ptr: np.ndarray
    col: np.ndarray
    val: np.ndarray
    switch: int


def _build_jagged_order(a: CSRMatrix) -> JaggedOrder:
    lengths = a.row_lengths()
    rows = int(np.count_nonzero(lengths))
    perm = np.argsort(-lengths, kind="stable")[:rows]
    # rows longer than j = all rows - rows of length <= j
    cnt = a.nrows - np.cumsum(np.bincount(lengths, minlength=1))[:-1]
    switch = int(np.argmin(np.arange(cnt.size + 1) + np.append(cnt, 0)))
    ptr = np.zeros(switch + 1, dtype=np.int64)
    np.cumsum(cnt[:switch], out=ptr[1:])
    starts = a.rowptr64()[perm]
    pos = np.empty(int(ptr[-1]), dtype=np.int64)
    for j, (lo, hi) in enumerate(zip(ptr[:-1].tolist(), ptr[1:].tolist())):
        np.add(starts[: hi - lo], j, out=pos[lo:hi])
    order = JaggedOrder(perm, cnt, ptr, a.colind64()[pos], a.values[pos], switch)
    for arr in order[:-1]:
        arr.setflags(write=False)
    return order


def jagged_order(a: CSRMatrix) -> JaggedOrder:
    """The cached :class:`JaggedOrder` of ``a`` (a read-only derived
    artifact: :meth:`CSRMatrix.clear_derived` drops it)."""
    return a._cached("jagged_order", lambda: _build_jagged_order(a))


#: Bytes per (row, column) cell of the fold's state: the float32
#: accumulator, the int32 argmax, the float32 step slab and the bool
#: update mask.
_FOLD_CELL_BYTES = 13
#: Narrowest column tile of the fold: every tile pays the per-step
#: Python overhead again, which narrow tiles cannot amortize.
_FOLD_MIN_TILE = 64


def fold_tile_width(rows: int, n: int) -> int:
    """Column tile width for a fold over ``rows`` non-empty rows: the
    full width while the fold state fits the workspace budget, else the
    widest tile that does, floored at 64 and capped at ``n``."""
    if _FOLD_CELL_BYTES * rows * n <= _WORKSPACE_BUDGET:
        return max(n, 1)
    return min(n, max(_FOLD_MIN_TILE, _WORKSPACE_BUDGET // (_FOLD_CELL_BYTES * rows)))


def _fold(
    a: CSRMatrix,
    bs: Sequence[np.ndarray],
    semiring: Semiring,
    ufunc: np.ufunc,
    outs: List[np.ndarray],
    argmaxes: Optional[List[np.ndarray]] = None,
) -> None:
    """Reduce every operand into its pre-filled output with ``ufunc``
    (add, maximum or minimum) and, with ``argmaxes`` (max/min only),
    record each cell's first winning nonzero.

    Per column tile, step ``j`` of :class:`JaggedOrder` gathers whole
    rows of B for the ``j``-th nonzero of every row longer than ``j``
    into a contiguous ``(cnt[j], T)`` slab, scales it, and folds it into
    the accumulator, so every row reduces left to right; a strict ``>``
    (``<`` for min) keeps the first winner, PyTorch ``scatter_max``
    semantics.  Rows still unfinished at the switch step are reduced one
    ``(len, T)`` block each (split into chunks that fit the workspace
    budget) and merged into the accumulator: sums run
    ``add.accumulate`` over the block after adding the accumulator into
    its first row, which keeps the order ``(acc + b0) + b1 + ...``.
    Rows are scattered back through ``perm`` at the end; NaN cells get
    argmax ``-1``.  One pooled buffer holds the fold state for all
    operands, and a second the operand tile when B is wider than one
    tile.
    """
    jo = jagged_order(a)
    rows = jo.perm.size
    n_max = max((b.shape[1] for b in bs), default=0)
    if not (rows and n_max):
        return
    switch = jo.switch
    tail_rows = int(jo.cnt[switch]) if switch < jo.cnt.size else 0
    want_arg = argmaxes is not None
    tile_max = fold_tile_width(rows, n_max)
    # Tails are reduced in chunks whose (len, T) block fits the budget.
    chunk = max(1, _WORKSPACE_BUDGET // (4 * tile_max))
    rowptr, colind, vals = a.rowptr64(), a.colind64(), a.values[:, None]
    row_lo = rowptr[jo.perm]
    row_hi = rowptr[jo.perm[:tail_rows] + 1]
    # One (row, lo, hi, in-row rank of lo) entry per tail chunk; rank 0
    # opens its row (switch 0), so that chunk assigns instead of merging.
    tails = [
        (r, t0, min(t0 + chunk, hi), t0 - lo)
        for r, (lo, hi) in enumerate(zip(row_lo[:tail_rows].tolist(), row_hi.tolist()))
        for t0 in range(lo + switch, hi, chunk)
    ]
    slab_rows = max(
        int(jo.cnt[1]) if switch > 1 else 0,
        max((t1 - t0 for _, t0, t1, _ in tails), default=0),
    )
    # acc (float32) and am (int32) per row, the step slab, the bool mask.
    state = tile_max * ((2 * rows if want_arg else rows) + slab_rows)
    buf = _POOL.acquire(state + (-(-rows * tile_max // 4) if want_arg else 0))
    bt = _POOL.acquire(a.ncols * tile_max) if tile_max < n_max else None
    if want_arg:
        better = np.greater if ufunc is np.maximum else np.less
        pick = np.argmax if ufunc is np.maximum else np.argmin
        starts = row_lo.astype(np.int32)[:, None]
    cnt, ptr = jo.cnt[:switch].tolist(), jo.ptr.tolist()
    step_col, step_val = jo.col, jo.val[:, None]
    reg = obs.get_registry()
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
                    src = b
                acc = buf[: rows * w].reshape(rows, w)
                slab = buf[rows * w : (rows + slab_rows) * w].reshape(slab_rows, w)
                if want_arg:
                    off = (rows + slab_rows) * w
                    am = buf[off : off + rows * w].view(np.int32).reshape(rows, w)
                    upd = buf[off + rows * w :].view(np.bool_)[: rows * w].reshape(rows, w)
                for j, c in enumerate(cnt):
                    s = slice(ptr[j], ptr[j + 1])
                    g = acc if j == 0 else slab[:c]
                    # mode="clip" keeps np.take unbuffered (indices are
                    # validated at construction, so clipping never fires).
                    np.take(src, step_col[s], axis=0, out=g, mode="clip")
                    semiring.combine_into(step_val[s], g, g)
                    if j == 0:
                        if want_arg:
                            am.fill(0)
                        continue
                    head = acc[:c]
                    if want_arg:
                        better(g, head, out=upd[:c])
                    ufunc(head, g, out=head)
                    if want_arg:
                        # am holds in-row ranks, which only grow step by
                        # step: max(am, j * upd) is a branch-free masked
                        # store (np.copyto(where=) branches per cell).
                        ranks = g.view(np.int32)
                        np.multiply(upd[:c], np.int32(j), out=ranks)
                        np.maximum(am[:c], ranks, out=am[:c])
                for r, t0, t1, rank in tails:
                    blk = slab[: t1 - t0]
                    np.take(src, colind[t0:t1], axis=0, out=blk, mode="clip")
                    semiring.combine_into(vals[t0:t1], blk, blk)
                    if ufunc is np.add:
                        # add.reduce pairs terms; accumulate is sequential.
                        if rank:
                            np.add(acc[r], blk[0], out=blk[0])
                        np.add.accumulate(blk, axis=0, out=blk)
                        acc[r] = blk[-1]
                        continue
                    red = ufunc.reduce(blk, axis=0)
                    if rank == 0:
                        acc[r] = red
                        if want_arg:
                            am[r] = pick(blk, axis=0)
                        continue
                    if want_arg:
                        np.copyto(am[r], pick(blk, axis=0) + rank, where=better(red, acc[r]))
                    ufunc(acc[r], red, out=acc[r])
                cols = slice(lo, lo + w)
                outs[k][jo.perm, cols] = acc
                if want_arg:
                    am += starts
                    np.isnan(acc, out=upd)
                    np.copyto(am, -1, where=upd)
                    argmaxes[k][jo.perm, cols] = am
                reg.counter("segment.tiles", op=ufunc.__name__).inc()
                if tail_rows:
                    reg.counter("segment.fold.tail_rows", op=ufunc.__name__).inc(tail_rows)
    finally:
        if bt is not None:
            _POOL.release(bt)
        _POOL.release(buf)


def segment_spmm_like(
    a: CSRMatrix,
    b: np.ndarray,
    semiring: Semiring,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """SpMM-like execution through the jagged-diagonal fold.

    Runs the column-tiled, workspace-pooled executor: peak transient
    memory O(rows·T), bit-identical to one full-width reduction.
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
    operands share the cached jagged order and **one** pooled workspace
    acquisition (the tile loop reuses the same buffers operand after
    operand), so coalescing K requests costs one fold's worth of
    ``segment.workspace.allocs`` instead of K.  Operand widths may
    differ.  Each output is byte-identical to the corresponding
    ``segment_spmm_like`` call.
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


def segment_max_with_argmax(
    a: CSRMatrix, b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Max-times forward and its argmax in one fold.

    The ``aggregate_max`` hot path.  Returns ``(out, argmax)``: ``out``
    is the raw max-times output (empty rows hold ``-inf``) and
    ``argmax`` the ``int32[M, N]`` absolute position (into
    ``a.values``/``a.colind``) of the first nonzero attaining each
    cell's maximum — PyTorch ``scatter_max`` semantics.  Empty rows and
    cells whose maximum is NaN hold ``-1``; consumers mask with
    ``argmax >= 0``.  The argmax is tracked inline by the fold's strict
    ``>`` update, so neither the ``(nnz, N)`` contributions nor a hit
    mask is ever materialized, and ``aggregate_max`` keeps only the
    ``(M, N)`` int32 in its backward closure.
    """
    b = _check_dense(a, b)
    m, n = a.nrows, b.shape[1]
    out = np.full((m, n), -np.inf, dtype=VALUE_DTYPE)
    argmax = np.full((m, n), -1, dtype=np.int32)
    _fold(a, [b], MAX_TIMES, np.maximum, [out], [argmax])
    return out, argmax
