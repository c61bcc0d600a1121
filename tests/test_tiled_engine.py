"""Parity and contract suite for the column-tiled, workspace-pooled
executor.

Locks the tiling contract in ``repro.sparse.segment``'s docstring: the
tiled path must be **bit-identical** to a reference
(``tests/oracles/segment.py``) for every tile geometry (T=1, T >= N,
N % T != 0), every built-in reduction (add / maximum / minimum, plus
mean's finalize), and every edge shape (empty rows, empty matrices,
zero-width operands).  Plus and mean are checked against the
per-nonzero sequential loop ``sequential_spmm_like`` on arbitrary
floats — tiles never split a row's reduction, and the fold adds every
row strictly left to right; max and min against the untiled
``reduceat`` body.  Tile widths are forced by patching the module's
``fold_tile_width`` (:func:`forced_tile`).  Also covers the workspace
pool (reuse/alloc counters, size classes, free-list cap, clearing), the
multi-operand batching primitive (byte parity with per-operand calls,
one fold's worth of allocations), the pad path of the
``_sparse_nonzero`` oracle that keeps non-multiple-of-8 widths on the
uint64 prefilter, and the fused ``segment_max_with_argmax`` fold
``aggregate_max`` runs on.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.semiring import MAX_TIMES, MEAN_TIMES, PLUS_TIMES
from repro.sparse import (
    clear_workspace_pool,
    csr_from_coo,
    power_law,
    segment,
    segment_max_with_argmax,
    segment_spmm_like,
    segment_spmm_like_multi,
    uniform_random,
    workspace_stats,
)
from repro.sparse.ops import reference_spmm_like_multi
from repro.sparse.segment import _POOL, reduce_ufunc
from tests.oracles import use_scatter_oracles
from tests.oracles.segment import (
    _sparse_nonzero,
    segment_argmax,
    sequential_spmm_like,
    untiled_max_with_argmax,
    untiled_spmm_like,
)
from tests.strategies import SEMIRINGS, csr_matrices, dense_operand


@contextmanager
def forced_tile(tile):
    """Pin the executor's tile width for a scope (None keeps the
    heuristic); the fold looks ``fold_tile_width`` up per call."""
    with pytest.MonkeyPatch.context() as mp:
        if tile is not None:
            mp.setattr(segment, "fold_tile_width", lambda rows, n: max(1, min(tile, n)))
        yield


def _reference(a, b, sr):
    """The bit reference: the sequential loop for plus/mean, the
    untiled ``reduceat`` body for max/min."""
    ufunc = reduce_ufunc(sr)
    if ufunc is np.add:
        return sequential_spmm_like(a, b, sr)
    out = np.full((a.nrows, b.shape[1]), sr.init, dtype=np.float32)
    return untiled_spmm_like(a, b, sr, ufunc, out)


# ----------------------------------------------------------------------
# tiled vs. reference bit parity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
@pytest.mark.parametrize("tile", [1, 7, 64])  # 1, N%7!=0 mostly, T>=N mostly
@given(a=csr_matrices(), n=st.integers(1, 40), seed=st.integers(0, 2**20))
@settings(max_examples=25, deadline=None)
def test_tiled_bit_identical_to_untiled(name, tile, a, n, seed):
    """Bit parity for every reduction on arbitrary floats: tiles never
    split a row segment, so even the float32 add accumulates in the
    sequential order."""
    sr = SEMIRINGS[name]
    b = dense_operand(a, n, seed)
    want = _reference(a, b, sr)
    with forced_tile(tile):
        got = segment_spmm_like(a, b, sr)
    np.testing.assert_array_equal(got, want)
    # Adaptive width too (covers T == N for these small operands).
    got_auto = segment_spmm_like(a, b, sr)
    np.testing.assert_array_equal(got_auto, want)


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
def test_tiled_parity_on_power_law(name):
    """Fast tier-1 slice of the wide-N benchmark geometry: a power-law
    graph at N=100 (not a multiple of the tile width or of 8)."""
    sr = SEMIRINGS[name]
    a = power_law(300, 4000, seed=7, weighted=True)
    b = dense_operand(a, 100, seed=3)
    want = _reference(a, b, sr)
    for tile in (1, 8, 33, 100, 512, None):
        with forced_tile(tile):
            np.testing.assert_array_equal(segment_spmm_like(a, b, sr), want)


def test_tiled_empty_rows_matrices_and_widths():
    empty_rows = csr_from_coo([], [], [], shape=(5, 4))
    out = segment_spmm_like(empty_rows, np.ones((4, 9), np.float32), PLUS_TIMES)
    np.testing.assert_array_equal(out, np.zeros((5, 9), np.float32))
    out = segment_spmm_like(empty_rows, np.ones((4, 9), np.float32), MAX_TIMES)
    np.testing.assert_array_equal(out, np.full((5, 9), -np.inf, np.float32))
    degenerate = csr_from_coo([], [], [], shape=(0, 0))
    assert segment_spmm_like(degenerate, np.ones((0, 3), np.float32), PLUS_TIMES).shape == (0, 3)
    a = uniform_random(6, 12, seed=1, weighted=True)
    assert segment_spmm_like(a, np.zeros((a.ncols, 0), np.float32), PLUS_TIMES).shape == (6, 0)


def test_out_buffer_reused_and_validated():
    a = uniform_random(20, 80, seed=2, weighted=True)
    b = dense_operand(a, 10, seed=3)
    out = np.empty((a.nrows, 10), dtype=np.float32)
    got = segment_spmm_like(a, b, PLUS_TIMES, out=out)
    assert got is out
    np.testing.assert_array_equal(out, _reference(a, b, PLUS_TIMES))
    with pytest.raises(ValueError):
        segment_spmm_like(a, b, PLUS_TIMES, out=np.empty((a.nrows, 9), np.float32))
    with pytest.raises(ValueError):
        segment_spmm_like(a, b, PLUS_TIMES, out=np.empty((a.nrows, 10), np.float64))


# ----------------------------------------------------------------------
# workspace pool
# ----------------------------------------------------------------------


def test_workspace_pool_reuse_and_counters():
    prev = obs.set_registry(MetricsRegistry())
    clear_workspace_pool()
    try:
        a = power_law(200, 3000, seed=4, weighted=True)
        b = dense_operand(a, 64, seed=5)
        with forced_tile(8):
            segment_spmm_like(a, b, PLUS_TIMES)
            reg = obs.get_registry()
            allocs_first = reg.counter("segment.workspace.allocs").value
            assert allocs_first >= 1
            assert reg.gauge("segment.workspace.bytes_peak").value > 0
            segment_spmm_like(a, b, PLUS_TIMES)  # steady state: pool hits only
            assert reg.counter("segment.workspace.allocs").value == allocs_first
            # The forced width reached the tile loop: 64 / 8 tiles per call.
            assert reg.counter("segment.tiles", op="add").value == 16
            assert reg.counter("segment.workspace.reuses").value >= 1
        stats = workspace_stats()
        assert stats["free_buffers"] >= 1
        assert clear_workspace_pool() == stats["free_buffers"]
        assert workspace_stats()["free_buffers"] == 0
    finally:
        clear_workspace_pool()
        obs.set_registry(prev)


def test_workspace_pool_free_list_capped():
    clear_workspace_pool()
    try:
        bufs = [_POOL.acquire(100 * (i + 1)) for i in range(8)]
        for buf in bufs:
            _POOL.release(buf)
        stats = workspace_stats()
        assert stats["free_buffers"] == _POOL._MAX_FREE
        # Cap policy keeps the largest buffers (the last four acquired).
        assert sorted(b.size for b in _POOL._free) == [b.size for b in bufs[4:]]
    finally:
        clear_workspace_pool()


def test_workspace_pool_size_classes_absorb_drift():
    """Requests that creep up one element at a time (a fold's state on a
    graph under edits) reuse a buffer from their size class instead of
    allocating afresh each time."""
    prev = obs.set_registry(MetricsRegistry())
    clear_workspace_pool()
    try:
        for n in range(1000, 1064):
            buf = _POOL.acquire(n)
            assert buf.size >= n and buf.size - n < n / 16
            _POOL.release(buf)
        assert obs.get_registry().counter("segment.workspace.allocs").value <= 2
    finally:
        clear_workspace_pool()
        obs.set_registry(prev)


# ----------------------------------------------------------------------
# multi-operand batching
# ----------------------------------------------------------------------


def test_multi_byte_identical_to_per_operand_loop():
    a = power_law(300, 5000, seed=6, weighted=True)
    bs = [dense_operand(a, n, seed=n) for n in (3, 17, 64, 100)]
    for sr in (PLUS_TIMES, MAX_TIMES, MEAN_TIMES):
        with forced_tile(16):
            multi = segment_spmm_like_multi(a, bs, sr)
            loop = [segment_spmm_like(a, b, sr) for b in bs]
        assert len(multi) == len(loop)
        for got, want in zip(multi, loop):
            assert got.tobytes() == want.tobytes()


def test_multi_shares_one_workspace_acquisition():
    """Coalescing K operands must cost one fold's worth of workspace
    allocations (fold state + operand-tile buffer), not K."""
    a = power_law(300, 5000, seed=6, weighted=True)
    bs = [dense_operand(a, 64, seed=n) for n in range(6)]
    prev = obs.set_registry(MetricsRegistry())
    clear_workspace_pool()
    try:
        with forced_tile(8):
            segment_spmm_like_multi(a, bs, PLUS_TIMES)
        reg = obs.get_registry()
        assert reg.counter("segment.workspace.allocs").value <= 2
        assert reg.counter("segment.multi_calls", operands=len(bs)).value == 1
    finally:
        clear_workspace_pool()
        obs.set_registry(prev)


def test_multi_mixed_widths_empty_and_outs():
    a = uniform_random(25, 120, seed=8, weighted=True)
    bs = [dense_operand(a, 5, seed=1), np.zeros((a.ncols, 0), np.float32)]
    outs = [np.empty((a.nrows, 5), np.float32), np.empty((a.nrows, 0), np.float32)]
    got = segment_spmm_like_multi(a, bs, PLUS_TIMES, outs=outs)
    assert got[0] is outs[0] and got[1] is outs[1]
    np.testing.assert_array_equal(got[0], segment_spmm_like(a, bs[0], PLUS_TIMES))
    assert segment_spmm_like_multi(a, [], PLUS_TIMES) == []
    with pytest.raises(ValueError):
        segment_spmm_like_multi(a, bs, PLUS_TIMES, outs=outs[:1])


def test_multi_untiled_fallback_matches():
    a = uniform_random(25, 120, seed=9, weighted=True)
    bs = [dense_operand(a, n, seed=n) for n in (4, 11)]
    off = [_reference(a, b, PLUS_TIMES) for b in bs]
    on = segment_spmm_like_multi(a, bs, PLUS_TIMES)
    for got, want in zip(on, off):
        np.testing.assert_array_equal(got, want)


def test_reference_multi_dispatch_matches_reference():
    from repro.sparse.ops import reference_spmm_like

    a = uniform_random(30, 150, seed=10, weighted=True)
    bs = [dense_operand(a, n, seed=n) for n in (6, 20)]
    engine = reference_spmm_like_multi(a, bs, MAX_TIMES)
    with use_scatter_oracles():
        oracle = reference_spmm_like_multi(a, bs, MAX_TIMES)
    for got, want, b in zip(engine, oracle, bs):
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, reference_spmm_like(a, b, MAX_TIMES))


# ----------------------------------------------------------------------
# _sparse_nonzero pad path (satellite: widths like 100 keep the
# uint64 prefilter instead of silently falling back to np.nonzero)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 5, 100])
def test_sparse_nonzero_pads_unaligned_widths(n):
    prev = obs.set_registry(MetricsRegistry())
    try:
        rng = np.random.default_rng(n)
        hits = rng.random((40, n)) < 0.05
        got = _sparse_nonzero(np.ascontiguousarray(hits))
        want = np.nonzero(hits)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        reg = obs.get_registry()
        assert reg.counter("segment.sparse_nonzero.pads").value == 1
        assert reg.counter("segment.sparse_nonzero.fallbacks").value == 0
    finally:
        obs.set_registry(prev)


def test_sparse_nonzero_aligned_noncontiguous_and_degenerate():
    prev = obs.set_registry(MetricsRegistry())
    try:
        reg = obs.get_registry()
        rng = np.random.default_rng(0)
        aligned = rng.random((30, 16)) < 0.1
        got = _sparse_nonzero(np.ascontiguousarray(aligned))
        np.testing.assert_array_equal(got[0], np.nonzero(aligned)[0])
        assert reg.counter("segment.sparse_nonzero.pads").value == 0
        # Non-contiguous slice of an aligned mask: padded copy, same result.
        wide = np.ascontiguousarray(rng.random((30, 32)) < 0.1)
        view = wide[:, ::2]
        got = _sparse_nonzero(view)
        np.testing.assert_array_equal(got[1], np.nonzero(view)[1])
        assert reg.counter("segment.sparse_nonzero.pads").value == 1
        # Degenerate (empty) input: plain np.nonzero, counted as fallback.
        empty = np.zeros((0, 8), dtype=np.bool_)
        assert _sparse_nonzero(empty)[0].size == 0
        assert reg.counter("segment.sparse_nonzero.fallbacks").value == 1
    finally:
        obs.set_registry(prev)


def test_argmax_unaligned_width_matches_aligned_semantics():
    """Width 100 (not a multiple of 8) must produce the same winners the
    plain np.nonzero scan would — the pad can never leak columns."""
    a = uniform_random(40, 300, seed=13, weighted=True)
    rng = np.random.default_rng(14)
    contributions = rng.integers(-3, 4, size=(a.nnz, 100)).astype(np.float32)
    am = segment_argmax(a, contributions)
    assert am.shape == (a.nrows, 100)
    # Cross-check a few columns against the 8-aligned single-column path.
    for j in (0, 37, 99):
        single = segment_argmax(a, np.ascontiguousarray(
            np.repeat(contributions[:, j : j + 1], 8, axis=1)))
        np.testing.assert_array_equal(am[:, j], single[:, 0])


# ----------------------------------------------------------------------
# fused max + argmax traversal
# ----------------------------------------------------------------------


@given(a=csr_matrices(), n=st.integers(1, 24), seed=st.integers(0, 2**20))
@settings(max_examples=25, deadline=None)
def test_max_with_argmax_matches_untiled_two_pass(a, n, seed):
    b = dense_operand(a, n, seed)
    want_out, want_am = untiled_max_with_argmax(a, b)
    with forced_tile(3):
        got_out, got_am = segment_max_with_argmax(a, b)
    np.testing.assert_array_equal(got_out, want_out)
    np.testing.assert_array_equal(got_am, want_am)


def test_max_with_argmax_empty_rows_hold_identity_and_no_winner():
    rows = np.array([0, 0])
    cols = np.array([0, 1])
    vals = np.array([2.0, 1.0], dtype=np.float32)
    a = csr_from_coo(rows, cols, vals, shape=(3, 2), sum_duplicates=True)
    out, am = segment_max_with_argmax(a, np.ones((2, 4), np.float32))
    np.testing.assert_array_equal(out[1:], np.full((2, 4), -np.inf, np.float32))
    np.testing.assert_array_equal(am[1:], np.full((2, 4), -1, np.int32))
    np.testing.assert_array_equal(out[0], np.full(4, 2.0, np.float32))
    np.testing.assert_array_equal(am[0], np.zeros(4, np.int32))
