"""Differential suite for the jagged-diagonal fold of
``repro.sparse.segment``.

Every built-in SpMM-like call — plus, mean, and max/min with and
without the inline argmax — runs a row-stepped fold over the
degree-sorted (jagged-diagonal) row order, switching to per-row block
reductions for the hub tails.  Max/min results are checked against two
independent references from ``tests/oracles/segment.py``: the
``ufunc.at`` scatter (``scatter_spmm_like``) for values, and the
untiled ``reduceat`` body plus the equality-pass ``segment_argmax`` for
winners.  Plus/mean results must equal the per-nonzero sequential loop
(``sequential_spmm_like``) under ``array_equal`` on arbitrary floats.
Inputs cover empty rows, ``nnz == 0``, widths around the 8-lane
boundary, NaN, ±inf and ±0 operands, forced column tiles, and star
graphs that force the per-row tail path, including a switch at step 0.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.semiring import MAX_TIMES, MEAN_TIMES, MIN_TIMES, PLUS_TIMES
from repro.sparse import (
    clear_workspace_pool,
    csr_from_coo,
    invalidate_matrix_caches,
    segment,
    segment_max_with_argmax,
    segment_reduce,
    segment_spmm_like,
    segment_spmm_like_multi,
    workspace_stats,
)
from repro.sparse.segment import jagged_order
from tests.oracles.segment import (
    scatter_spmm_like,
    segment_argmax,
    sequential_spmm_like,
)
from tests.strategies import csr_matrices, degenerate_csr

WIDTHS = [0, 1, 7, 8, 9, 65]
SEMIRINGS = pytest.mark.parametrize(
    "semiring",
    [MAX_TIMES, MIN_TIMES, PLUS_TIMES, MEAN_TIMES],
    ids=["max", "min", "plus", "mean"],
)
#: Fold runs per check(): for max the argmax helper, segment_spmm_like
#: and segment_max_with_argmax; for min the first two; for sums one.
FOLDS_PER_CHECK = {MAX_TIMES: 3, MIN_TIMES: 2, PLUS_TIMES: 1, MEAN_TIMES: 1}
SPECIALS = np.array(
    [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 2.0], dtype=np.float32
)


@contextmanager
def fold_tile(tile):
    """Pin the fold's column tile width (None keeps the heuristic)."""
    with pytest.MonkeyPatch.context() as mp:
        if tile is not None:
            mp.setattr(segment, "fold_tile_width", lambda rows, n: max(1, min(tile, n)))
        yield


@contextmanager
def fresh_registry():
    prev = obs.set_registry(MetricsRegistry())
    try:
        yield obs.get_registry()
    finally:
        obs.set_registry(prev)


def operand(a, n, seed, special_share=0.0):
    """Dense operand; ``special_share`` of its cells drawn from NaN,
    ±inf, ±0 and small integers (ties)."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((a.ncols, n)).astype(np.float32)
    mask = rng.random(b.shape) < special_share
    b[mask] = rng.choice(SPECIALS, size=int(mask.sum()))
    return b


def oracle(a, b, semiring):
    """(values, first winners) from the untiled ``reduceat`` body and
    the equality-pass ``segment_argmax``; winners of a min reduction
    are the first cells equal to the row minimum."""
    ufunc = np.maximum if semiring is MAX_TIMES else np.minimum
    out = np.full((a.nrows, b.shape[1]), semiring.init, dtype=np.float32)
    contributions = a.values[:, None] * b[a.colind64()]
    segment_reduce(contributions, a.rowptr, ufunc, semiring.init, out=out)
    return out, segment_argmax(a, contributions, row_max=out)


def fold_with_argmax(a, b, semiring):
    """The fold with the inline argmax for either direction (the public
    ``segment_max_with_argmax`` is max-only)."""
    ufunc = np.maximum if semiring is MAX_TIMES else np.minimum
    out = np.full((a.nrows, b.shape[1]), semiring.init, dtype=np.float32)
    argmax = np.full((a.nrows, b.shape[1]), -1, dtype=np.int32)
    segment._fold(a, [b], semiring, ufunc, [out], [argmax])
    return out, argmax


def is_sum(semiring):
    return segment.reduce_ufunc(semiring) is np.add


def check(a, b, semiring):
    if is_sum(semiring):
        want = sequential_spmm_like(a, b, semiring)
        np.testing.assert_array_equal(segment_spmm_like(a, b, semiring), want)
        return
    want_out, want_arg = oracle(a, b, semiring)
    scatter = scatter_spmm_like(a, b, semiring)
    np.testing.assert_array_equal(want_out, scatter)
    got_out, got_arg = fold_with_argmax(a, b, semiring)
    np.testing.assert_array_equal(got_out, want_out)
    np.testing.assert_array_equal(got_arg, want_arg)
    np.testing.assert_array_equal(segment_spmm_like(a, b, semiring), scatter)
    if semiring is MAX_TIMES:
        pub_out, pub_arg = segment_max_with_argmax(a, b)
        np.testing.assert_array_equal(pub_out, want_out)
        np.testing.assert_array_equal(pub_arg, want_arg)


def star(m, hub_len, hub_row=0):
    """Row ``hub_row`` holds ``hub_len`` nonzeros, every other row one."""
    rows = np.concatenate([np.full(hub_len, hub_row), np.delete(np.arange(m), hub_row)])
    cols = np.concatenate([np.arange(hub_len), np.arange(m - 1) % hub_len])
    vals = np.random.default_rng(m).standard_normal(rows.size).astype(np.float32)
    return csr_from_coo(rows, cols, vals, shape=(m, hub_len), sum_duplicates=True)


def lone_rows(lengths, k=40):
    """Rows of the given lengths (0 = empty) over ``k`` columns."""
    rows = np.repeat(np.arange(len(lengths)), lengths)
    cols = np.concatenate([np.arange(n) for n in lengths]) if rows.size else rows
    vals = np.random.default_rng(len(lengths)).standard_normal(rows.size).astype(np.float32)
    return csr_from_coo(rows, cols, vals, shape=(len(lengths), k), sum_duplicates=True)


# ----------------------------------------------------------------------
# random inputs
# ----------------------------------------------------------------------


@SEMIRINGS
@pytest.mark.parametrize("tile", [None, 1, 3])
@given(
    a=csr_matrices(),
    n=st.sampled_from(WIDTHS),
    seed=st.integers(0, 2**20),
    special=st.sampled_from([0.0, 0.3]),
)
@settings(max_examples=20, deadline=None)
def test_fold_matches_oracles(semiring, tile, a, n, seed, special):
    b = operand(a, n, seed, special)
    with fold_tile(tile):
        check(a, b, semiring)


@SEMIRINGS
@pytest.mark.parametrize("name", sorted(degenerate_csr()))
@pytest.mark.parametrize("n", WIDTHS)
def test_fold_degenerate_shapes(semiring, name, n):
    a = degenerate_csr()[name]
    check(a, operand(a, n, seed=n, special_share=0.3), semiring)


def test_multi_operands_match_single_calls():
    a = star(60, 30)
    bs = [operand(a, n, seed=n, special_share=0.2) for n in (0, 5, 70)]
    for semiring in (MAX_TIMES, MIN_TIMES):
        with fold_tile(16):
            multi = segment_spmm_like_multi(a, bs, semiring)
        for got, b in zip(multi, bs):
            np.testing.assert_array_equal(got, scatter_spmm_like(a, b, semiring))


# ----------------------------------------------------------------------
# hub tails
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "make, switch, tail_rows",
    [
        (lambda: star(50, 40), 1, 1),  # one hub, 49 one-nonzero rows
        (lambda: star(50, 40, hub_row=17), 1, 1),
        (lambda: lone_rows([0, 0, 12, 0]), 0, 1),  # one row: tail from step 0
        (lambda: lone_rows([5, 0, 5]), 0, 2),
        (lambda: lone_rows([1, 1, 1, 30, 2, 0]), 1, 2),
    ],
    ids=["star", "star-mid-hub", "single-row", "two-equal-rows", "mixed"],
)
@SEMIRINGS
@pytest.mark.parametrize("n", [1, 9, 65])
def test_tail_path_runs_and_matches(make, switch, tail_rows, semiring, n):
    a = make()
    order = jagged_order(a)
    assert order.switch == switch
    assert int(order.cnt[switch]) == tail_rows
    b = operand(a, n, seed=3, special_share=0.2)
    with fresh_registry() as reg, fold_tile(4):
        check(a, b, semiring)
        tiles = -(-n // 4)
        op = segment.reduce_ufunc(semiring).__name__
        ran = reg.counter("segment.fold.tail_rows", op=op)
        assert ran.value == FOLDS_PER_CHECK[semiring] * tiles * tail_rows


@SEMIRINGS
def test_long_tails_reduce_in_budget_sized_chunks(semiring):
    """A tail longer than the budget allows is reduced chunk by chunk.
    For max/min, integer operands tie across chunk borders, where the
    earlier chunk must keep the win; for sums, float operands pin the
    order in which each chunk merges into the running sum."""
    a = lone_rows([100, 0, 3, 90], k=100)
    assert jagged_order(a).switch == 0
    rng = np.random.default_rng(5)
    if is_sum(semiring):
        b = rng.standard_normal((a.ncols, 9)).astype(np.float32)
    else:
        b = rng.integers(-2, 3, size=(a.ncols, 9)).astype(np.float32)
    clear_workspace_pool()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segment, "_WORKSPACE_BUDGET", 4 * 9 * 7)  # 7-row chunks
        check(a, b, semiring)
    # acc, argmax and mask for 3 rows plus a 7-row slab, 9 columns wide:
    # a 100-row slab would need four times that.
    assert workspace_stats()["owned_bytes"] <= 4 * 9 * (2 * 3 + 7 + 1)
    clear_workspace_pool()


def test_no_tail_on_uniform_rows():
    a = lone_rows([3] * 20)
    order = jagged_order(a)
    assert order.switch == 3 and order.cnt.size == 3
    with fresh_registry() as reg:
        check(a, operand(a, 8, seed=1), MAX_TIMES)
        assert reg.counter("segment.fold.tail_rows", op="maximum").value == 0


def test_jagged_order_layout():
    a = lone_rows([2, 0, 3, 1, 3])
    order = jagged_order(a)
    # Descending length, stable among equals; empty rows dropped.
    np.testing.assert_array_equal(order.perm, [2, 4, 0, 3])
    np.testing.assert_array_equal(order.cnt, [4, 3, 2])
    # Steps before the switch list each unfinished row's j-th nonzero.
    rowptr = a.rowptr64()
    for j in range(order.switch):
        lo, hi = order.ptr[j], order.ptr[j + 1]
        pos = rowptr[order.perm[: hi - lo]] + j
        np.testing.assert_array_equal(order.col[lo:hi], a.colind64()[pos])
        np.testing.assert_array_equal(order.val[lo:hi], a.values[pos])
    for arr in order[:-1]:
        assert not arr.flags.writeable


# ----------------------------------------------------------------------
# special values
# ----------------------------------------------------------------------


def test_nan_cells_have_no_winner_and_inf_rows_keep_the_first():
    a = lone_rows([3, 2])
    a = csr_from_coo(a.coo_rows(), a.colind, np.ones(a.nnz, np.float32), shape=a.shape)
    b = np.zeros((a.ncols, 3), np.float32)
    b[:3, 0] = [1.0, np.nan, 5.0]  # NaN anywhere in the row: no winner
    b[:3, 1] = -np.inf  # every term -inf: the first still wins
    b[:3, 2] = [np.inf, 2.0, np.inf]  # tied +inf: first
    out, arg = segment_max_with_argmax(a, b)
    assert np.isnan(out[0, 0]) and arg[0, 0] == -1
    assert out[0, 1] == -np.inf and arg[0, 1] == 0
    assert out[0, 2] == np.inf and arg[0, 2] == 0


@pytest.mark.parametrize("first", [0.0, -0.0])
@pytest.mark.parametrize("semiring", [MAX_TIMES, MIN_TIMES], ids=["max", "min"])
def test_signed_zero_ties_equal_under_array_equal(first, semiring):
    """The parity contract for max/min is ``array_equal``, not bit
    equality: on a tie between +0 and -0 the sign of the result is not
    specified (``reduceat`` and ``ufunc.at`` already disagree on it),
    but the value compares equal and the winner is the first term."""
    # Six rows over columns 0-3 fold in slab steps; the last row, over
    # columns 4-43, reduces its tail (columns 8-43) as one block.
    rows = np.repeat(np.arange(7), [4] * 6 + [40])
    cols = np.concatenate([np.tile(np.arange(4), 6), np.arange(4, 44)])
    a = csr_from_coo(rows, cols, np.ones(rows.size, np.float32), shape=(7, 44))
    assert jagged_order(a).switch == 4
    b = np.full((a.ncols, 2), -1.0 if semiring is MAX_TIMES else 1.0, np.float32)
    b[[0, 2]] = first  # tie inside the slab steps
    b[2] *= -1
    b[[10, 12]] = first  # tie inside the hub's tail block
    b[12] *= -1
    out, arg = fold_with_argmax(a, b, semiring)
    want_out, want_arg = oracle(a, b, semiring)
    np.testing.assert_array_equal(out, want_out)
    np.testing.assert_array_equal(out, scatter_spmm_like(a, b, semiring))
    assert (out == 0).all()
    np.testing.assert_array_equal(arg, want_arg)
    starts = a.rowptr64()[:-1, None]
    np.testing.assert_array_equal(arg[:6], np.broadcast_to(starts[:6], (6, 2)))
    assert (arg[6] == starts[6, 0] + 6).all()  # column 10


# ----------------------------------------------------------------------
# caching
# ----------------------------------------------------------------------


def test_jagged_order_is_cached_and_dropped():
    a = star(30, 20)
    b = operand(a, 4, seed=0)
    with fresh_registry() as reg:
        segment_max_with_argmax(a, b)
        segment_max_with_argmax(a, b)
        assert reg.counter("csr.derived_cache.misses", array="jagged_order").value == 1
        assert reg.counter("csr.derived_cache.hits", array="jagged_order").value == 1
    assert "jagged_order" in a._derived
    a.clear_derived()
    assert "jagged_order" not in a._derived
    segment_max_with_argmax(a, b)
    assert invalidate_matrix_caches(a)["jagged_order"] == 1
    assert "jagged_order" not in a._derived
    assert invalidate_matrix_caches(a)["jagged_order"] == 0
