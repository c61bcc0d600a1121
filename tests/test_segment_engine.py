"""Parity suite for the segmented-reduction host engine.

Locks the contract in ``repro.sparse.segment``'s docstring: the engine
must be bit-identical to the scatter oracles (``tests/oracles/``) for
max/min reductions on any input and for plus/mean on exact
(integer-valued) arithmetic, and within tight tolerances on arbitrary
floats (where ``np.add.reduceat``'s pairing reassociates the sum).  Also
covers the derived-array caches on ``CSRMatrix``, ``to_dense`` and the
normalizers, the two fallbacks that stay in production (the per-row
loop for user-defined reductions, the accumulating ``to_dense``), and
the argmax semantics (first maximizer, empty rows, NaN) that
``aggregate_max``'s backward depends on.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.semiring import MAX_TIMES, PLUS_TIMES, Semiring
from repro.sparse import (
    CSRMatrix,
    csr_from_coo,
    power_law,
    segment_reduce,
    segment_spmm_like,
    uniform_random,
)
from repro.sparse.ops import reference_spmm_like
from repro.sparse.segment import reduce_ufunc
from tests.oracles import aggregate as aggregate_oracles
from tests.oracles import use_scatter_oracles
from tests.oracles.segment import (
    loop_to_dense,
    scatter_segment_reduce,
    scatter_spmm_like,
    segment_argmax,
)
from tests.strategies import SEMIRINGS, csr_matrices, degenerate_csr, dense_operand

BITWISE_ALWAYS = {"max", "min"}


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
@pytest.mark.parametrize("n", [1, 7, 32])
@given(a=csr_matrices(), seed=st.integers(0, 2**20))
@settings(max_examples=25, deadline=None)
def test_segment_vs_scatter_parity(name, n, a, seed):
    sr = SEMIRINGS[name]
    b = dense_operand(a, n, seed)
    got = segment_spmm_like(a, b, sr)
    want = scatter_spmm_like(a, b, sr)
    if name in BITWISE_ALWAYS:
        np.testing.assert_array_equal(got, want)
    else:
        # reduceat reassociates the float32 sum; see the module docstring.
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-4)


@pytest.mark.parametrize("name", ["plus", "mean"])
@given(a=csr_matrices(integer_values=True), seed=st.integers(0, 2**20))
@settings(max_examples=25, deadline=None)
def test_plus_like_bitwise_on_exact_arithmetic(name, a, seed):
    """With integer-valued operands the accumulation is exact, so the
    reduceat reassociation cannot surface: bit parity is required."""
    sr = SEMIRINGS[name]
    b = dense_operand(a, 5, seed, integer_values=True)
    np.testing.assert_array_equal(
        segment_spmm_like(a, b, sr), scatter_spmm_like(a, b, sr)
    )


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
def test_parity_on_power_law(name):
    sr = SEMIRINGS[name]
    a = power_law(300, 4000, seed=7, weighted=True)
    b = dense_operand(a, 16, seed=3)
    got = segment_spmm_like(a, b, sr)
    want = scatter_spmm_like(a, b, sr)
    if name in BITWISE_ALWAYS:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)


def test_reference_spmm_like_dispatches_on_toggle():
    a = uniform_random(50, 400, seed=1, weighted=True)
    b = dense_operand(a, 8, seed=2)
    engine = reference_spmm_like(a, b, MAX_TIMES)
    with use_scatter_oracles():
        oracle = reference_spmm_like(a, b, MAX_TIMES)
    np.testing.assert_array_equal(engine, oracle)
    np.testing.assert_array_equal(engine, segment_spmm_like(a, b, MAX_TIMES))


def test_generic_semiring_falls_back_to_scatter_loop():
    """A user semiring without a reduceat-capable reduce still works
    through reference_spmm_like (per-row loop), and segment_spmm_like
    refuses it explicitly."""
    odd = Semiring(
        name="second_largest_times",
        combine=np.multiply,
        reduce=lambda x, axis=0: np.sort(x, axis=axis)[-2 if x.shape[axis] > 1 else -1],
        reduce_pair=np.maximum,
        init=-np.inf,
    )
    a = uniform_random(20, 100, seed=3, weighted=True)
    b = dense_operand(a, 4, seed=4)
    got = reference_spmm_like(a, b, odd)
    assert got.shape == (a.nrows, 4)
    with pytest.raises(NotImplementedError):
        segment_spmm_like(a, b, odd)


def _as_user_semiring(sr):
    """``sr`` with its reduce hidden behind a lambda: no ufunc matches
    it, so ``reference_spmm_like`` takes the per-row loop."""
    return dataclasses.replace(
        sr, name=f"user_{sr.name}", reduce=lambda x, axis=0: sr.reduce(x, axis=axis)
    )


def _assert_rowloop_matches_scatter(a, n, seed, name):
    sr = SEMIRINGS[name]
    user = _as_user_semiring(sr)
    assert reduce_ufunc(user) is None
    b = dense_operand(a, n, seed, integer_values=True)
    np.testing.assert_array_equal(
        reference_spmm_like(a, b, user), scatter_spmm_like(a, b, sr)
    )


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9])
@given(a=csr_matrices(integer_values=True), seed=st.integers(0, 2**20))
@settings(max_examples=10, deadline=None)
def test_rowloop_fallback_matches_scatter_oracle(name, n, a, seed):
    """The per-row loop for user-defined reductions against the scatter
    oracle's ufunc branch for the same reduction; integer-valued
    operands keep plus/mean exact, so parity is bitwise."""
    _assert_rowloop_matches_scatter(a, n, seed, name)


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9])
@pytest.mark.parametrize("shape", sorted(degenerate_csr()))
def test_rowloop_fallback_degenerate_shapes(name, n, shape):
    _assert_rowloop_matches_scatter(degenerate_csr()[shape], n, 0, name)


# ----------------------------------------------------------------------
# segment_reduce / empty segments
# ----------------------------------------------------------------------


def test_segment_reduce_empty_rows_hold_exact_identity():
    rowptr = np.array([0, 0, 3, 3, 5], dtype=np.int64)
    contributions = np.arange(10, dtype=np.float32).reshape(5, 2)
    for ufunc, init in ((np.add, 0.0), (np.maximum, -np.inf), (np.minimum, np.inf)):
        out = segment_reduce(contributions, rowptr, ufunc, init)
        oracle = scatter_segment_reduce(contributions, rowptr, ufunc, init)
        np.testing.assert_array_equal(out[0], np.full(2, init))
        np.testing.assert_array_equal(out[2], np.full(2, init))
        np.testing.assert_array_equal(out, oracle)


def test_segment_reduce_zero_rows_and_zero_nnz():
    empty = segment_reduce(np.zeros((0, 3), np.float32), np.zeros(1, np.int64), np.add, 0.0)
    assert empty.shape == (0, 3)
    allempty = segment_reduce(np.zeros((0, 2), np.float32), np.zeros(5, np.int64), np.maximum, -np.inf)
    np.testing.assert_array_equal(allempty, np.full((4, 2), -np.inf))


def test_segment_reduce_counter_increments():
    prev = obs.set_registry(MetricsRegistry())
    try:
        a = uniform_random(30, 200, seed=5, weighted=True)
        b = dense_operand(a, 4, seed=6)
        segment_spmm_like(a, b, PLUS_TIMES)
        counter = obs.get_registry().counter("segment.reduce_calls", op="add")
        assert counter.value >= 1
    finally:
        obs.set_registry(prev)


# ----------------------------------------------------------------------
# derived-array caches
# ----------------------------------------------------------------------


def test_derived_arrays_cached_readonly_and_counted():
    prev = obs.set_registry(MetricsRegistry())
    try:
        a = uniform_random(40, 300, seed=8)
        first = a.coo_rows()
        assert a.coo_rows() is first  # cached object, not a rebuild
        assert not first.flags.writeable
        assert a.colind64() is a.colind64()
        assert not a.colind64().flags.writeable
        assert a.row_lengths() is a.row_lengths()
        reg = obs.get_registry()
        assert reg.counter("csr.derived_cache.misses", array="coo_rows").value == 1
        assert reg.counter("csr.derived_cache.hits", array="coo_rows").value >= 1
    finally:
        obs.set_registry(prev)


def test_fingerprint_content_addressing():
    a = uniform_random(30, 200, seed=9, weighted=True)
    b = uniform_random(30, 200, seed=9, weighted=True)
    c = uniform_random(30, 200, seed=10, weighted=True)
    assert a.fingerprint() == b.fingerprint()  # equal content, equal print
    assert a.fingerprint() != c.fingerprint()
    # Same pattern, different values -> different print.
    assert a.fingerprint() != a.with_values(a.values * 2).fingerprint()


def test_to_dense_engine_matches_oracle_including_duplicates():
    sorted_free = uniform_random(25, 180, seed=11, weighted=True)
    np.testing.assert_array_equal(sorted_free.to_dense(), loop_to_dense(sorted_free))
    # Duplicate (row, col) pattern: to_dense must fall back to accumulation.
    rows = np.array([0, 0, 1, 2, 2, 2])
    cols = np.array([1, 1, 0, 2, 2, 0])
    vals = np.array([1.5, 2.5, 3.0, 1.0, 1.0, 4.0], dtype=np.float32)
    dup = csr_from_coo(rows, cols, vals, shape=(3, 3), sum_duplicates=False)
    np.testing.assert_array_equal(dup.to_dense(), loop_to_dense(dup))
    assert dup.to_dense()[0, 1] == np.float32(4.0)


def _messy(a, duplicate):
    """``a`` with each row's entries reversed (unsorted columns) and,
    optionally, every entry stored twice with different values."""
    rows, cols, vals = a.to_coo()
    if duplicate:
        rows = np.concatenate([rows, rows])
        cols = np.concatenate([cols, cols])
        vals = np.concatenate([vals, vals * np.float32(0.5)])
    order = np.lexsort((-np.arange(rows.size), rows))  # by row, reversed within
    rowptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=a.nrows))])
    return CSRMatrix(a.shape, rowptr, cols[order], vals[order])


@given(a=csr_matrices(), duplicate=st.booleans())
@settings(max_examples=40, deadline=None)
def test_to_dense_fallback_matches_loop_oracle(a, duplicate):
    """The accumulating fallback (duplicate or unsorted patterns) and the
    direct placement (canonical patterns) against the per-entry loop."""
    np.testing.assert_array_equal(a.to_dense(), loop_to_dense(a))
    messy = _messy(a, duplicate)
    np.testing.assert_array_equal(messy.to_dense(), loop_to_dense(messy))


@pytest.mark.parametrize("shape", sorted(degenerate_csr()))
@pytest.mark.parametrize("duplicate", [False, True])
def test_to_dense_fallback_degenerate_shapes(shape, duplicate):
    messy = _messy(degenerate_csr()[shape], duplicate)
    np.testing.assert_array_equal(messy.to_dense(), loop_to_dense(messy))


def test_normalizers_parity_across_toggle():
    a = power_law(120, 1500, seed=12, weighted=True)
    rn1, sn1 = a.row_normalized(), a.sym_normalized()
    with use_scatter_oracles():
        rn0, sn0 = a.row_normalized(), a.sym_normalized()
    np.testing.assert_allclose(rn1.values, rn0.values, rtol=1e-6)
    np.testing.assert_allclose(sn1.values, sn0.values, rtol=1e-6)


# ----------------------------------------------------------------------
# argmax semantics
# ----------------------------------------------------------------------


def _manual_argmax(a, contributions):
    m, n = a.nrows, contributions.shape[1]
    want = np.full((m, n), -1, dtype=np.int64)
    for i in range(m):
        lo, hi = int(a.rowptr[i]), int(a.rowptr[i + 1])
        for j in range(n):
            col = contributions[lo:hi, j]
            if col.size == 0 or np.isnan(col.max()):
                continue  # empty row or NaN cell: no winner
            want[i, j] = lo + int(np.argmax(col == col.max()))
    return want


def test_argmax_first_maximizer_on_ties():
    rows = np.array([0, 0, 0, 1, 1])
    cols = np.array([0, 1, 2, 0, 1])
    vals = np.ones(5, dtype=np.float32)
    a = csr_from_coo(rows, cols, vals, shape=(2, 3), sum_duplicates=True)
    # Tie in row 0 between nonzeros 0 and 2 (same contribution value).
    contributions = np.array(
        [[5.0, 1.0], [3.0, 1.0], [5.0, 0.0], [2.0, 2.0], [2.0, 7.0]], dtype=np.float32
    )
    am = segment_argmax(a, contributions)
    np.testing.assert_array_equal(am, [[0, 0], [3, 4]])


@pytest.mark.parametrize("n", [5, 8, 16])  # 5 exercises the plain-nonzero path
def test_argmax_matches_manual_loop(n):
    a = uniform_random(40, 300, seed=13, weighted=True)
    rng = np.random.default_rng(14)
    contributions = rng.integers(-3, 4, size=(a.nnz, n)).astype(np.float32)
    am = segment_argmax(a, contributions)
    np.testing.assert_array_equal(am, _manual_argmax(a, contributions))


def test_argmax_empty_rows_and_nan_cells_hold_minus_one():
    rows = np.array([0, 0, 2])
    cols = np.array([0, 1, 1])
    vals = np.ones(3, dtype=np.float32)
    a = csr_from_coo(rows, cols, vals, shape=(4, 2), sum_duplicates=True)
    contributions = np.array(
        [[1.0, np.nan], [0.5, np.nan], [2.0, 3.0]], dtype=np.float32
    )
    am = segment_argmax(a, contributions)
    assert am[1].tolist() == [-1, -1] and am[3].tolist() == [-1, -1]  # empty rows
    assert am[0, 1] == -1  # NaN cell: no winner
    assert am[0, 0] == 0 and am[2].tolist() == [2, 2]


# ----------------------------------------------------------------------
# aggregate_max: engine vs the scatter oracle
# ----------------------------------------------------------------------


def _run_aggregate(a, x_data, grad, enabled):
    """``aggregate_max`` forward + backward on the engine (``enabled``)
    or on the scatter oracle."""
    from repro.gnn.aggregate import GraphPair, aggregate_max
    from repro.gnn.tensor import Tensor

    no_cost = lambda *args, **kw: 0.0
    record = lambda *args, **kw: None
    aggregate = aggregate_max if enabled else aggregate_oracles.aggregate_max
    x = Tensor(x_data.copy(), requires_grad=True)
    y = aggregate(GraphPair(a), x, no_cost, no_cost, record)
    y.backward(grad.copy())
    return y.data, x.grad


def test_aggregate_max_forward_bitwise_and_backward_close():
    a = power_law(150, 2000, seed=15, weighted=True)
    rng = np.random.default_rng(16)
    x = rng.standard_normal((a.ncols, 8)).astype(np.float32)
    grad = rng.standard_normal((a.nrows, 8)).astype(np.float32)
    y1, g1 = _run_aggregate(a, x, grad, enabled=True)
    y0, g0 = _run_aggregate(a, x, grad, enabled=False)
    np.testing.assert_array_equal(y1, y0)
    # Continuous values: ties have measure zero, so winner-takes-all and
    # tie-sharing route gradients identically (up to accumulation order).
    np.testing.assert_allclose(g1, g0, rtol=1e-5, atol=1e-5)


def test_aggregate_max_tie_gradient_goes_to_first_maximizer():
    # Row 0 aggregates two neighbors with identical contributions: the
    # engine routes the whole gradient to the first nonzero (PyTorch
    # scatter_max semantics); the legacy scatter path duplicates it to
    # every tied maximizer.  Lock both behaviors.
    rows = np.array([0, 0])
    cols = np.array([1, 2])
    vals = np.ones(2, dtype=np.float32)
    a = csr_from_coo(rows, cols, vals, shape=(1, 3), sum_duplicates=True)
    x = np.full((3, 2), 4.0, dtype=np.float32)
    grad = np.array([[1.0, 2.0]], dtype=np.float32)
    _, g_engine = _run_aggregate(a, x, grad, enabled=True)
    np.testing.assert_array_equal(
        g_engine, [[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]]
    )
    _, g_scatter = _run_aggregate(a, x, grad, enabled=False)
    np.testing.assert_allclose(g_scatter, [[0, 0], [1.0, 2.0], [1.0, 2.0]])


def test_aggregate_max_empty_rows_zero_output_and_grad():
    rows = np.array([0, 0])
    cols = np.array([0, 1])
    vals = np.array([1.0, 2.0], dtype=np.float32)
    a = csr_from_coo(rows, cols, vals, shape=(3, 2), sum_duplicates=True)
    x = np.array([[1.0], [1.0]], dtype=np.float32)
    grad = np.ones((3, 1), dtype=np.float32)
    for enabled in (True, False):
        y, g = _run_aggregate(a, x, grad, enabled)
        np.testing.assert_array_equal(y[1:], np.zeros((2, 1), np.float32))
        assert y[0, 0] == np.float32(2.0)
        np.testing.assert_array_equal(g, [[0.0], [2.0]])
