"""Shared inputs for the host-executor test suites: Hypothesis CSR
strategies, degenerate shapes, dense operands and the builtin
semirings."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.semiring import MAX_TIMES, MEAN_TIMES, MIN_TIMES, PLUS_TIMES
from repro.sparse import csr_from_coo

SEMIRINGS = {
    "plus": PLUS_TIMES,
    "max": MAX_TIMES,
    "min": MIN_TIMES,
    "mean": MEAN_TIMES,
}


@st.composite
def csr_matrices(draw, max_m=30, max_k=25, max_nnz=150, integer_values=False):
    """Random CSR with deliberate empty rows; optionally integer-valued
    float32 entries so plus/mean accumulation is exact."""
    m = draw(st.integers(1, max_m))
    k = draw(st.integers(1, max_k))
    nnz = draw(st.integers(0, min(max_nnz, m * k)))
    seed = draw(st.integers(0, 2**20))
    rng = np.random.default_rng(seed)
    # Concentrate nonzeros on a subset of rows so some rows are empty.
    active = max(1, m // 2)
    rows = rng.integers(0, active, size=nnz)
    cols = rng.integers(0, k, size=nnz)
    if integer_values:
        vals = rng.integers(-4, 5, size=nnz).astype(np.float32)
    else:
        vals = rng.standard_normal(nnz).astype(np.float32)
    return csr_from_coo(rows, cols, vals, shape=(m, k), sum_duplicates=True)


def degenerate_csr():
    """Shapes the random strategy rarely or never draws: no rows at all,
    no nonzeros with every row empty, and one nonzero among empty rows."""
    return {
        "0x0": csr_from_coo([], [], [], shape=(0, 0)),
        "nnz0": csr_from_coo([], [], [], shape=(5, 4)),
        "one-nnz": csr_from_coo([1], [2], [1.5], shape=(4, 3)),
    }


def dense_operand(a, n, seed, integer_values=False):
    rng = np.random.default_rng(seed)
    if integer_values:
        return rng.integers(-4, 5, size=(a.ncols, n)).astype(np.float32)
    return rng.standard_normal((a.ncols, n)).astype(np.float32)
