"""Byte-identity of the batched replay engine against the per-warp loops.

The tentpole contract of ``repro.gpusim.batchtrace``: every kernel's
vectorized ``trace`` must reproduce its per-warp reference replay
(``tests/oracles/trace.py``) down to the last counter — instructions, transactions, requested bytes, the
Turing L1 recency-filtered sector count, per-array traffic — *and* the
numeric output array must be bit-identical (``array_equal``, not
allclose), because both paths must execute the same floating-point
operation sequence.  docs/PERFORMANCE.md documents this contract; this
suite enforces it on a sample of the conformance grid's axes.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core
from repro.core import (
    CRCSpMM,
    CWMSpMM,
    FusedGESpMM,
    GESDDMM,
    GESpMM,
    MergePathSpMM,
    SimpleSpMM,
    bias_relu_epilogue,
)
from repro.semiring import MAX_TIMES, MEAN_TIMES, MIN_TIMES, PLUS_TIMES
from repro.gpusim import GTX_1080TI, RTX_2080, SpMMKernel
from repro.sparse import power_law, uniform_random
from tests.oracles import trace as oracle
from tests.oracles.trace import assert_stats_identical, trace_loop, trace_xy_loop

KERNELS = {
    "simple": SimpleSpMM,
    "crc": CRCSpMM,
    "cwm3": lambda: CWMSpMM(3),
    "mergepath": MergePathSpMM,
    "gespmm": GESpMM,
    "fused-relu": FusedGESpMM,
}

MATRICES = {
    "uniform": lambda: uniform_random(m=30, nnz=180, seed=7),
    "powerlaw": lambda: power_law(m=36, nnz=288, exponent=1.9, seed=7),
    "empty-rows": lambda: uniform_random(m=48, nnz=24, seed=7),
}


@pytest.mark.parametrize("gpu", [GTX_1080TI, RTX_2080], ids=lambda g: g.name)
@pytest.mark.parametrize("matrix_id", MATRICES)
@pytest.mark.parametrize("kernel_id", KERNELS)
@pytest.mark.parametrize("n", (1, 8, 40))
def test_batch_matches_loop(kernel_id, matrix_id, n, gpu):
    a = MATRICES[matrix_id]()
    rng = np.random.default_rng(42)
    b = rng.standard_normal((a.ncols, n)).astype(np.float32)
    kernel = KERNELS[kernel_id]()
    c_batch, s_batch = kernel.trace(a, b, gpu)
    c_loop, s_loop = trace_loop(kernel, a, b, gpu)
    ctx = f"{kernel.name} {matrix_id} n={n} {gpu.name}"
    assert_stats_identical(s_batch, s_loop, ctx)
    # Bit-identity, not tolerance: same fp operation order on both paths.
    np.testing.assert_array_equal(c_batch, c_loop, err_msg=ctx)


@pytest.mark.parametrize(
    "semiring", [PLUS_TIMES, MAX_TIMES, MIN_TIMES, MEAN_TIMES],
    ids=lambda s: s.name,
)
@pytest.mark.parametrize("kernel_id", ("simple", "crc", "cwm3", "mergepath", "gespmm"))
def test_batch_matches_loop_semirings(kernel_id, semiring):
    """The row fold must replay the scalar accumulation order for every
    builtin semiring (plus/max/min/mean), not just plus-times."""
    a = MATRICES["powerlaw"]()
    rng = np.random.default_rng(11)
    b = rng.standard_normal((a.ncols, 24)).astype(np.float32)
    kernel = KERNELS[kernel_id]()
    c_batch, s_batch = kernel.trace(a, b, GTX_1080TI, semiring)
    c_loop, s_loop = trace_loop(kernel, a, b, GTX_1080TI, semiring)
    ctx = f"{kernel.name} {semiring.name}"
    assert_stats_identical(s_batch, s_loop, ctx)
    np.testing.assert_array_equal(c_batch, c_loop, err_msg=ctx)


@pytest.mark.parametrize("gpu", [GTX_1080TI, RTX_2080], ids=lambda g: g.name)
@pytest.mark.parametrize("n", (8, 40))
def test_batch_matches_loop_fused_bias(n, gpu):
    a = MATRICES["powerlaw"]()
    rng = np.random.default_rng(5)
    b = rng.standard_normal((a.ncols, n)).astype(np.float32)
    bias = rng.standard_normal(n).astype(np.float32)
    kernel = FusedGESpMM(bias_relu_epilogue())
    c_batch, s_batch = kernel.trace(a, b, gpu, bias=bias)
    c_loop, s_loop = trace_loop(kernel, a, b, gpu, bias=bias)
    ctx = f"fused-bias n={n} {gpu.name}"
    assert_stats_identical(s_batch, s_loop, ctx)
    np.testing.assert_array_equal(c_batch, c_loop, err_msg=ctx)


@pytest.mark.parametrize("gpu", [GTX_1080TI, RTX_2080], ids=lambda g: g.name)
@pytest.mark.parametrize("matrix_id", MATRICES)
@pytest.mark.parametrize("n", (8, 16, 40))
def test_batch_matches_loop_sddmm(matrix_id, n, gpu):
    mask = MATRICES[matrix_id]()
    rng = np.random.default_rng(3)
    x = rng.standard_normal((mask.nrows, n)).astype(np.float32)
    y = rng.standard_normal((mask.ncols, n)).astype(np.float32)
    kernel = GESDDMM()
    e_batch, s_batch = kernel.trace_xy(mask, x, y, gpu)
    e_loop, s_loop = trace_xy_loop(kernel, mask, x, y, gpu)
    ctx = f"sddmm {matrix_id} n={n} {gpu.name}"
    assert_stats_identical(s_batch, s_loop, ctx)
    np.testing.assert_array_equal(e_batch.values, e_loop.values, err_msg=ctx)


def test_sddmm_trace_stub_is_pointed():
    """GESDDMM.trace cannot honour the SpMMKernel trace signature (two
    dense operands); the stub must say so and point at trace_xy."""
    mask = MATRICES["uniform"]()
    b = np.ones((mask.ncols, 8), dtype=np.float32)
    with pytest.raises(NotImplementedError, match=r"trace_xy\(mask, x, y, gpu\)"):
        GESDDMM().trace(mask, b, GTX_1080TI)


def test_every_batched_trace_has_a_perwarp_reference():
    """A kernel cannot ship a batched replay without its per-warp
    reference: every SpMMKernel exported by ``repro.core`` whose
    ``trace`` runs has an entry in the oracle dispatch.  (GESDDMM's
    ``trace`` refuses the SpMM signature; its replay is ``trace_xy``,
    checked against ``trace_xy_loop`` above.)"""
    a = uniform_random(m=6, nnz=12, seed=0)
    b = np.ones((a.ncols, 4), dtype=np.float32)
    exported = [getattr(repro.core, name) for name in repro.core.__all__]
    replayed = [
        cls for cls in exported
        if isinstance(cls, type) and issubclass(cls, SpMMKernel)
        and cls.trace is not SpMMKernel.trace
    ]
    missing = []
    for cls in replayed:
        try:
            cls().trace(a, b, GTX_1080TI)
        except NotImplementedError:
            continue
        if cls not in oracle.LOOPS:
            missing.append(cls.__name__)
    assert not missing, f"batched trace without a per-warp reference: {missing}"
    assert {SimpleSpMM, CRCSpMM, CWMSpMM, MergePathSpMM, GESpMM, FusedGESpMM} <= set(replayed)
