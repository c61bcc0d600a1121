"""Host microbenchmarks that time a production path against its oracle.

Each measurement pairs the host executor's production path with the
parity oracle it replaced, imported from ``tests/oracles/``:

* plus-/max-semiring ``reference_spmm_like`` vs. ``scatter_spmm_like``
  (the scatter oracle vs. the jagged-diagonal fold);
* max aggregation forward+backward vs. the tie-sharing scatter
  ``aggregate_max`` (the GraphSAGE-pool hot path, where the old backward
  closure kept an ``(nnz, N)`` array alive);
* max+argmax, the jagged-diagonal fold of ``segment_max_with_argmax``
  vs. ``untiled_max_with_argmax`` (one ``reduceat`` and the
  equality-pass ``segment_argmax``) on the hub-heavy power-law graph;
* full-batch GCN training wall-clock, with the SpMM and normalizer call
  sites rerouted onto the scatter oracles by ``use_scatter_oracles``;
* the cold full-grid analytic ``count()`` pass, profile-backed counters
  vs. the array-expansion oracles (``use_oracle_counters``);
* the column-tiled executor vs. ``untiled_spmm_like`` at wide N, for
  throughput and for transient peak memory.

Sides are timed best-of-``reps``, interleaved rep by rep so machine
noise hits both equally.  :func:`run_host_microbench` adds the oracle-free
benches of :mod:`repro.bench.hostbench` and returns the
``run.host.microbench`` payload of ``BENCH_spmm.json``; ``make
microbench`` runs it and asserts the floors.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict

import numpy as np

from repro.bench.hostbench import (
    _GCN_FEATURES,
    _GCN_M,
    _GCN_NNZ,
    _RED_M,
    _RED_NNZ,
    _bench_graph,
    _synthetic_citation,
    bench_corpus_stream,
    bench_delta_apply,
    bench_disk_cache_sweep,
)
from repro.semiring import MAX_TIMES, PLUS_TIMES
from repro.sparse.ops import reference_spmm_like
from tests.oracles import aggregate as aggregate_oracles
from tests.oracles import use_oracle_counters, use_scatter_oracles
from tests.oracles.segment import (
    scatter_spmm_like,
    untiled_max_with_argmax,
    untiled_spmm_like,
)

#: Counting benchmark graph: large enough that the O(nnz) array
#: expansions in the oracle counters dominate count() wall-clock.
_GRID_M, _GRID_NNZ = 8_000, 300_000
#: Tiled-executor benchmark graph: wide features (N=256) on a power-law
#: graph whose (nnz, N) contributions array blows past the LLC — the
#: regime the column-tiled executor targets (the host analogue of the
#: paper's Coarse-grained Warp Merging: load the sparse row once, reuse
#: it across feature tiles).
_TILED_M, _TILED_NNZ, _TILED_N = 10_000, 400_000, 256
#: Peak-memory benchmark graph + widths: the tiled executor's transient
#: footprint is O(rows*T) regardless of N, so the wide/narrow peak ratio
#: must stay near 1 where the untiled path's grows like wide/narrow.
_PEAK_M, _PEAK_NNZ = 10_000, 100_000
_PEAK_NARROW, _PEAK_WIDE = 64, 1024


def ab_times(slow: Callable[[], Any], fast: Callable[[], Any], reps: int,
             names=("scatter", "segment")) -> Dict[str, float]:
    """Best-of-``reps`` of an oracle side and a production side,
    interleaved rep by rep; one warmup call per side first, which also
    leaves the derived-array caches equally warm."""
    sides = dict(zip(names, (slow, fast)))
    best = dict.fromkeys(names, float("inf"))
    for fn in sides.values():
        fn()
    for _ in range(reps):
        for name, fn in sides.items():
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    slow_s, fast_s = best[names[0]], best[names[1]]
    return {
        f"{names[0]}_s": slow_s,
        f"{names[1]}_s": fast_s,
        "speedup": slow_s / fast_s if fast_s > 0 else float("inf"),
    }


def bench_spmm_like(
    semiring=PLUS_TIMES,
    m: int = _RED_M,
    nnz: int = _RED_NNZ,
    n: int = 16,
    reps: int = 5,
) -> Dict[str, float]:
    """Scatter oracle vs. segment ``reference_spmm_like`` on one semiring."""
    a = _bench_graph(m, nnz)
    b = np.random.default_rng(1).standard_normal((a.ncols, n)).astype(np.float32)
    return ab_times(lambda: scatter_spmm_like(a, b, semiring),
                    lambda: reference_spmm_like(a, b, semiring), reps)


def bench_aggregate_max(
    m: int = _RED_M, nnz: int = _RED_NNZ, n: int = 8, reps: int = 7
) -> Dict[str, float]:
    """Max-aggregation forward+backward (the GraphSAGE-pool hot path)."""
    from repro.gnn.aggregate import GraphPair, aggregate_max
    from repro.gnn.tensor import Tensor

    g = GraphPair(_bench_graph(m, nnz))
    data = np.random.default_rng(1).standard_normal((g.adj.ncols, n)).astype(np.float32)
    grad = np.random.default_rng(2).standard_normal((g.adj.nrows, n)).astype(np.float32)
    no_cost = lambda *a, **k: 0.0
    no_record = lambda *a, **k: None

    def step(aggregate):
        x = Tensor(data, requires_grad=True)
        y = aggregate(g, x, no_cost, no_cost, no_record)
        y.backward(grad)

    return ab_times(lambda: step(aggregate_oracles.aggregate_max),
                    lambda: step(aggregate_max), reps)


def bench_max_argmax(
    m: int = _RED_M, nnz: int = _RED_NNZ, n: int = 64, reps: int = 5
) -> Dict[str, Any]:
    """Max-times forward with its first-maximizer argmax: the fold vs.
    the untiled ``reduceat`` + equality-pass argmax it replaced."""
    from repro.sparse.segment import segment_max_with_argmax

    a = _bench_graph(m, nnz)
    b = np.random.default_rng(1).standard_normal((a.ncols, n)).astype(np.float32)
    return {
        "graph": {"kind": "power_law", "m": m, "nnz": int(a.nnz),
                  "max_row": int(a.row_lengths().max())},
        "n": n,
        **ab_times(lambda: untiled_max_with_argmax(a, b),
                   lambda: segment_max_with_argmax(a, b), reps,
                   names=("untiled", "fold")),
    }


def bench_gcn_training(
    epochs: int = 3, m: int = _GCN_M, nnz: int = _GCN_NNZ, reps: int = 3
) -> Dict[str, float]:
    """Full-batch GCN training wall-clock, scatter oracles vs. engine.

    A fresh model per call keeps the numeric work identical across reps;
    the kernel-estimate memo warms up during the warmup calls so both
    sides are measured with the same memo state.
    """
    from repro.gnn import DGLBackend, GCN, SimDevice, train
    from repro.gpusim import GTX_1080TI

    ds = _synthetic_citation(m, nnz)

    def step():
        model = GCN(ds.feature_dim, 16, ds.n_classes, rng=np.random.default_rng(0))
        backend = DGLBackend(SimDevice(GTX_1080TI), use_gespmm=True)
        train(model, backend, ds, epochs=epochs, warmup=0)

    def scatter_step():
        with use_scatter_oracles():
            step()

    return ab_times(scatter_step, step, reps)


def bench_count_grid(reps: int = 3) -> Dict[str, Any]:
    """Cold full-grid analytic ``count()`` pass: oracle array-expansion
    counters vs. the :class:`~repro.core.access_profile.AccessProfile`
    closed forms.

    The grid spans four kernels x three widths (aligned 32 plus unaligned
    250 and 7) x both GPU presets — the shape of one sweep's analytic
    work for a single graph.  The profile is dropped before every profile
    rep, so its side *includes* the one-off O(nnz) histogram build (a
    cold sweep's true cost).
    """
    from repro.core import CRCSpMM, CWMSpMM, GESpMM, SimpleSpMM
    from repro.core.access_profile import clear_access_profile
    from repro.gpusim import GTX_1080TI, RTX_2080

    a = _bench_graph(_GRID_M, _GRID_NNZ)
    kernels = [SimpleSpMM(), CRCSpMM(), CWMSpMM(2), GESpMM()]
    widths = [32, 250, 7]
    gpus = [GTX_1080TI, RTX_2080]

    def grid():
        for kern in kernels:
            for n in widths:
                for gpu in gpus:
                    kern.count(a, n, gpu)

    def oracle_pass():
        with use_oracle_counters():
            grid()

    def profile_pass():
        clear_access_profile(a)  # cold: pay the histogram build every rep
        grid()

    return {
        "grid": {"kernels": len(kernels), "widths": widths,
                 "gpus": len(gpus), "m": _GRID_M, "nnz": _GRID_NNZ},
        **ab_times(oracle_pass, profile_pass, reps, names=("oracle", "profile")),
    }


def bench_tiled_spmm(
    m: int = _TILED_M, nnz: int = _TILED_NNZ, n: int = _TILED_N, reps: int = 5
) -> Dict[str, Any]:
    """Column-tiled ``reference_spmm_like`` vs. the untiled engine body
    (one O(nnz*N) contributions temporary) at wide N."""
    from repro.sparse.segment import fold_tile_width

    a = _bench_graph(m, nnz, seed=5)
    b = np.random.default_rng(1).standard_normal((a.ncols, n)).astype(np.float32)

    def untiled():
        out = np.full((a.nrows, n), PLUS_TIMES.init, dtype=np.float32)
        return untiled_spmm_like(a, b, PLUS_TIMES, np.add, out)

    return {
        "graph": {"kind": "power_law", "m": m, "nnz": int(a.nnz)},
        "n": n,
        "tile_width": fold_tile_width(int(np.count_nonzero(a.row_lengths())), n),
        **ab_times(untiled, lambda: reference_spmm_like(a, b, PLUS_TIMES), reps,
                   names=("untiled", "tiled")),
    }


def bench_tiled_peak(
    m: int = _PEAK_M,
    nnz: int = _PEAK_NNZ,
    narrow: int = _PEAK_NARROW,
    wide: int = _PEAK_WIDE,
) -> Dict[str, Any]:
    """Transient peak memory of one SpMM at a narrow vs. a wide N.

    ``tracemalloc`` traces only the call itself: the operand and the
    output are preallocated outside the traced window (the serving-layer
    steady state ``segment_spmm_like``'s ``out=`` exists for), and the
    workspace pool is cleared before each measurement so every width pays
    its own workspace allocation.  Tiled peaks are O(rows*T) — flat in N —
    so ``tiled.peak_ratio`` stays near 1 while ``untiled.peak_ratio``
    tracks ``wide / narrow`` (~16x at the defaults).
    """
    import tracemalloc

    from repro.sparse.segment import clear_workspace_pool, segment_spmm_like

    a = _bench_graph(m, nnz, seed=6)
    # Derived arrays (colind64, rowptr64, row_lengths) are process-lived
    # caches, not per-call transients: build them outside the window.
    a.colind64(), a.rowptr64(), a.row_lengths(), a.coo_rows()
    rng = np.random.default_rng(2)
    operands = {
        n: (
            rng.standard_normal((a.ncols, n)).astype(np.float32),
            np.empty((a.nrows, n), dtype=np.float32),
        )
        for n in (narrow, wide)
    }

    def tiled(b, out):
        segment_spmm_like(a, b, PLUS_TIMES, out=out)

    def untiled(b, out):
        out.fill(PLUS_TIMES.init)
        untiled_spmm_like(a, b, PLUS_TIMES, np.add, out)

    def peak_bytes(n: int, spmm) -> int:
        clear_workspace_pool()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            spmm(*operands[n])
            _cur, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        clear_workspace_pool()
        return peak

    result: Dict[str, Any] = {
        "graph": {"kind": "power_law", "m": m, "nnz": int(a.nnz)},
        "narrow_n": narrow,
        "wide_n": wide,
    }
    for label, spmm in (("tiled", tiled), ("untiled", untiled)):
        lo, hi = peak_bytes(narrow, spmm), peak_bytes(wide, spmm)
        result[label] = {
            "narrow_peak_bytes": lo,
            "wide_peak_bytes": hi,
            "peak_ratio": hi / lo if lo else float("inf"),
        }
    return result


def run_host_microbench(
    reps: int = 5, train_reps: int = 3, epochs: int = 3
) -> Dict[str, Any]:
    """All host microbenchmarks; the ``run.host.microbench`` payload.

    ``delta_apply`` runs first: its incremental side is the only
    sub-5ms timing here, and the other benches' large temporary
    allocations leave the process heap in a state (memory returned to
    the OS, page-faulted back per rep) that taxes it by a constant
    ~1ms — measuring it on a fresh heap keeps the floor stable.
    """
    return {
        "reduction_graph": {"kind": "power_law", "m": _RED_M, "nnz": _RED_NNZ},
        "gcn_graph": {"kind": "power_law", "m": _GCN_M, "nnz": _GCN_NNZ,
                      "feature_dim": _GCN_FEATURES},
        "delta_apply": bench_delta_apply(),
        "spmm_plus": bench_spmm_like(PLUS_TIMES, reps=reps),
        "spmm_max": bench_spmm_like(MAX_TIMES, reps=reps),
        "tiled_spmm": bench_tiled_spmm(reps=reps),
        "tiled_peak": bench_tiled_peak(),
        "aggregate_max": bench_aggregate_max(),
        "max_argmax": bench_max_argmax(reps=reps),
        "gcn_train": bench_gcn_training(epochs=epochs, reps=train_reps),
        "count_grid": bench_count_grid(),
        "disk_cache": bench_disk_cache_sweep(),
        "corpus_stream": bench_corpus_stream(),
    }
