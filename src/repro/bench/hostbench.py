"""Host-execution microbenchmark building blocks.

The benchmark graphs, a best-of timer, the incremental-delta,
disk-cache and corpus-stream measurements, and the writer that records
results in ``BENCH_spmm.json`` under ``run.host.microbench`` — inside
the ``run`` block the regression gate ignores, so host timing noise can
never fail ``make gate``.  The measurements that time a production path
against a parity oracle from ``tests/oracles/`` live in
``benchmarks/host_microbench.py``; ``make microbench`` runs both.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

import numpy as np

from repro.sparse import power_law
from repro.sparse.csr import CSRMatrix

__all__ = [
    "best_of",
    "bench_delta_apply",
    "bench_disk_cache_sweep",
    "bench_corpus_stream",
    "format_result_line",
    "update_bench_json_host",
]

PathLike = Union[str, Path]

#: Reduction benchmark graph: dense power-law (avg degree 50) with
#: narrow features, the regime where the per-row reduction dominates and
#: the scatter loop's per-duplicate cost is highest.  Feature widths
#: mirror the classic Planetoid GCN/SAGE configs (hidden 8/16), where
#: the aggregation step — not the dense layer matmuls — is the host
#: bottleneck.
_RED_M, _RED_NNZ = 12_000, 600_000
#: GCN training benchmark graph: aggregation-heavy but small enough that
#: a full multi-epoch train fits in a few hundred milliseconds.
_GCN_M, _GCN_NNZ, _GCN_FEATURES = 12_000, 160_000, 64


def best_of(fn: Callable[[], Any], reps: int = 5, warmup: int = 1) -> float:
    """Best-of-``reps`` wall time of ``fn()`` after ``warmup`` calls.

    Best (not mean) is the standard microbenchmark statistic: host noise
    is strictly additive, so the minimum is the cleanest estimate.
    """
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _bench_graph(m: int = _RED_M, nnz: int = _RED_NNZ, seed: int = 0) -> CSRMatrix:
    return power_law(m, nnz, seed=seed, weighted=True)


def _synthetic_citation(
    m: int = _GCN_M,
    nnz: int = _GCN_NNZ,
    feature_dim: int = _GCN_FEATURES,
    n_classes: int = 7,
    seed: int = 0,
):
    """An aggregation-dominant synthetic dataset in the Planetoid layout.

    Real cora has 1433-dim features, so dense layer matmuls swamp the
    aggregation step; this keeps ``feature_dim`` narrow and the graph
    nnz-heavy so the engine's target actually dominates wall-clock.
    """
    from repro.datasets.citation import CitationDataset

    rng = np.random.default_rng(seed)
    graph = _bench_graph(m, nnz, seed=seed)
    labels = rng.integers(0, n_classes, size=m)
    masks = rng.permutation(m)
    train_mask = np.zeros(m, dtype=bool)
    val_mask = np.zeros(m, dtype=bool)
    test_mask = np.zeros(m, dtype=bool)
    train_mask[masks[: m // 10]] = True
    val_mask[masks[m // 10 : 2 * m // 10]] = True
    test_mask[masks[2 * m // 10 :]] = True
    return CitationDataset(
        name="synthetic-hostbench",
        graph=graph,
        features=rng.standard_normal((m, feature_dim)).astype(np.float32),
        labels=labels.astype(np.int64),
        train_mask=train_mask,
        val_mask=val_mask,
        test_mask=test_mask,
        n_classes=n_classes,
    )


def bench_delta_apply(
    m: int = 10_000, nnz: int = 100_000, batch: int = 1_000, reps: int = 15
) -> Dict[str, Any]:
    """Incremental :func:`~repro.sparse.delta.apply_delta` vs. the full
    from-scratch rebuild it replaces.

    A 100k-edge power-law graph takes a mixed 1% batch (third inserts,
    third deletes, third value updates).  The incremental side patches
    the CSR arrays and evolves the cached :class:`AccessProfile` in
    O(Δ + touched rows); the rebuild side is what a delta-less streaming
    host would pay per batch — ``csr_from_coo`` (the COO lexsort), all
    four derived arrays, and a cold profile build.  Both sides produce
    the identical matrix (``parity`` asserts fingerprint equality), each
    timed best-of-``reps``.
    """
    from repro.core.access_profile import access_profile
    from repro.sparse import csr_from_coo
    from repro.sparse.delta import EdgeDelta, apply_delta

    a = _bench_graph(m, nnz, seed=3)
    # Steady-state streaming host: the live version's derived state and
    # profile are resident (that is the state the delta path patches).
    a.colind64(), a.coo_rows(), access_profile(a)

    rng = np.random.default_rng(4)
    third = batch // 3
    del_idx = rng.choice(a.nnz, size=third, replace=False)
    upd_idx = rng.choice(
        np.setdiff1d(np.arange(a.nnz), del_idx), size=third, replace=False
    )
    # Absent slots for inserts: rejection-sample against the (sorted)
    # stored edge keys.
    keys = a.coo_rows() * a.ncols + a.colind64()
    cand = np.unique(
        rng.integers(0, m, size=8 * third) * a.ncols
        + rng.integers(0, a.ncols, size=8 * third)
    )
    pos = np.searchsorted(keys, cand)
    stored = (pos < keys.size) & (keys[np.minimum(pos, keys.size - 1)] == cand)
    ins_flat = rng.permutation(cand[~stored])[:third]

    delta = EdgeDelta.new(
        inserts=(
            ins_flat // a.ncols,
            ins_flat % a.ncols,
            rng.standard_normal(ins_flat.size).astype(np.float32),
        ),
        deletes=(a.coo_rows()[del_idx], a.colind64()[del_idx]),
        updates=(
            a.coo_rows()[upd_idx],
            a.colind64()[upd_idx],
            rng.standard_normal(third).astype(np.float32),
        ),
    )

    out = apply_delta(a, delta)
    rows, cols, vals = out.coo_rows(), out.colind64(), out.values

    def incremental():
        return apply_delta(a, delta)

    def rebuild():
        ref = csr_from_coo(rows, cols, vals, shape=a.shape)
        ref.row_lengths(), ref.rowptr64(), ref.colind64(), ref.coo_rows()
        access_profile(ref)
        return ref

    # The incremental side is sub-5ms, so its best-of needs more reps to
    # converge past cache/frequency warmup; the rebuild side is ~5x
    # longer per rep and settles quickly.
    incremental_s = best_of(incremental, reps=3 * reps, warmup=3)
    rebuild_s = best_of(rebuild, reps=reps)
    parity = out.fingerprint() == rebuild().fingerprint()
    return {
        "graph": {"kind": "power_law", "m": m, "nnz": int(a.nnz)},
        "batch": {"inserts": int(ins_flat.size), "deletes": third,
                  "updates": third},
        "incremental_s": incremental_s,
        "rebuild_s": rebuild_s,
        "speedup": rebuild_s / incremental_s if incremental_s > 0 else float("inf"),
        "parity": parity,
    }


def bench_disk_cache_sweep() -> Dict[str, Any]:
    """Cold vs. disk-warm sweep through a throwaway :class:`DiskCache`.

    Runs one small sweep cold, wipes the in-process memos (simulating a
    fresh process), and re-runs it against the same cache directory.  The
    warm run must recompute nothing (``memo_misses == 0``) and reproduce
    every cell byte for byte — the same contract CI asserts on the real
    ``BENCH_spmm.json`` regeneration.
    """
    import shutil
    import tempfile

    from repro.bench.diskcache import DiskCache, use_disk_cache
    from repro.bench.runner import clear_sweep_cache, run_sweep_with_stats
    from repro.core import CRCSpMM, GESpMM, SimpleSpMM
    from repro.gpusim import GTX_1080TI
    from repro.gpusim.kernel import clear_estimate_memo

    kernels = [SimpleSpMM(), CRCSpMM(), GESpMM()]
    graphs = {"pl": _bench_graph(4_000, 120_000)}
    widths = [32, 250]
    gpus = [GTX_1080TI]
    root = tempfile.mkdtemp(prefix="repro-diskcache-bench-")
    try:
        cache = DiskCache(root)
        with use_disk_cache(cache):
            clear_sweep_cache()
            clear_estimate_memo()
            t0 = time.perf_counter()
            cold, _ = run_sweep_with_stats(kernels, graphs, widths, gpus)
            cold_s = time.perf_counter() - t0
            clear_sweep_cache()
            clear_estimate_memo()  # simulate a fresh process
            t0 = time.perf_counter()
            warm, host_warm = run_sweep_with_stats(kernels, graphs, widths, gpus)
            warm_s = time.perf_counter() - t0
        dump = lambda rs: json.dumps([r.__dict__ for r in rs], sort_keys=True)
        return {
            "cells": len(cold),
            "cold_s": cold_s,
            "warm_s": warm_s,
            "warm_memo_misses": host_warm.memo_misses,
            "disk_hits": cache.counters()["hits"],
            "disk_invalidations": cache.counters()["invalidations"],
            "byte_identical": dump(warm) == dump(cold),
        }
    finally:
        clear_sweep_cache()
        clear_estimate_memo()
        shutil.rmtree(root, ignore_errors=True)


def bench_corpus_stream(
    n_specs: int = 1000, shards: int = 10, memo_limit: int = 256
) -> Dict[str, Any]:
    """Stream a ≥``n_specs``-matrix generator-defined corpus through
    :func:`repro.bench.corpus.run_corpus_sweep` and verify peak memory
    stays **flat across shards** — the bounded-memory contract.

    ``tracemalloc`` tracks Python-level allocations (NumPy registers its
    buffers with it), with the peak reset at every shard boundary via the
    progress callback.  If matrices, derived caches, or memo entries
    leaked across shards, later per-shard peaks would climb;
    ``peak_ratio`` is the max later-shard peak over the first shard's
    peak, and the floor asserted in ``benchmarks/bench_host_executor.py``
    requires it to stay near 1.
    """
    import tracemalloc

    from repro.bench.corpus import dlmc_corpus, run_corpus_sweep
    from repro.core import GESpMM, MergePathSpMM
    from repro.gpusim import GTX_1080TI

    # ~1000 tiny DLMC-style specs: 3 methods x 1 shape x 6 sparsities
    # x enough seeds.  Matrices are 64x64 so the whole stream runs in
    # seconds while still exercising every corpus code path.
    seeds = range(-(-n_specs // 18))  # 18 specs per seed
    specs = list(dlmc_corpus(shapes=((64, 64),), seeds=list(seeds)))[:n_specs]
    shard_size = -(-len(specs) // shards)

    peaks: list = []

    def sample(_idx: int, _total: int, _restored: bool) -> None:
        _cur, peak = tracemalloc.get_traced_memory()
        peaks.append(peak)
        tracemalloc.reset_peak()

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        t0 = time.perf_counter()
        res = run_corpus_sweep(
            specs,
            [GESpMM(), MergePathSpMM()],
            [16],
            [GTX_1080TI],
            shard_size=shard_size,
            memo_limit=memo_limit,
            progress=sample,
        )
        wall_s = time.perf_counter() - t0
    finally:
        if started:
            tracemalloc.stop()
    first = peaks[0] if peaks else 1
    later = max(peaks[1:], default=first)
    return {
        "matrices": res.host.matrices,
        "shards": res.host.shards_total,
        "cells": res.host.cells_computed + res.host.cells_restored,
        "wall_s": wall_s,
        "first_shard_peak_bytes": first,
        "max_later_peak_bytes": later,
        "peak_ratio": later / first if first else float("inf"),
    }


def update_bench_json_host(
    results: Dict[str, Any], path: PathLike = "BENCH_spmm.json"
) -> Optional[Dict[str, Any]]:
    """Record microbench ``results`` under ``run.host.microbench``.

    Rewrites with the same ``indent=2, sort_keys=True`` layout as
    :func:`repro.bench.telemetry.write_bench_json`.  Returns the updated
    document, or None when ``path`` does not exist (fresh checkouts
    without telemetry artifacts: benchmarks still run, nothing to update).
    """
    p = Path(path)
    if not p.exists():
        return None
    doc = json.loads(p.read_text())
    host = doc.setdefault("run", {}).setdefault("host", {})
    host["microbench"] = results
    p.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def format_result_line(name: str, r: Dict[str, Any]) -> Optional[str]:
    """One aligned ``slow xx ms  fast xx ms  N.NNx`` line for any A/B
    microbench dict (``scatter_s``/``segment_s``, ``oracle_s``/
    ``profile_s``, ...); None when ``r`` is not such a dict."""
    if not isinstance(r, dict) or "speedup" not in r:
        return None
    sides = [k for k, v in r.items()
             if k.endswith("_s") and isinstance(v, (int, float))]
    if len(sides) != 2:
        return None
    slow, fast = sorted(sides, key=r.get, reverse=True)
    return (f"{name:15s} {slow[:-2]:8s} {r[slow] * 1e3:8.2f} ms   "
            f"{fast[:-2]:8s} {r[fast] * 1e3:8.2f} ms   {r['speedup']:5.2f}x")
