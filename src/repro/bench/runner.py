"""Benchmark harness utilities shared by the per-table/figure scripts.

Provides the sweep runner (kernels x graphs x feature widths x GPUs),
geometric-mean aggregation (the paper reports geometric means,
Section V-A1), and plain-text table/series rendering so each benchmark
prints rows directly comparable to the paper's artifact.
"""

from __future__ import annotations

import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.bench.diskcache import get_disk_cache
from repro.gpusim.config import GPUSpec
from repro.gpusim.kernel import SpMMKernel
from repro.lru import LRUMemo
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import flops_of_spmm

__all__ = [
    "geomean",
    "KernelResult",
    "SweepHostStats",
    "run_sweep",
    "run_sweep_with_stats",
    "clear_sweep_cache",
    "invalidate_sweep_cells_for",
    "set_sweep_cache_limit",
    "get_sweep_cache_limit",
    "csr_fingerprint",
    "speedup_series",
    "format_table",
    "format_series",
    "bar_chart",
]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's aggregate for per-matrix speedups).

    Non-positive values cannot enter a geometric mean and are dropped —
    but never silently: each drop bumps the ``bench.geomean.dropped``
    counter and emits a ``geomean.dropped_nonpositive`` event, so a
    pathological sweep (a zero/negative speedup) is visible in telemetry
    instead of silently skewing the gate's geomean comparison.
    """
    values = list(values)
    vals = [v for v in values if v > 0]
    dropped = len(values) - len(vals)
    if dropped:
        obs.get_registry().counter("bench.geomean.dropped").inc(dropped)
        obs.event(
            "geomean.dropped_nonpositive",
            dropped=dropped,
            kept=len(vals),
        )
    if not vals:
        return float("nan")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


@dataclass(frozen=True)
class KernelResult:
    """One (kernel, graph, N, GPU) measurement.

    ``attribution`` carries the bottleneck-attribution block of the
    simulated launch (``KernelTiming.attribution()``: binding ceiling,
    per-ceiling breakdown in ms, efficiency factors) — the "why" behind
    ``time_s`` that ``BENCH_spmm.json`` cells and ``repro-bench report``
    surface.  None only for results built by legacy callers.
    """

    kernel: str
    graph: str
    n: int
    gpu: str
    time_s: float
    gflops: float
    attribution: Optional[Dict[str, Any]] = field(default=None, compare=True)


@dataclass(frozen=True)
class SweepHostStats:
    """Host-side (wall-clock) throughput of one ``run_sweep`` call —
    tracking the simulator's own speed, not the simulated devices'."""

    wall_s: float
    cells: int
    jobs: int
    memo_hits: int
    memo_misses: int

    @property
    def cells_per_s(self) -> float:
        return self.cells / self.wall_s if self.wall_s > 0 else float("inf")

    def as_run_meta(self) -> Dict[str, object]:
        """The ``run.host`` metadata block for ``BENCH_spmm.json`` (gate
        ignores ``run``, so this wall-clock data never trips drift)."""
        return {
            "wall_s": self.wall_s,
            "cells": self.cells,
            "cells_per_s": self.cells_per_s,
            "jobs": self.jobs,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
        }


def csr_fingerprint(a: CSRMatrix) -> str:
    """Content hash of a CSR matrix: the graph component of the sweep
    memoization key.  Two structurally identical matrices (same shape,
    structure, and values) share a fingerprint regardless of identity.

    Delegates to :meth:`CSRMatrix.fingerprint`, which caches the digest
    on the (immutable) matrix; kept as a re-export for callers keyed on
    the PR-3 sweep-memo API.
    """
    return a.fingerprint()


#: (kernel.cache_key(), csr_fingerprint, n, gpu.name)
#:   -> (time_s, gflops, attribution)
#: Unbounded by default; ``repro.bench.corpus`` caps it while streaming
#: a corpus.
_SWEEP_CACHE = LRUMemo("sweep.memo")


def clear_sweep_cache() -> None:
    """Drop all memoized sweep cells (for tests and long-lived hosts)."""
    _SWEEP_CACHE.clear()


def invalidate_sweep_cells_for(fingerprint: str) -> int:
    """Drop every memoized sweep cell keyed on one matrix fingerprint.

    The targeted alternative to :func:`clear_sweep_cache` for dynamic
    graphs (``repro.sparse.delta``): only the superseded matrix's cells
    are reclaimed.  Returns the number dropped (also counted as
    ``sweep.memo.invalidations``).
    """
    return _SWEEP_CACHE.invalidate(fingerprint)


def set_sweep_cache_limit(limit: Optional[int]) -> Optional[int]:
    """Cap the sweep memo at ``limit`` cells, LRU-evicting beyond it
    (``sweep.memo.evictions`` counts the drops); ``None`` removes the cap
    (the default).  Returns the previous limit so callers can restore it.
    """
    return _SWEEP_CACHE.set_limit(limit)


def get_sweep_cache_limit() -> Optional[int]:
    """The current sweep-memo cell cap (None = unlimited)."""
    return _SWEEP_CACHE.limit


def _cell_values(
    kernel: SpMMKernel,
    graph: CSRMatrix,
    n: int,
    gpu: GPUSpec,
    memo_key: Optional[tuple],
) -> Tuple[float, float, Optional[Dict[str, Any]], bool]:
    """(time_s, gflops, attribution, was_memo_hit) for one sweep cell.

    Consults the in-process memo first, then — when a disk cache is
    active (``--cache-dir`` / ``REPRO_CACHE_DIR``) — the cross-process
    ``cell`` store under the same content-addressed key.  A disk hit
    counts as a memo hit: the cell was served, not recomputed.
    """
    disk = get_disk_cache() if memo_key is not None else None
    if memo_key is not None:
        hit = _SWEEP_CACHE.get(memo_key)
        if hit is not None:
            return hit[0], hit[1], hit[2], True
        if disk is not None:
            cell = disk.get_cell(memo_key)
            if cell is not None:
                _SWEEP_CACHE.put(memo_key, cell)
                return cell[0], cell[1], cell[2], True
    t = kernel.estimate(graph, n, gpu)
    gflops = t.gflops(flops_of_spmm(graph, n))
    attribution = t.attribution()
    if memo_key is not None:
        _SWEEP_CACHE.put(memo_key, (t.time_s, gflops, attribution))
        if disk is not None:
            disk.put_cell(memo_key, t.time_s, gflops, attribution)
    return t.time_s, gflops, attribution, False


def run_sweep_with_stats(
    kernels: Sequence[SpMMKernel],
    graphs: Dict[str, CSRMatrix],
    widths: Sequence[int],
    gpus: Sequence[GPUSpec],
    progress: Optional[Callable[[str], None]] = None,
    quiet: bool = True,
    jobs: int = 1,
    memoize: bool = True,
) -> Tuple[List[KernelResult], SweepHostStats]:
    """:func:`run_sweep` plus host-side throughput statistics.

    ``jobs > 1`` fans the cell computations out over a thread pool.  The
    result list is byte-identical to the serial one for any ``jobs``:
    cells are indexed up front in serial order, computed in any order,
    and re-assembled by index; each computation is a deterministic pure
    function of ``(kernel config, graph, n, gpu)``.  The tracer is
    detached during the parallel phase (``Tracer`` is not thread-safe)
    and every span/gauge/event is then emitted serially in exactly the
    serial order, from the computed values.

    ``memoize`` consults a process-wide content-addressed cache keyed by
    ``(kernel.cache_key(), csr_fingerprint(graph), n, gpu.name)`` — so
    repeated cells (gate regeneration, repeated benchmark scripts) hit
    memory instead of recomputing.  See ``docs/PERFORMANCE.md``.
    """
    t0 = time.perf_counter()
    registry = obs.get_registry()
    jobs = max(int(jobs), 1)

    prints: Dict[str, str] = (
        {gname: csr_fingerprint(graph) for gname, graph in graphs.items()}
        if memoize
        else {}
    )

    def memo_key(kernel: SpMMKernel, gname: str, n: int, gpu: GPUSpec):
        if not memoize:
            return None
        return (kernel.cache_key(), prints[gname], int(n), gpu.name)

    # Cell work-list in serial emission order.
    cells = [
        (gpu, gname, graph, n, kernel)
        for gpu in gpus
        for gname, graph in graphs.items()
        for n in widths
        for kernel in kernels
    ]

    values: List[Tuple[float, float, Optional[Dict[str, Any]], bool]] = (
        [None] * len(cells)  # type: ignore[list-item]
    )
    if jobs > 1 and len(cells) > 1:
        prev = obs.set_tracer(None)
        try:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                futures = [
                    pool.submit(
                        _cell_values, kernel, graph, n, gpu,
                        memo_key(kernel, gname, n, gpu),
                    )
                    for gpu, gname, graph, n, kernel in cells
                ]
                for i, fut in enumerate(futures):
                    values[i] = fut.result()
        finally:
            obs.set_tracer(prev)

    out: List[KernelResult] = []
    hits = misses = 0
    i = 0
    for gpu in gpus:
        for gname, graph in graphs.items():
            with obs.span("sweep.graph", graph=gname, gpu=gpu.name):
                for n in widths:
                    for kernel in kernels:
                        with obs.span("sweep.cell", kernel=kernel.name, graph=gname,
                                      n=int(n), gpu=gpu.name) as cell:
                            if values[i] is None:
                                values[i] = _cell_values(
                                    kernel, graph, n, gpu,
                                    memo_key(kernel, gname, n, gpu),
                                )
                            time_s, gflops, attribution, was_hit = values[i]
                            i += 1
                            obs.add_sim_time(time_s)
                            if cell is not None:
                                cell.attrs["time_ms"] = time_s * 1e3
                                cell.attrs["gflops"] = gflops
                                if attribution is not None:
                                    cell.attrs["bound_by"] = attribution["bound_by"]
                        hits += was_hit
                        misses += not was_hit
                        labels = dict(kernel=kernel.name, graph=gname, n=int(n),
                                      gpu=gpu.name)
                        registry.gauge("sweep.cell.time_ms", **labels).set(time_s * 1e3)
                        registry.gauge("sweep.cell.gflops", **labels).set(gflops)
                        out.append(
                            KernelResult(
                                kernel=kernel.name,
                                graph=gname,
                                n=n,
                                gpu=gpu.name,
                                time_s=time_s,
                                gflops=gflops,
                                attribution=attribution,
                            )
                        )
            obs.event("sweep.graph.done", graph=gname, gpu=gpu.name)
            if progress:
                progress(gname)
            if not quiet:
                print(f"[sweep] {gname} done on {gpu.name}", file=sys.stderr)
    registry.counter("sweep.memo.hits").inc(hits)
    registry.counter("sweep.memo.misses").inc(misses)
    stats = SweepHostStats(
        wall_s=time.perf_counter() - t0,
        cells=len(cells),
        jobs=jobs,
        memo_hits=hits,
        memo_misses=misses,
    )
    return out, stats


def run_sweep(
    kernels: Sequence[SpMMKernel],
    graphs: Dict[str, CSRMatrix],
    widths: Sequence[int],
    gpus: Sequence[GPUSpec],
    progress: Optional[Callable[[str], None]] = None,
    quiet: bool = True,
    jobs: int = 1,
    memoize: bool = True,
) -> List[KernelResult]:
    """Estimate every kernel on every (graph, N, GPU) combination.

    Every cell runs inside a ``sweep.cell`` span and lands in the metrics
    registry as a series keyed by ``(kernel, graph, n, gpu)``, so a sweep
    is fully reconstructable from ``--trace-out`` / ``--metrics-out``
    dumps.  Progress reporting goes through the span layer (an event per
    finished graph) and additionally through the legacy ``progress``
    callback when one is given; pass ``quiet=False`` to also narrate
    per-graph progress on stderr.  The default is silent, keeping
    benchmark scripts' stdout byte-identical.

    ``jobs`` parallelizes the cell computations (deterministic result
    order for any value) and ``memoize`` reuses previously computed cells
    across calls; see :func:`run_sweep_with_stats` for details and for
    host-side throughput reporting.
    """
    results, _ = run_sweep_with_stats(
        kernels, graphs, widths, gpus,
        progress=progress, quiet=quiet, jobs=jobs, memoize=memoize,
    )
    return results


def speedup_series(
    results: List[KernelResult],
    numerator: str,
    denominator: str,
    gpu: str,
    n: int,
) -> Dict[str, float]:
    """Per-graph speedup of ``denominator``'s time over ``numerator``'s
    (i.e. how much faster ``numerator`` is), for one (GPU, N)."""
    num = {r.graph: r.time_s for r in results if r.kernel == numerator and r.gpu == gpu and r.n == n}
    den = {r.graph: r.time_s for r in results if r.kernel == denominator and r.gpu == gpu and r.n == n}
    return {g: den[g] / num[g] for g in num if g in den and num[g] > 0}


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Render an aligned text table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h) for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("-" * len(header))
    for r in cells:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def format_series(name: str, series: Dict[str, float], fmt: str = "{:.3f}") -> str:
    """Render a named per-graph series on one line per item."""
    lines = [name]
    for k, v in series.items():
        lines.append(f"  {k:28s} {fmt.format(v)}")
    return "\n".join(lines)


def bar_chart(series: Dict[str, float], width: int = 40, unit: Optional[float] = None,
              label: str = "") -> str:
    """ASCII bar chart — the textual rendering of the paper's figures."""
    if not series:
        return "(no data)"
    top = unit or max(series.values())
    if top <= 0:
        top = 1.0
    lines = [label] if label else []
    for k, v in series.items():
        n_bar = max(int(round(width * v / top)), 0)
        lines.append(f"  {k:28s} |{'#' * n_bar}{' ' * (width - n_bar)}| {v:.3f}")
    return "\n".join(lines)
