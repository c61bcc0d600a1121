"""Host executor — segmented-reduction engine vs. the scatter oracles.

Not a paper table: this measures the *reproduction's own* host execution
engine (``repro.sparse.segment``), which every simulated kernel, sweep
cell and training epoch runs on.  The oracle-ratio timings come from
``host_microbench.py``: each pits a parity oracle from ``tests/oracles/``
against the production path, best-of with interleaved reps:

* plus-/max-semiring ``reference_spmm_like`` (recorded, no floor — the
  raw reduction swap is a modest win on modern NumPy's fast ``ufunc.at``),
* max aggregation forward+backward, asserted **>= 3x** (the argmax
  backward replaces three ``(nnz, N)`` passes with one ``(M, N)``
  bincount),
* max+argmax at N=64 on the hub-heavy power-law graph, the
  jagged-diagonal fold vs. the untiled ``reduceat`` + equality-pass
  argmax, asserted **>= 6x** (typical ~12-13x),
* full-batch GCN training wall-clock, asserted **>= 2x**,
* the cold full-grid analytic ``count()`` pass, oracle array-expansion
  counters vs. the cached AccessProfile closed forms, asserted **>= 3x**
  even though the profile side pays the histogram build every rep,
* a cold-then-warm disk-cached sweep, asserted to recompute **zero**
  estimates on the warm run and reproduce every cell byte for byte,
* incremental ``apply_delta`` vs. a full CSR + profile rebuild on a
  100k-edge power-law graph (a 1% mixed batch), recorded with a soft
  regression guard — the strict 5x floor is ``bench_delta_updates.py``'s,
  which controls allocator state via subprocess isolation,
* a 1000-matrix generator-defined corpus stream in 10 shards, asserting
  the per-shard ``tracemalloc`` peak stays **flat** (later shards within
  2x of the first) — the bounded-memory contract of
  ``repro.bench.corpus.run_corpus_sweep``,
* the column-tiled executor at wide N (256): tiled vs. untiled engine
  body, asserted **>= 1.5x** (typical ~3-4x — the O(nnz*N) contributions
  temporary stops thrashing the LLC),
* the tiled executor's transient peak memory at N=64 vs. N=1024,
  asserted **flat** (wide within 2x of narrow; the untiled ratio ~16x is
  recorded alongside for contrast).  The strict subprocess-isolated
  version of this floor is ``bench_tiled_memory.py``'s.

Results are written to ``benchmarks/results/`` and recorded in
``BENCH_spmm.json`` under ``run.host.microbench``, a block the
regression gate ignores (it diffs simulated cells/geomeans only), so
host timing noise can never fail ``make gate``.
"""

from pathlib import Path

from host_microbench import run_host_microbench
from repro.bench.hostbench import format_result_line, update_bench_json_host

#: Asserted floors (see ISSUE/docs): generous margin below the typical
#: measurements (~3.2-3.4x, ~2.5-2.8x, and >10x for the counting grid)
#: to absorb machine noise.
MIN_AGGREGATE_MAX_SPEEDUP = 3.0
#: The max/min fold with its inline argmax vs. the untiled reduceat and
#: equality-pass argmax (typical ~12-13x at N=64; about half of that).
MIN_MAX_ARGMAX_SPEEDUP = 6.0
MIN_GCN_TRAIN_SPEEDUP = 2.0
MIN_COUNT_GRID_SPEEDUP = 3.0
#: Regression guard only — the strict >=5x ISSUE floor lives in
#: ``bench_delta_updates.py``, which measures in a fresh subprocess.
#: Here ``delta_apply`` runs first inside ``run_host_microbench`` (so
#: ``make microbench`` sees a fresh heap, ~6.5x), but under
#: ``pytest benchmarks/`` earlier bench files dirty the allocator and
#: the incremental side pays a persistent page-fault tax (~3.9x).
MIN_DELTA_APPLY_GUARD = 3.0
#: Per-shard peak memory of the corpus stream must stay flat: later
#: shards within 2x of the first (typical ~1.1-1.3x from registry/label
#: growth; a matrix or memo leak across shards pushes it well past 2).
MAX_CORPUS_PEAK_RATIO = 2.0
#: Column-tiled executor at N=256 vs. the untiled engine body (typical
#: ~3-4x on the 400k-edge power-law graph; generous margin for noise).
MIN_TILED_WIDE_SPEEDUP = 1.5
#: Tiled transient peak at N=1024 vs. N=64 must stay flat (typical
#: ~1.0x: the workspace is O(rows*T) regardless of N; the untiled ratio
#: is ~16x on the same graph).
MAX_TILED_PEAK_RATIO = 2.0

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_spmm.json"


def _format(results) -> str:
    lines = []
    for name, r in results.items():
        line = format_result_line(name, r)
        lines.append(line if line else f"{name}: {r}")
    return "\n".join(lines)


def test_host_executor_microbench(benchmark, emit):
    results = benchmark.pedantic(run_host_microbench, rounds=1, iterations=1)
    emit("host_executor", _format(results))
    update_bench_json_host(results, BENCH_JSON)

    agg = results["aggregate_max"]["speedup"]
    fold = results["max_argmax"]["speedup"]
    gcn = results["gcn_train"]["speedup"]
    grid = results["count_grid"]["speedup"]
    assert agg >= MIN_AGGREGATE_MAX_SPEEDUP, (
        f"max-aggregation path speedup {agg:.2f}x below the "
        f"{MIN_AGGREGATE_MAX_SPEEDUP}x floor"
    )
    assert fold >= MIN_MAX_ARGMAX_SPEEDUP, (
        f"max+argmax fold speedup {fold:.2f}x below the "
        f"{MIN_MAX_ARGMAX_SPEEDUP}x floor"
    )
    assert gcn >= MIN_GCN_TRAIN_SPEEDUP, (
        f"GCN training speedup {gcn:.2f}x below the {MIN_GCN_TRAIN_SPEEDUP}x floor"
    )
    assert grid >= MIN_COUNT_GRID_SPEEDUP, (
        f"profile counting speedup {grid:.2f}x below the "
        f"{MIN_COUNT_GRID_SPEEDUP}x floor"
    )
    # Disk-cached sweep: the warm run must be a pure replay.
    dc = results["disk_cache"]
    assert dc["warm_memo_misses"] == 0, (
        f"warm disk-cached sweep recomputed {dc['warm_memo_misses']} cells"
    )
    assert dc["byte_identical"], "warm disk-cached sweep diverged from cold run"
    assert dc["disk_invalidations"] == 0
    # Corpus stream: >=1000 matrices, peak RSS flat across shards.
    cs = results["corpus_stream"]
    assert cs["matrices"] >= 1000, f"corpus too small: {cs['matrices']}"
    assert cs["peak_ratio"] <= MAX_CORPUS_PEAK_RATIO, (
        f"corpus-stream per-shard peak grew {cs['peak_ratio']:.2f}x over the "
        f"first shard (cap {MAX_CORPUS_PEAK_RATIO}x) — matrices, derived "
        f"caches, or memo entries are leaking across shard boundaries"
    )
    # Incremental delta application vs. full rebuild (see the guard's
    # comment; the strict 5x floor is bench_delta_updates.py's).
    da = results["delta_apply"]
    assert da["parity"], "delta_apply diverged from the rebuild oracle"
    assert da["speedup"] >= MIN_DELTA_APPLY_GUARD, (
        f"incremental delta apply speedup {da['speedup']:.2f}x below the "
        f"{MIN_DELTA_APPLY_GUARD}x regression guard"
    )
    # Column-tiled executor: wide-N throughput and flat peak memory.
    ts = results["tiled_spmm"]["speedup"]
    assert ts >= MIN_TILED_WIDE_SPEEDUP, (
        f"tiled wide-N SpMM speedup {ts:.2f}x below the "
        f"{MIN_TILED_WIDE_SPEEDUP}x floor (N={results['tiled_spmm']['n']}, "
        f"tile={results['tiled_spmm']['tile_width']})"
    )
    tp = results["tiled_peak"]
    assert tp["tiled"]["peak_ratio"] <= MAX_TILED_PEAK_RATIO, (
        f"tiled SpMM transient peak grew {tp['tiled']['peak_ratio']:.2f}x "
        f"from N={tp['narrow_n']} to N={tp['wide_n']} (cap "
        f"{MAX_TILED_PEAK_RATIO}x) — the workspace is no longer O(rows*T)"
    )
    # The raw reduction swaps must at least not regress.
    assert results["spmm_plus"]["speedup"] >= 0.9
    assert results["spmm_max"]["speedup"] >= 0.8
