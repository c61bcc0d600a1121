"""Column-tiled executor: strict peak-memory and throughput floors.

Not a paper table: this measures the reproduction's tiled host executor
(``repro.sparse.segment``) — the host analogue of GE-SpMM's
Coarse-grained Warp Merging, where each loaded sparse row is reused
across feature tiles so the transient footprint is O(rows*T) instead of
O(nnz*N).

Both measurements run in a **fresh subprocess with glibc's malloc
thresholds pinned high** (``MALLOC_MMAP_THRESHOLD_`` /
``MALLOC_TRIM_THRESHOLD_``), the same allocator discipline as
``bench_delta_updates.py``: the in-process variants recorded by
``bench_host_executor.py`` run after other benches have dirtied the
heap, so their guards are softer.  Here the floors are the ISSUE
contract, strict:

* ``tracemalloc`` transient peak of one SpMM at N=1024 on a 100k-edge
  power-law graph within **2x** of the N=64 peak (operand and output
  preallocated outside the traced window, workspace pool cleared per
  measurement so each width pays its own allocation; the untiled ratio
  on the same graph is ~16x),
* tiled vs. untiled wide-N (256) throughput at least **1.5x** (typical
  ~3-4x).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

#: ISSUE contract: the tiled executor's transient peak must be flat in
#: N (typical ratio ~1.0; the untiled path's is ~16x at these widths).
MAX_TILED_PEAK_RATIO = 2.0
#: ISSUE contract: >= 1.5x at N >= 256 over the untiled engine body
#: (typical fresh-heap measurements are 3-4x).
MIN_TILED_WIDE_SPEEDUP = 1.5

#: One fresh re-measurement absorbs ambient-load transients on the
#: throughput side without softening the floor (the peak-memory side is
#: deterministic, allocator noise cannot move tracemalloc's accounting).
RETRIES = 1

#: Pin glibc's adaptive thresholds (see ``bench_delta_updates.py``):
#: temporaries stay on the brk heap instead of round-tripping pages
#: through mmap between reps.
_MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(64 * 1024 * 1024),
    "MALLOC_TRIM_THRESHOLD_": str(64 * 1024 * 1024),
}

_CHILD = """\
import json
from host_microbench import bench_tiled_peak, bench_tiled_spmm
print(json.dumps({
    "peak": bench_tiled_peak(),
    "spmm": bench_tiled_spmm(),
}))
"""


#: The child imports ``host_microbench`` (this directory), ``repro``
#: (``src``) and the oracles it times against (``tests.oracles``).
_HERE = Path(__file__).resolve().parent
_CHILD_PATH = [str(_HERE), str(_HERE.parent), str(_HERE.parent / "src")]


def _measure_fresh() -> dict:
    path = os.pathsep.join(_CHILD_PATH + [os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, **_MALLOC_ENV, "PYTHONPATH": path}
    best = None
    for _ in range(1 + RETRIES):
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        r = json.loads(proc.stdout.splitlines()[-1])
        if best is None or r["spmm"]["speedup"] > best["spmm"]["speedup"]:
            best = r
        if best["spmm"]["speedup"] >= MIN_TILED_WIDE_SPEEDUP:
            break
    return best


def _format(r: dict) -> str:
    peak, spmm = r["peak"], r["spmm"]
    mib = lambda b: b / (1024 * 1024)
    return "\n".join(
        [
            f"peak  N {peak['narrow_n']:>4} -> {peak['wide_n']:>4}   "
            f"tiled {mib(peak['tiled']['narrow_peak_bytes']):6.1f} -> "
            f"{mib(peak['tiled']['wide_peak_bytes']):6.1f} MiB "
            f"({peak['tiled']['peak_ratio']:.2f}x)   "
            f"untiled {mib(peak['untiled']['narrow_peak_bytes']):6.1f} -> "
            f"{mib(peak['untiled']['wide_peak_bytes']):6.1f} MiB "
            f"({peak['untiled']['peak_ratio']:.2f}x)",
            f"spmm  N {spmm['n']}  tile {spmm['tile_width']}   "
            f"untiled {spmm['untiled_s'] * 1e3:8.2f} ms   "
            f"tiled {spmm['tiled_s'] * 1e3:8.2f} ms   "
            f"{spmm['speedup']:5.2f}x",
        ]
    )


def test_tiled_memory_and_throughput_floors(benchmark, emit):
    r = benchmark.pedantic(_measure_fresh, rounds=1, iterations=1)
    emit("tiled_memory", _format(r))

    peak = r["peak"]["tiled"]["peak_ratio"]
    assert peak <= MAX_TILED_PEAK_RATIO, (
        f"tiled SpMM transient peak grew {peak:.2f}x from "
        f"N={r['peak']['narrow_n']} to N={r['peak']['wide_n']} (cap "
        f"{MAX_TILED_PEAK_RATIO}x) — the workspace is no longer O(rows*T)"
    )
    # The untiled contrast must actually show the problem being solved:
    # if it is also flat, the measurement stopped measuring anything.
    assert r["peak"]["untiled"]["peak_ratio"] >= 4.0, r["peak"]
    speedup = r["spmm"]["speedup"]
    assert speedup >= MIN_TILED_WIDE_SPEEDUP, (
        f"tiled wide-N SpMM speedup {speedup:.2f}x below the "
        f"{MIN_TILED_WIDE_SPEEDUP}x floor (N={r['spmm']['n']}, "
        f"tile={r['spmm']['tile_width']})"
    )
