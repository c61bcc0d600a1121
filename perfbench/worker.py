"""Run one workload in this (fresh) process and print its metrics.

Started by ``run.py``, which pins the environment first; see
``perfbench/README.md``.  The last stdout line is the JSON result.
"""

import time

_T0 = time.perf_counter()
import repro  # noqa: E402,F401  (timed: repro.import_s)
import repro.bench  # noqa: E402,F401
import repro.datasets  # noqa: E402,F401
import repro.gnn  # noqa: E402,F401
import repro.sparse.delta  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from layers import Trace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: set-up repetitions whose median ``setup_s`` reports (1 when traced:
#: the traced run reports no set-up time).
SETUP_REPS = 3
#: a run measures at least this many ops, however slow they are (a traced
#: run: a warm-up pair, a traced pair and an untraced pair).
MIN_OPS = 6
#: the median time of one :class:`HostProbe` call on the reference host
#: (2-vCPU Xeon VM, 2.0 GHz nominal, 105 MiB shared L3).
PROBE_REF_S = 0.0110


class HostProbe:
    """Times a fixed computation that never calls the program.

    The host's cores and caches are shared with other tenants, and its
    speed drifts by 20-30% over minutes (turbo clock and cache/memory
    contention), which moves every op of a run alike: ten runs of the
    same code spread wider than the bounds allow.  Timed just before each
    op (untimed itself), this probe gives the host's speed at that
    moment, and :meth:`scale` turns a wall time into reference-host time.
    It mixes what the workloads spend their time on: a sort, an
    interpreter loop, a streaming sum past the L2 and a random gather.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.keys = rng.integers(0, 1 << 40, 200_000)
        self.stream = rng.standard_normal(1 << 20)  # 8 MiB
        self.index = rng.integers(0, self.stream.size, 200_000)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        np.sort(self.keys)
        acc = 0
        for i in range(40_000):
            acc += i * i % 7
        self.stream.sum()
        self.stream[self.index].sum()
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Reference-host seconds per wall second, right now."""
        return PROBE_REF_S / self()


def blas_threads():
    """OpenBLAS's own thread count, or None if numpy's BLAS is not the
    bundled OpenBLAS."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")},
    }


def run_ops(w, seconds: float, trace: bool, probe: HostProbe):
    """The closed loop.  Each op is preceded, untimed, by a host probe;
    ``speeds`` holds its scale factor for every untimed-loop latency in
    ``plain``.  When traced, the first pair of ops is a warm-up
    that counts in neither group; after it every other pair runs under a
    :class:`Trace` and the others stay untraced for the overhead figure
    (pairs, so that both epochs of a training cycle run both ways).  A
    traced run also collects garbage before every op, untimed: otherwise
    the collections the tracing bookkeeping triggers between traced ops
    land inside untraced ones and skew the overhead figure."""
    plain, speeds, traced, rows = [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted < MIN_OPS or time.perf_counter() < deadline:
        speed = probe.scale()
        inp = w.op_input(attempted)
        if trace:
            gc.collect()
        pair = attempted // 2
        tracing = trace and pair % 2 == 1
        ctx = Trace() if tracing else nullcontext()
        err = out = None
        with ctx:
            t0 = time.perf_counter()
            try:
                out = w.op(inp)
            except Exception:
                err = traceback.format_exc()
            latency = time.perf_counter() - t0
        attempted += 1
        if err is None:
            if tracing:
                traced.append(latency)
            elif not (trace and pair == 0):
                plain.append(latency)
                speeds.append(speed)
            err = w.check(inp, out)
            if tracing:
                row = ctx.summary()
                row["scipy_plus_ms"] = ctx.scipy_plus_ms()
                row.update(w.replay(out))
                rows.append(row)
            w.release(out)
        if err is not None:
            failed += 1
            print(f"op {attempted - 1} failed: {err}", file=sys.stderr)
        del out, ctx
    return plain, speeds, traced, rows, attempted, failed


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(rows, plain, traced) -> dict:
    """Per-layer metrics: medians over traced ops of per-op values, and
    ratios of counter deltas summed over the traced ops.  A layer the
    workload's op never calls reads 0."""

    def med(fn) -> float:
        return _median([fn(r) for r in rows])

    def get(key):
        return lambda r: r.get(key, 0.0)

    def total(key) -> float:
        return sum(r.get(key, 0.0) for r in rows)

    return {
        "repro.import_s": (IMPORT_S, "s"),
        "sparse.generators.build_ms": (med(get("incl_ms.generators.build")), "ms"),
        "sparse.csr.from_coo_ms": (med(get("replay.from_coo_ms")), "ms"),
        "sparse.csr.derived_ms": (med(get("replay.derived_ms")), "ms"),
        "core.count_ms": (med(get("self_ms.core.count")), "ms"),
        "access_profile.hit_ratio": (_ratio(total("access_profile.hits"), total(
            "access_profile.hits") + total("access_profile.misses")), "ratio"),
        "gpusim.estimate_ms": (med(get("incl_ms.gpusim.estimate")), "ms"),
        "gpusim.timing_self_ms": (med(get("self_ms.gpusim.estimate")), "ms"),
        "kernel.estimate_memo.hit_ratio": (_ratio(total("kernel.estimate_memo.hits"), total(
            "kernel.estimate_memo.hits") + total("kernel.estimate_memo.misses")), "ratio"),
        "bench.runner.self_ms": (med(get("self_ms.bench.runner")), "ms"),
        "sweep.cells_per_s": (med(lambda r: _ratio(
            r.get("cells", 0.0), r.get("incl_ms.bench.runner.sweep", 0.0) / 1e3)), "1/s"),
        "segment.plus_ms": (med(get("self_ms.segment.plus")), "ms"),
        "segment.plus_gflops": (med(lambda r: _ratio(
            r["plus_flops"], r.get("self_ms.segment.plus", 0.0) * 1e6)), "GFLOP/s"),
        "segment.plus_over_scipy": (med(lambda r: _ratio(
            r.get("self_ms.segment.plus", 0.0), r["scipy_plus_ms"])), "ratio"),
        "segment.max_argmax_ms": (med(get("self_ms.segment.max_argmax")), "ms"),
        "segment.workspace_reuse_ratio": (_ratio(total("segment.workspace.reuses"), total(
            "segment.workspace.reuses") + total("segment.workspace.allocs")), "ratio"),
        "gnn.forward_ms": (med(get("self_ms.gnn.forward")), "ms"),
        "gnn.backward_ms": (med(get("self_ms.gnn.backward")), "ms"),
        "gnn.optimizer_ms": (med(get("self_ms.gnn.optimizer")), "ms"),
        "gnn.aggregate_sum_ms": (med(get("incl_ms.gnn.aggregate_sum")), "ms"),
        "gnn.aggregate_max_ms": (med(get("incl_ms.gnn.aggregate_max")), "ms"),
        "delta.apply_ms": (med(get("incl_ms.delta.apply")), "ms"),
        "delta.invalidate_ms": (med(get("incl_ms.delta.invalidate")), "ms"),
        "delta.rows_touched": (med(get("delta.rows_touched")), "count"),
        "obs.trace_overhead_pct": (
            (_ratio(_median(traced), _median(plain)) - 1.0) * 100.0, "%"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    print("env " + json.dumps(environment(args), sort_keys=True))

    probe = HostProbe()
    setup_speeds = [probe.scale()]
    t0 = time.perf_counter()
    w.build(args.seed)
    build_s = time.perf_counter() - t0
    prepare_s = []
    for _ in range(1 if args.trace else SETUP_REPS):
        t0 = time.perf_counter()
        w.prepare()
        prepare_s.append(time.perf_counter() - t0)
        setup_speeds.append(probe.scale())
    w.reset()
    setup_wall_s = IMPORT_S + build_s + statistics.median(prepare_s)

    plain, speeds, traced, rows, attempted, failed = run_ops(
        w, args.seconds, bool(args.trace), probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        errors = w.final_check()
    except Exception:
        errors = [traceback.format_exc()]
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    if errors:
        failed = attempted  # a failed run-level check taints every op

    # End-to-end times are in reference-host time (see HostProbe).
    scaled = [t * k for t, k in zip(plain, speeds)]
    if args.trace:
        metrics = layer_metrics(rows, plain, traced)
    else:
        metrics = {
            "op_p50_ms": (_median(scaled) * 1e3, "ms"),
            "ops_per_s": (_ratio(len(scaled), sum(scaled)), "1/s"),
            "setup_s": (setup_wall_s * statistics.median(setup_speeds), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_rate": ((attempted - failed) / attempted, "ratio"),
        }
    q = statistics.quantiles(plain, n=4) if len(plain) > 1 else (plain or [0.0]) * 3
    print(f"{w.name}: {attempted} ops attempted, {failed} failed, "
          f"{len(plain)} untraced / {len(traced)} traced timed; untraced latency "
          f"p25/p50/p75 {q[0] * 1e3:.1f}/{q[1] * 1e3:.1f}/{q[2] * 1e3:.1f} ms wall; "
          f"set-up {setup_wall_s:.3f} s wall; host speed vs reference "
          f"{_median(speeds):.3f} (median over ops)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
