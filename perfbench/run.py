"""Host benchmark for the repro package: one command, one or all workloads.

    python3 perfbench/run.py --workload stream_delta --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root.  Each workload runs in a fresh worker
process (``worker.py``) with the environment pinned: BLAS threads capped
at the usable core count and glibc's malloc thresholds fixed (see
``README.md``).  The run refuses to start when a ``REPRO_*`` variable
that changes what is measured is set.  Exits non-zero when any op or
check fails; the last stdout line of a single-workload run is its JSON
result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_cold", "train_gcn", "train_sage_pool", "stream_delta")

#: each of these changes what a run measures (tile width, the LLC budget
#: behind the adaptive tile width, an on-disk estimate/sweep cache).
REFUSED_ENV = ("REPRO_TILE_WIDTH", "REPRO_LLC_BYTES", "REPRO_CACHE_DIR")

#: keep temporaries on the brk heap: with glibc's adaptive mmap threshold
#: a process's timings depend on its earlier allocations and turn
#: bimodal (root-caused in benchmarks/bench_delta_updates.py).
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(64 * 1024 * 1024),
    "MALLOC_TRIM_THRESHOLD_": str(64 * 1024 * 1024),
}

#: a run must end within 180 s; the worker is killed a little earlier.
WORKER_TIMEOUT_S = 170


def worker_env() -> dict:
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if not env.get(var, "").isdigit() or int(env[var]) > int(nproc):
            env[var] = nproc
    env.update(MALLOC_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_workload(name: str, args) -> int:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: worker exceeded {WORKER_TIMEOUT_S}s and was killed", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode == 0 and lines:
        try:
            json.loads(lines[-1])
        except ValueError:
            print(f"{name}: worker printed no result", file=sys.stderr)
            return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pinned = [v for v in REFUSED_ENV if os.environ.get(v)]
    if pinned:
        print(f"refusing to run: {', '.join(pinned)} set; unset to measure the "
              "default configuration", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        status = max(status, run_workload(name, args))
    return status


if __name__ == "__main__":
    sys.exit(main())
