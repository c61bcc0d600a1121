"""The four workloads: inputs from the seed, the op, and its checks.

Each workload is a closed loop with one client: the worker calls
:meth:`op_input` (untimed), :meth:`op` (timed), then :meth:`check`
(untimed).  Set-up is :meth:`build` once (the inputs the program
memoizes or that take one build) followed by :meth:`prepare` several
times (model init + warm-up ops); :meth:`final_check` runs after the
timed loop.  Everything is driven through public entry points of
``repro``.  See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import json
import math
import time
import zlib
from pathlib import Path
from typing import Any, List, Optional

import numpy as np

from layers import counter_totals
from repro import obs
from repro.baselines import CusparseCsrmm2, GraphBlastRowSplit
from repro.bench.runner import clear_sweep_cache, run_sweep_with_stats
from repro.core import GESpMM, MergePathSpMM
from repro.datasets.citation import load_citation
from repro.datasets.snap import SNAP_CATALOG, catalog_names, load_suite
from repro.gnn import GCN, Adam, DGLBackend, GraphPair, GraphSAGE, SimDevice, Tensor
from repro.gnn import functional as F
from repro.gpusim import GTX_1080TI
from repro.gpusim.kernel import clear_estimate_memo
from repro.semiring import PLUS_TIMES
from repro.sparse import csr_from_coo, reference_spmm_like
from repro.sparse.delta import EdgeDelta, apply_delta, invalidate_matrix_caches
from repro.sparse.generators import banded_random, power_law, rmat, uniform_random
from repro.sparse.segment import segment_max_with_argmax

ROOT = Path(__file__).resolve().parent.parent

#: |C - C_ref| <= SPMM_RTOL * (|A| @ |B|) + SPMM_ATOL elementwise, with
#: C_ref in float64.  float32 row sums drift by about sqrt(row length)
#: ulps; 1e-4 of the absolute sum leaves a wide margin even on hub rows.
SPMM_RTOL = 1e-4
SPMM_ATOL = 1e-6
#: every timed epoch's loss must match the same epoch of the untimed
#: reference run to this relative tolerance.
LOSS_RTOL = 1e-5


def spmm_error(a, b: np.ndarray, c: np.ndarray) -> Optional[str]:
    """None if ``c`` is ``a @ b`` within the stated tolerance (SciPy floor)."""
    s = a.to_scipy().astype(np.float64)
    b64 = b.astype(np.float64)
    ref = s @ b64
    bound = SPMM_RTOL * (abs(s) @ np.abs(b64)) + SPMM_ATOL
    bad = np.abs(c - ref) > bound
    if bad.any():
        return f"plus-times SpMM differs from SciPy at {int(bad.sum())} cells"
    return None


def max_error(a, b: np.ndarray, out: np.ndarray, argmax: np.ndarray) -> Optional[str]:
    """None if ``(out, argmax)`` is the max-times reduction of ``a`` and
    ``b``, recomputed row by row as a dense max over each row's terms."""
    rowptr, cols, vals = a.rowptr, a.colind, a.values
    for i in range(a.nrows):
        lo, hi = rowptr[i], rowptr[i + 1]
        if lo == hi:
            if not (np.isneginf(out[i]).all() and (argmax[i] == -1).all()):
                return f"empty row {i} has a max-times value"
            continue
        terms = vals[lo:hi, None] * b[cols[lo:hi]]
        if not np.array_equal(out[i], terms.max(axis=0)):
            return f"max-times row {i} differs from the dense reduction"
        first = lo + terms.argmax(axis=0)
        if not np.array_equal(argmax[i], first):
            return f"argmax row {i} is not the first maximizer"
    return None


class Workload:
    name = ""
    warmup_ops = 1

    def build(self, seed: int) -> None:
        """One-time input build (timed into set-up)."""

    def prepare(self) -> None:
        """Model init + warm-up ops (timed into set-up, repeated)."""
        self.reset()
        for i in range(self.warmup_ops):
            out = self.op(self.op_input(-1 - i))
            self.release(out)

    def reset(self) -> None:
        """Fresh model/state for the timed loop."""

    def op_input(self, i: int) -> Any:
        return i

    def op(self, inp: Any) -> Any:
        raise NotImplementedError

    def check(self, inp: Any, out: Any) -> Optional[str]:
        return None

    def release(self, out: Any) -> None:
        """Drop what one op left behind (untimed)."""

    def replay(self, out: Any) -> dict:
        """Traced run only: replays that time a layer from outside."""
        return {}

    def final_check(self) -> List[str]:
        return []


# ---------------------------------------------------------------------
# sweep_cold
# ---------------------------------------------------------------------
SWEEP_GRAPHS = 6
SWEEP_N = (128, 512)
SWEEP_MAX_NNZ = 300_000


def snap_stand_in(name: str, seed: int, max_nnz: int = SWEEP_MAX_NNZ):
    """One SNAP stand-in built straight through ``sparse.generators``,
    with the sizing and family dispatch of ``datasets.snap.load_graph``
    but without its memo, so a fresh seed costs a fresh build."""
    e = next(e for e in SNAP_CATALOG if e.name == name)
    scale = max_nnz / e.nnz if e.nnz > max_nnz else 1.0
    m = max(int(e.m * scale), 64)
    nnz = max(int(e.nnz * scale), m)
    gseed = seed + (zlib.crc32(name.encode()) % 100003)
    if e.family in ("social", "web", "comm"):
        return power_law(m, nnz, exponent=2.1, seed=gseed)
    if e.family == "road":
        return banded_random(m, nnz, bandwidth=max(m // 500, 4), seed=gseed)
    if e.family == "p2p":
        return uniform_random(m, nnz, seed=gseed)
    scale_bits = max(int(m - 1).bit_length(), 6)
    return rmat(scale_bits, edge_factor=max(nnz // (1 << scale_bits), 1), seed=gseed)


class SweepCold(Workload):
    """``repro-bench sweep --graphs 6 --n 128 512 --jobs 1`` as a cold
    process pays it: build the six stand-ins, then sweep four kernels."""

    name = "sweep_cold"

    def build(self, seed: int) -> None:
        self.seed = seed
        self.names = catalog_names()[:SWEEP_GRAPHS]
        self.kernels = [GraphBlastRowSplit(), CusparseCsrmm2(), MergePathSpMM(), GESpMM()]

    def op_input(self, i: int):
        # Graph seeds are never the committed suite's (11) and never repeat
        # within a run, so no estimate, sweep or twin memo can serve a cell.
        return 1_000 + 100_000 * self.seed + i, _memo_hits()

    def op(self, inp):
        seed = inp[0]
        with obs.span("generators.build"):
            graphs = {name: snap_stand_in(name, seed) for name in self.names}
        with obs.span("bench.runner.sweep"):
            results, stats = run_sweep_with_stats(
                self.kernels, graphs, SWEEP_N, [GTX_1080TI], jobs=1
            )
        return graphs, results, stats

    def check(self, inp, out) -> Optional[str]:
        graphs, results, stats = out
        if len(results) != len(self.kernels) * len(graphs) * len(SWEEP_N):
            return f"sweep returned {len(results)} cells"
        if stats.memo_hits or _memo_hits() > inp[1]:
            return "a memo served a cell of a cold sweep"
        for r in results:
            if not (math.isfinite(r.time_s) and r.time_s > 0 and math.isfinite(r.gflops)):
                return f"bad cell {r.kernel}/{r.graph}/{r.n}: {r.time_s}"
        return None

    def release(self, out) -> None:
        # A cold process starts with empty memos; clearing them also keeps
        # memory flat over the run.
        clear_sweep_cache()
        clear_estimate_memo()

    def replay(self, out) -> dict:
        graphs = out[0]
        rng = np.random.default_rng(0)
        from_coo = derived = 0.0
        for g in graphs.values():
            rows, cols, vals = g.to_coo()
            order = rng.permutation(rows.size)  # generators hand over unsorted edges
            rows, cols, vals = rows[order], cols[order], vals[order]
            t0 = time.perf_counter()
            fresh = csr_from_coo(rows, cols, vals, shape=g.shape, sum_duplicates=True)
            t1 = time.perf_counter()
            fresh.fingerprint(), fresh.rowptr64(), fresh.row_lengths()
            fresh.colind64(), fresh.coo_rows()
            t2 = time.perf_counter()
            from_coo += t1 - t0
            derived += t2 - t1
        return {"replay.from_coo_ms": from_coo * 1e3, "replay.derived_ms": derived * 1e3}

    def final_check(self) -> List[str]:
        """The committed suite must reproduce BENCH_spmm.json's cells."""
        doc = json.loads((ROOT / "BENCH_spmm.json").read_text())
        committed = {(c["kernel"], c["graph"], c["n"], c["gpu"]): c for c in doc["cells"]}
        suite = load_suite(max_nnz=SWEEP_MAX_NNZ, names=self.names)
        results, _ = run_sweep_with_stats(self.kernels, suite, SWEEP_N, [GTX_1080TI])
        errors = []
        for r in results:
            c = committed.get((r.kernel, r.graph, r.n, r.gpu))
            if c is None or not (math.isclose(c["time_ms"], r.time_s * 1e3, rel_tol=1e-9)
                                 and math.isclose(c["gflops"], r.gflops, rel_tol=1e-9)):
                errors.append(f"cell {r.kernel}/{r.graph}/{r.n} differs from BENCH_spmm.json")
        return errors


def _memo_hits() -> float:
    return counter_totals(("kernel.estimate_memo.hits",))["kernel.estimate_memo.hits"]


# ---------------------------------------------------------------------
# train_gcn / train_sage_pool
# ---------------------------------------------------------------------
class Train(Workload):
    """One full-graph training epoch per op (forward, backward, Adam).

    Training restarts from the seeded initial model every
    ``warmup_ops`` epochs, untimed, so every op repeats one of the same
    epochs: the work per op stays the same however many ops a run fits,
    and every loss can be checked against the reference run.
    """

    warmup_ops = 2  # the untimed reference run's length and the cycle length

    def __init__(self, name: str, dataset: str, make_model, check_width: int):
        self.name = name
        self.dataset = dataset
        self.make_model = make_model
        self.check_width = check_width
        self.references: List[List[float]] = []

    def build(self, seed: int) -> None:
        self.seed = seed
        # The repository's canonical twin: the seed varies the model's
        # initial weights and dropout masks, not the graph.
        self.ds = load_citation(self.dataset)
        self.g = GraphPair(self.ds.graph)
        self.x = Tensor(self.ds.features)

    def reset(self) -> None:
        self.backend = DGLBackend(SimDevice(), use_gespmm=True)
        self.model = self.make_model(self.ds, np.random.default_rng(self.seed))
        self.opt = Adam(self.model.parameters(), lr=0.01)
        self.rng = np.random.default_rng(self.seed + 1)

    def prepare(self) -> None:
        self.reset()
        self.references.append([self.op(-1 - i) for i in range(self.warmup_ops)])

    def op_input(self, i: int) -> int:
        if i >= 0 and i % self.warmup_ops == 0:
            self.reset()
        return i

    def op(self, i: int) -> float:
        with obs.span("gnn.optimizer"):
            self.opt.zero_grad()
        with obs.span("gnn.forward"):
            log_probs = self.model(self.backend, self.g, self.x, rng=self.rng)
            loss = F.nll_loss(log_probs, self.ds.labels, self.backend.device,
                              mask=self.ds.train_mask)
        with obs.span("gnn.backward"):
            loss.backward()
        with obs.span("gnn.optimizer"):
            self.opt.step()
        return float(loss.data)

    def check(self, i, loss) -> Optional[str]:
        ref = self.references[0][i % self.warmup_ops]
        if not (math.isfinite(loss) and math.isclose(loss, ref, rel_tol=LOSS_RTOL)):
            return f"epoch {i % self.warmup_ops} loss {loss} != reference {ref}"
        return None

    def final_check(self) -> List[str]:
        errors = []
        if any(r != self.references[0] for r in self.references):
            errors.append("set-up reference runs disagree")
        b = np.random.default_rng(self.seed + 2).standard_normal(
            (self.ds.n_nodes, self.check_width)).astype(np.float32)
        if isinstance(self.model, GCN):
            adj = self.g.sym_normalized_with_loops().adj
            err = spmm_error(adj, b, reference_spmm_like(adj, b, PLUS_TIMES))
        else:
            b = np.maximum(b, 0)  # pool messages are ReLU outputs
            err = max_error(self.g.adj, b, *segment_max_with_argmax(self.g.adj, b))
        return errors + ([err] if err else [])


def _gcn(ds, rng):
    return GCN(ds.feature_dim, 128, ds.n_classes, n_layers=2, rng=rng)


def _sage_pool(ds, rng):
    return GraphSAGE(ds.feature_dim, 16, ds.n_classes, aggregator="pool", rng=rng)


# ---------------------------------------------------------------------
# stream_delta
# ---------------------------------------------------------------------
STREAM_M = 100_000
STREAM_NNZ = 1_200_000  # requested; duplicates merge to about 0.99M
STREAM_BATCH = 0.005  # share of nnz per delta
STREAM_N = 16
STREAM_REBUILD_CHECKS = 3  # successors checked against a scratch build


class StreamDelta(Workload):
    """Apply a mixed delta, drop the old version's caches, re-estimate the
    successor and aggregate over it at N=16."""

    name = "stream_delta"
    warmup_ops = 2

    def build(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.a = power_law(STREAM_M, STREAM_NNZ, seed=seed)
        self.b = self.rng.standard_normal((self.a.ncols, STREAM_N)).astype(np.float32)
        self.kernel = GESpMM()
        self.kernel.estimate(self.a, STREAM_N, GTX_1080TI)
        self.checked = 0

    def op_input(self, i: int) -> EdgeDelta:
        a, rng = self.a, self.rng
        third = int(STREAM_BATCH * a.nnz) // 3
        rows, cols = a.coo_rows(), a.colind64()
        picked = rng.choice(a.nnz, size=2 * third, replace=False)
        dele, upd = picked[:third], picked[third:]
        keys = rows * a.ncols + cols  # sorted: canonical CSR
        cand = np.unique(rng.integers(0, a.nrows * a.ncols, size=2 * third))
        pos = np.minimum(np.searchsorted(keys, cand), keys.size - 1)
        ins = rng.permutation(cand[keys[pos] != cand])[:third]
        return EdgeDelta.new(
            inserts=(ins // a.ncols, ins % a.ncols,
                     rng.standard_normal(ins.size).astype(np.float32)),
            deletes=(rows[dele], cols[dele]),
            updates=(rows[upd], cols[upd], rng.standard_normal(third).astype(np.float32)),
        )

    def op(self, delta: EdgeDelta):
        old = self.a
        with obs.span("delta.apply"):
            new = apply_delta(old, delta)
        with obs.span("delta.invalidate"):
            invalidate_matrix_caches(old)
        timing = self.kernel.estimate(new, STREAM_N, GTX_1080TI)
        c = reference_spmm_like(new, self.b, PLUS_TIMES)
        self.a = new
        return old, new, timing, c

    def check(self, delta, out) -> Optional[str]:
        old, new, timing, c = out
        if not (math.isfinite(timing.time_s) and timing.time_s > 0):
            return f"bad estimate {timing.time_s}"
        err = spmm_error(new, self.b, c)
        if err or self.checked >= STREAM_REBUILD_CHECKS:
            return err
        self.checked += 1
        return rebuild_error(old, delta, new)


def rebuild_error(old, delta: EdgeDelta, new) -> Optional[str]:
    """None if ``new`` equals a from-scratch ``csr_from_coo`` build of the
    edge set ``old`` + ``delta`` describes."""
    k = old.ncols
    rows, cols, vals = old.to_coo()
    keys = rows.astype(np.int64) * k + cols
    vals = vals.copy()
    upd = np.searchsorted(keys, delta.update_rows * k + delta.update_cols)
    vals[upd] = delta.update_values
    keep = ~np.isin(keys, delta.delete_rows * k + delta.delete_cols)
    scratch = csr_from_coo(
        np.concatenate([rows[keep], delta.insert_rows]),
        np.concatenate([cols[keep], delta.insert_cols]),
        np.concatenate([vals[keep], delta.insert_values]),
        shape=old.shape,
    )
    same = (np.array_equal(scratch.rowptr, new.rowptr)
            and np.array_equal(scratch.colind, new.colind)
            and np.array_equal(scratch.values, new.values)
            and scratch.fingerprint() == new.fingerprint())
    return None if same else "delta successor differs from a scratch build"


WORKLOADS = {
    w.name: w
    for w in (
        SweepCold(),
        Train("train_gcn", "pubmed", _gcn, check_width=128),
        Train("train_sage_pool", "cora", _sage_pool, check_width=1433),
        StreamDelta(),
    )
}
