"""Differentiable graph aggregation (the SpMM / SpMM-like autograd op).

This is the reproduction of Section IV-B: "we wrap our kernel inside a
custom autograd function ... an atomic operator with gradient definition
in PyTorch [that] represents an aggregation step on the graph".

* **sum** aggregation is standard SpMM: forward ``C = A @ X``; backward
  ``dX = A^T @ dC`` — another SpMM on the (cached) transposed adjacency.
  Mean aggregation is sum over a row-normalized adjacency, so layers
  express it by normalizing the operand.
* **max** aggregation is the paper's flagship SpMM-like case
  (GraphSAGE-pool).  Forward takes the max-times semiring; empty rows
  produce 0 (the DGL convention) rather than the semiring identity.
  Backward routes each output gradient to the *first* nonzero whose
  contribution attained the maximum (PyTorch ``scatter_max`` semantics):
  the closure keeps only an ``(M, N)`` int32 argmax, not the full
  ``(nnz, N)`` contributions array.  The pre-engine tie-sharing scatter
  path is the parity oracle in ``tests/oracles/aggregate.py``.

Numeric execution is vectorized NumPy; the simulated kernel cost of both
directions is charged to the device ledger by the caller-supplied
``forward_cost`` / ``backward_cost`` callables, which is where the
framework backends (DGL-style fused kernels, PyG-style message passing,
GE-SpMM swap-ins) differ.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.gnn.tensor import Tensor
from repro.semiring import PLUS_TIMES
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import reference_spmm_like, reference_spmm_like_multi
from repro.sparse.segment import segment_max_with_argmax

__all__ = ["GraphPair", "aggregate_sum", "aggregate_sum_multi", "aggregate_max"]


class GraphPair:
    """An adjacency matrix with its cached transpose (for backward) and
    cached normalized variants (for GCN / mean aggregation)."""

    def __init__(self, adj: CSRMatrix):
        self.adj = adj
        self._adj_t: Optional[CSRMatrix] = None
        self._row_norm: Optional["GraphPair"] = None
        self._sym_norm: Optional["GraphPair"] = None

    @property
    def adj_t(self) -> CSRMatrix:
        if self._adj_t is None:
            self._adj_t = self.adj.transpose()
        return self._adj_t

    def row_normalized(self) -> "GraphPair":
        if self._row_norm is None:
            self._row_norm = GraphPair(self.adj.row_normalized())
        return self._row_norm

    def sym_normalized_with_loops(self) -> "GraphPair":
        if self._sym_norm is None:
            self._sym_norm = GraphPair(self.adj.add_self_loops().sym_normalized())
        return self._sym_norm

    @property
    def nnz(self) -> int:
        return self.adj.nnz


CostFn = Callable[[CSRMatrix, int], float]


def aggregate_sum(
    g: GraphPair,
    x: Tensor,
    forward_cost: CostFn,
    backward_cost: CostFn,
    record: Callable[[str, float], None],
    label: str = "SpMM",
) -> Tensor:
    """Sum aggregation ``C = A @ X`` with SpMM-costed backward."""
    n = x.data.shape[1]
    record(label, forward_cost(g.adj, n))
    out = reference_spmm_like(g.adj, x.data, PLUS_TIMES)

    def backward(grad: np.ndarray) -> None:
        record(label, backward_cost(g.adj_t, n))
        if x.requires_grad:
            x.accumulate_grad(reference_spmm_like(g.adj_t, grad, PLUS_TIMES))

    return Tensor(out, x.requires_grad, [x], backward if x.requires_grad else None, name=label)


def aggregate_sum_multi(
    g: GraphPair,
    xs: Sequence[Tensor],
    forward_cost: CostFn,
    backward_cost: CostFn,
    record: Callable[[str, float], None],
    label: str = "SpMM",
) -> List[Tensor]:
    """K same-graph sum aggregations through one batched SpMM traversal.

    The coalescing primitive for a multi-tenant serving layer: concurrent
    requests against the same graph share the gather index work and the
    pooled workspace (``segment_spmm_like_multi``), while each request
    keeps its own autograd closure and its own simulated-kernel charge.
    Outputs are byte-identical to per-request :func:`aggregate_sum`
    calls.
    """
    outs = reference_spmm_like_multi(g.adj, [x.data for x in xs], PLUS_TIMES)
    tensors: List[Tensor] = []
    for x, out in zip(xs, outs):
        n = x.data.shape[1]
        record(label, forward_cost(g.adj, n))

        def backward(grad: np.ndarray, x: Tensor = x, n: int = n) -> None:
            record(label, backward_cost(g.adj_t, n))
            if x.requires_grad:
                x.accumulate_grad(reference_spmm_like(g.adj_t, grad, PLUS_TIMES))

        tensors.append(
            Tensor(out, x.requires_grad, [x], backward if x.requires_grad else None, name=label)
        )
    return tensors


def aggregate_max(
    g: GraphPair,
    x: Tensor,
    forward_cost: CostFn,
    backward_cost: CostFn,
    record: Callable[[str, float], None],
    label: str = "SpMM-like",
) -> Tensor:
    """Max aggregation (SpMM-like) with argmax-routed backward."""
    n = x.data.shape[1]
    adj = g.adj
    record(label, forward_cost(adj, n))
    # One fold over the degree-sorted rows tracks the max and its first
    # winner inline: the (nnz, N) contributions array is never
    # materialized, and the (M, N) int32 winner indices are all the
    # backward needs.
    out, argmax = segment_max_with_argmax(adj, x.data)
    out = out.astype(x.data.dtype, copy=False)
    out_clean = out.copy()
    out_clean[adj.row_lengths() == 0] = 0.0  # DGL convention

    k = x.data.shape[0]

    def backward(grad: np.ndarray) -> None:
        record(label, backward_cost(g.adj_t, n))
        if not x.requires_grad:
            return
        # Winner-takes-all: the whole gradient goes to the first nonzero
        # that attained the maximum.  Empty rows and NaN cells hold -1
        # (no winner), which indexes a spare nonzero of weight 0 aimed at
        # an extra row k of dx; that row's bins are dropped, so no
        # compaction pass is needed.
        colind = np.append(adj.colind64(), k)
        values = np.append(adj.values, adj.values.dtype.type(0))
        weighted = (grad * values[argmax]).astype(np.float64)
        flat = colind[argmax] * np.int64(n) + np.arange(n, dtype=np.int64)
        dx = np.bincount(flat.ravel(), weights=weighted.ravel(), minlength=(k + 1) * n)
        x.accumulate_grad(dx[: k * n].reshape(k, n).astype(x.data.dtype))

    return Tensor(
        out_clean, x.requires_grad, [x], backward if x.requires_grad else None, name=label
    )
