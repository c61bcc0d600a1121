"""Scatter reference for ``repro.gnn.aggregate.aggregate_max``: on
ties it shares the gradient among all maximizers, where the engine's
argmax gives it to the first; ``tests/test_segment_engine.py`` locks
both."""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from repro.gnn.aggregate import CostFn, GraphPair
from repro.gnn.tensor import Tensor
from repro.semiring import MAX_TIMES
from repro.sparse.csr import CSRMatrix


def max_forward(adj: CSRMatrix, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Max-times forward returning (output, per-nonzero contributions).

    Gathers and scales once, then reduces those same contributions —
    the scatter path's backward closure and its forward reduction share
    one ``(nnz, N)`` array instead of materializing it twice.  The
    reduction replicates ``scatter_spmm_like``'s max branch verbatim
    (finalize is the identity for max-times).
    """
    contributions = adj.values[:, None] * x[adj.colind64()]
    out = np.full((adj.nrows, x.shape[1]), MAX_TIMES.init, dtype=x.dtype)
    if adj.nnz:
        np.maximum.at(out, adj.coo_rows(), contributions)
    return out, contributions


def scatter_aggregate_max(
    g: GraphPair,
    x: Tensor,
    backward_cost: CostFn,
    record: Callable[[str, float], None],
    label: str,
) -> Tensor:
    """Pre-engine max aggregation: the backward closure retains the full
    ``(nnz, N)`` contributions and *shares* gradient among tied maxima."""
    n = x.data.shape[1]
    adj = g.adj
    out, contributions = max_forward(adj, x.data)
    empty = adj.row_lengths() == 0
    out_clean = out.copy()
    out_clean[empty] = 0.0  # DGL convention: no neighbors -> zeros

    rows = adj.coo_rows()
    cols = adj.colind64()

    def backward(grad: np.ndarray) -> None:
        record(label, backward_cost(g.adj_t, n))
        if not x.requires_grad:
            return
        # Route gradients to maximizing contributions (ties share).
        is_max = contributions == out[rows]
        dx = np.zeros_like(x.data)
        scaled = grad[rows] * is_max * adj.values[:, None]
        np.add.at(dx, cols, scaled)
        x.accumulate_grad(dx)

    return Tensor(
        out_clean, x.requires_grad, [x], backward if x.requires_grad else None, name=label
    )


def aggregate_max(
    g: GraphPair,
    x: Tensor,
    forward_cost: CostFn,
    backward_cost: CostFn,
    record: Callable[[str, float], None],
    label: str = "SpMM-like",
) -> Tensor:
    """Drop-in for ``repro.gnn.aggregate.aggregate_max`` that runs the
    scatter path: charges the forward cost, then
    :func:`scatter_aggregate_max`."""
    record(label, forward_cost(g.adj, x.data.shape[1]))
    return scatter_aggregate_max(g, x, backward_cost, record, label)
