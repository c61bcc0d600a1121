"""Per-layer attribution for the traced run.

A :class:`Trace` installs a fresh ``repro.obs`` tracer for one op and
wraps the public entry points of each layer in harness spans:

* ``SpMMKernel.estimate`` (and every kernel class's ``count``) for the
  timing model and the counting layer;
* ``repro.sparse.segment.segment_spmm_like`` (the host SpMM engine that
  ``reference_spmm_like`` dispatches to) and the
  ``segment_max_with_argmax`` that ``aggregate_max`` calls;
* ``AggregationBackend.aggregate`` for the GNN aggregation step.

The workloads add their own spans around the remaining calls
(``generators.build``, ``bench.runner.sweep``, ``gnn.forward`` ...).
Together with the spans the program already emits (``sweep.*``,
``kernel.estimate``, ``gnn.layer``, ``sparse.delta.apply``) every span
maps to one layer through :data:`SPAN_LAYER`; a span the map does not
name belongs to the layer of its parent.  A layer's self time is the
summed duration of its spans minus the part their child spans of other
layers cover.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro import obs
from repro.gnn import aggregate as gnn_aggregate
from repro.gnn.frameworks import AggregationBackend
from repro.gpusim.kernel import SpMMKernel
from repro.semiring import PLUS_TIMES
from repro.sparse import segment

#: span name -> layer.  Unlisted spans inherit their parent's layer.
SPAN_LAYER = {
    "bench.op": "bench.op",
    "generators.build": "sparse.generators",
    "bench.runner.sweep": "bench.runner",
    "sweep.graph": "bench.runner",
    "sweep.cell": "bench.runner",
    "gpusim.estimate": "gpusim.estimate",
    "kernel.estimate": "gpusim.estimate",
    "core.count": "core.count",
    "segment.plus": "segment.plus",
    "segment.other": "segment.other",
    "segment.max_argmax": "segment.max_argmax",
    "gnn.forward": "gnn.forward",
    "gnn.layer": "gnn.forward",
    "gnn.backward": "gnn.backward",
    "gnn.optimizer": "gnn.optimizer",
    "gnn.aggregate_sum": "gnn.aggregate",
    "gnn.aggregate_max": "gnn.aggregate",
    "delta.apply": "delta.apply",
    "sparse.delta.apply": "delta.apply",
    "delta.invalidate": "delta.invalidate",
}

#: spans whose inclusive time (outermost occurrence only) a metric reads.
INCLUSIVE = (
    "generators.build",
    "bench.runner.sweep",
    "gpusim.estimate",
    "gnn.aggregate_sum",
    "gnn.aggregate_max",
    "delta.apply",
    "delta.invalidate",
)

#: registry counters whose per-op deltas feed the ratio metrics.
COUNTERS = (
    "access_profile.hits",
    "access_profile.misses",
    "kernel.estimate_memo.hits",
    "kernel.estimate_memo.misses",
    "segment.workspace.reuses",
    "segment.workspace.allocs",
    "delta.rows_touched",
)


def counter_totals(names=COUNTERS) -> Dict[str, float]:
    """Each named counter summed over its label sets."""
    totals = dict.fromkeys(names, 0.0)
    for row in obs.get_registry().snapshot():
        if row["type"] == "counter" and row["name"] in totals:
            totals[row["name"]] += row["value"]
    return totals


def _spanned(fn: Callable, name, on_call=None) -> Callable:
    """``fn`` inside a span named ``name`` (or ``name(*args, **kwargs)``)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(name(*args, **kwargs) if callable(name) else name):
            out = fn(*args, **kwargs)
        if on_call is not None:
            on_call(args, kwargs, out)
        return out

    return wrapper


def _kernel_classes() -> List[type]:
    seen, stack = [], [SpMMKernel]
    while stack:
        cls = stack.pop()
        if cls not in seen:
            seen.append(cls)
            stack.extend(cls.__subclasses__())
    return seen


def _is_plus(semiring) -> bool:
    return semiring is PLUS_TIMES or semiring.name == PLUS_TIMES.name


class Trace:
    """Trace one op: spans around every layer entry point, counter deltas,
    and the plus-times SpMM operands seen (for the SciPy floor replay)."""

    def __init__(self) -> None:
        self.tracer: obs.Tracer = None  # type: ignore[assignment]
        self.plus_calls: List[Tuple[Any, np.ndarray]] = []
        self.counters: Dict[str, float] = {}
        self._undo: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _record_plus(self, args, kwargs, out) -> None:
        semiring = args[2] if len(args) > 2 else kwargs["semiring"]
        if _is_plus(semiring):
            self.plus_calls.append((args[0], args[1]))

    def __enter__(self) -> "Trace":
        for cls in _kernel_classes():
            if "count" in cls.__dict__:
                self._patch(cls, "count", _spanned(cls.__dict__["count"], "core.count"))
            if "estimate" in cls.__dict__:
                self._patch(cls, "estimate", _spanned(cls.__dict__["estimate"], "gpusim.estimate"))

        def plus_name(a, b, semiring, *rest, **kw):
            return "segment.plus" if _is_plus(semiring) else "segment.other"

        self._patch(segment, "segment_spmm_like",
                    _spanned(segment.segment_spmm_like, plus_name, self._record_plus))
        self._patch(gnn_aggregate, "segment_max_with_argmax",
                    _spanned(gnn_aggregate.segment_max_with_argmax, "segment.max_argmax"))

        def agg_name(backend, g, x, op="sum"):
            return f"gnn.aggregate_{op}"

        self._patch(AggregationBackend, "aggregate",
                    _spanned(AggregationBackend.aggregate, agg_name))
        self._counters0 = counter_totals()
        self.tracer = obs.Tracer()
        self._prev = obs.set_tracer(self.tracer)
        return self

    def __exit__(self, *exc) -> None:
        obs.set_tracer(self._prev)
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        after = counter_totals()
        self.counters = {k: after[k] - self._counters0[k] for k in COUNTERS}

    # -- attribution -----------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Per-op quantities: ``self_ms.<layer>``, ``incl_ms.<span>``,
        ``cells``, ``plus_flops`` and the counter deltas."""
        recs = [r for r in self.tracer.records if r.end_s is not None]
        by_index = {r.index: r for r in recs}
        child_s: Dict[int, float] = {}
        for r in recs:
            if r.parent is not None:
                child_s[r.parent] = child_s.get(r.parent, 0.0) + r.duration_s
        layer: Dict[int, str] = {}
        out: Dict[str, float] = {}
        for r in recs:  # records are in begin order: parents come first
            parent_layer = layer.get(r.parent, "bench.op")
            layer[r.index] = SPAN_LAYER.get(r.name, parent_layer)
            key = "self_ms." + layer[r.index]
            out[key] = out.get(key, 0.0) + (r.duration_s - child_s.get(r.index, 0.0)) * 1e3
            if r.name in INCLUSIVE and not _has_ancestor(r, r.name, by_index):
                key = "incl_ms." + r.name
                out[key] = out.get(key, 0.0) + r.duration_s * 1e3
            if r.name == "sweep.cell":
                out["cells"] = out.get("cells", 0.0) + 1
        out["plus_flops"] = float(sum(2 * a.nnz * b.shape[1] for a, b in self.plus_calls))
        out.update(self.counters)
        return out

    def scipy_plus_ms(self) -> float:
        """SciPy ``csr @ dense`` time on this op's plus-times operands."""
        total = 0.0
        for a, b in self.plus_calls:
            s = a.to_scipy()
            t0 = time.perf_counter()
            s @ b
            total += time.perf_counter() - t0
        return total * 1e3


def _has_ancestor(rec, name: str, by_index) -> bool:
    p = rec.parent
    while p is not None:
        anc = by_index[p]
        if anc.name == name:
            return True
        p = anc.parent
    return False
