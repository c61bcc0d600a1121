"""Parity oracles for the host executor, the access counters and the
trace replay.

Test-only: nothing under ``src/`` imports this package
(``tests/test_api_surface.py`` enforces it).  Every oracle but
``sequential_spmm_like`` is an implementation that production code
replaced, kept unchanged apart from its name so the parity suites and
the microbenchmark baselines compare against the same bodies as before:

* :mod:`.segment` — ``scatter_segment_reduce`` (reference for
  ``segment_reduce``), ``scatter_spmm_like`` (for ``segment_spmm_like``
  and ``reference_spmm_like``), ``untiled_spmm_like`` and
  ``untiled_max_with_argmax`` (the single-tile ``reduceat`` bodies,
  max/min references and microbenchmark baselines),
  ``sequential_spmm_like`` (the per-nonzero left-to-right loop, the bit
  reference for plus/mean), ``segment_argmax`` / ``_sparse_nonzero`` (the
  equality-pass argmax, reference for the max/min fold's inline
  first-maximizer argmax) and ``loop_to_dense`` (for
  ``CSRMatrix.to_dense``'s accumulating fallback);
* :mod:`.aggregate` — ``max_forward`` / ``scatter_aggregate_max``, the
  tie-sharing scatter path that ``aggregate_max``'s argmax backward
  replaced;
* :mod:`.counting` — the six array-expansion counters behind
  ``repro.core._counting``'s profile-backed closed forms;
* :mod:`.trace` — ``trace_loop`` / ``trace_xy_loop``, the per-warp
  replays every kernel's batched ``trace`` must match counter for
  counter, on the exact per-access ``TraceMemory`` model, plus the
  scalar ``warp_sector_count`` / ``bank_conflict_passes`` references
  and the trace-parity assertions.

The two context managers below reroute production call sites onto the
oracles for a scope.  Production modules call these functions through
module attributes, so patching an attribute reroutes every caller.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import pytest

from . import counting as counting_oracles
from .segment import scatter_segment_reduce, scatter_spmm_like


@contextmanager
def use_scatter_oracles() -> Iterator[None]:
    """Run ``reference_spmm_like`` (single and multi) and the CSR
    normalizers' row sums on the scatter oracles.  ``aggregate_max``
    has its own drop-in, :func:`.aggregate.aggregate_max`."""
    from repro.sparse import segment

    def spmm(a, b, semiring, out=None):
        return scatter_spmm_like(a, b, semiring)

    def spmm_multi(a, bs, semiring, outs=None):
        return [scatter_spmm_like(a, b, semiring) for b in bs]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segment, "segment_spmm_like", spmm)
        mp.setattr(segment, "segment_spmm_like_multi", spmm_multi)
        mp.setattr(segment, "segment_reduce", scatter_segment_reduce)
        yield


@contextmanager
def use_oracle_counters() -> Iterator[None]:
    """Run the six public counters of ``repro.core._counting`` on their
    array-expansion oracles (kernels call them as ``cnt.<counter>``)."""
    from repro.core import _counting as cnt

    with pytest.MonkeyPatch.context() as mp:
        for name in counting_oracles.COUNTERS:
            mp.setattr(cnt, name, getattr(counting_oracles, name))
        yield
