"""Base class shared by all simulated SpMM kernels.

A kernel model couples up to three views of the same algorithm:

* ``run``      — functional execution (vectorized NumPy), producing the
                 numeric output; validated against the SciPy oracle.
* ``count``    — closed-form access/instruction statistics plus launch
                 shape; validated against ``trace`` where implemented.
* ``trace``    — optional warp-level replay of every access the kernel
                 issues, batched over all warps of the launch
                 (:mod:`repro.gpusim.batchtrace`); exact, used on small
                 inputs by tests, the warp timeline and profiling examples.

``estimate`` ties ``count`` to the timing model.  Results are memoized in
a process-wide content-addressed cache keyed on ``(kernel.cache_key(),
CSRMatrix.fingerprint(), N, gpu, semiring, params)`` — the same scheme as
the sweep memo (``docs/PERFORMANCE.md``) — because benchmark sweeps
re-time the same kernel/matrix pair at several places and full-batch
training re-evaluates the cost model every epoch.  Hits and misses
surface as the ``kernel.estimate_memo.hits`` / ``.misses`` counters;
:func:`clear_estimate_memo` resets the cache.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.semiring import PLUS_TIMES, Semiring
from repro.gpusim.config import GPUSpec
from repro.gpusim.memory import KernelStats
from repro.gpusim.occupancy import LaunchConfig
from repro.gpusim.timing import ExecHints, KernelTiming, TimingParams, estimate_time
from repro.lru import LRUMemo
from repro.sparse.csr import CSRMatrix

__all__ = [
    "SpMMKernel",
    "KernelCounts",
    "clear_estimate_memo",
    "invalidate_estimates_for",
    "set_estimate_memo_limit",
    "get_estimate_memo_limit",
]

KernelCounts = Tuple[KernelStats, LaunchConfig, ExecHints]

#: (cache_key(), fingerprint, n, gpu.name, semiring.name, params) -> timing.
#: Content-addressed and process-wide: equally configured kernel instances
#: share entries, and GC id reuse can never alias two different matrices.
#: Unbounded by default; corpus-scale drivers cap it so streaming
#: thousands of matrices through one process cannot grow it without bound.
_ESTIMATE_MEMO = LRUMemo("kernel.estimate_memo")


def clear_estimate_memo() -> None:
    """Reset the process-wide estimate memo (tests, long-lived hosts)."""
    _ESTIMATE_MEMO.clear()


def invalidate_estimates_for(fingerprint: str) -> int:
    """Drop every memoized estimate keyed on one matrix fingerprint.

    The targeted alternative to :func:`clear_estimate_memo` for dynamic
    graphs (``repro.sparse.delta``): when a matrix version is superseded,
    only its entries are reclaimed; every other matrix's estimates stay
    warm.  Returns the number dropped (also counted as
    ``kernel.estimate_memo.invalidations``).
    """
    return _ESTIMATE_MEMO.invalidate(fingerprint)


def set_estimate_memo_limit(limit: Optional[int]) -> Optional[int]:
    """Cap the estimate memo at ``limit`` entries, LRU-evicting beyond it
    (``kernel.estimate_memo.evictions`` counts the drops); ``None``
    removes the cap (the default).  Returns the previous limit so callers
    can restore it.
    """
    return _ESTIMATE_MEMO.set_limit(limit)


def get_estimate_memo_limit() -> Optional[int]:
    """The current estimate-memo entry cap (None = unlimited)."""
    return _ESTIMATE_MEMO.limit


def _disk_cache():
    """The active cross-process estimate cache, or None (the default).
    Late import: ``repro.bench`` imports this module."""
    from repro.bench.diskcache import get_disk_cache

    return get_disk_cache()


class SpMMKernel(ABC):
    """Abstract simulated SpMM / SpMM-like kernel."""

    #: human-readable kernel name used in benchmark tables
    name: str = "abstract"
    #: whether the kernel accepts user-defined (non plus-times) semirings
    supports_general_semiring: bool = True
    #: preprocessing the kernel requires before first use (CSR is free)
    requires_preprocess: bool = False

    # -- functional ----------------------------------------------------
    @abstractmethod
    def run(
        self, a: CSRMatrix, b: np.ndarray, semiring: Semiring = PLUS_TIMES
    ) -> np.ndarray:
        """Execute functionally and return ``C`` (float32[M, N])."""

    # -- modelling -----------------------------------------------------
    @abstractmethod
    def count(self, a: CSRMatrix, n: int, gpu: GPUSpec) -> KernelCounts:
        """Closed-form statistics and launch configuration."""

    def trace(
        self,
        a: CSRMatrix,
        b: np.ndarray,
        gpu: GPUSpec,
        semiring: Semiring = PLUS_TIMES,
    ) -> Tuple[np.ndarray, KernelStats]:
        """Faithful warp-level execution (batched replay).  Optional."""
        raise NotImplementedError(f"{self.name} has no trace-mode implementation")

    # -- timing ----------------------------------------------------------
    def estimate(
        self,
        a: CSRMatrix,
        n: int,
        gpu: GPUSpec,
        semiring: Semiring = PLUS_TIMES,
        params: Optional[TimingParams] = None,
    ) -> KernelTiming:
        """Simulated kernel time for ``A (MxK) @ B (KxN)`` on ``gpu``."""
        self.check_semiring(semiring)
        params = params or TimingParams()
        key = (self.cache_key(), a.fingerprint(), int(n), gpu.name, semiring.name, params)
        cached = _ESTIMATE_MEMO.get(key)
        registry = obs.get_registry()
        if cached is not None:
            registry.counter(
                "kernel.estimate_memo.hits", kernel=self.name, gpu=gpu.name
            ).inc()
            registry.counter(
                "sim.kernel.estimates", kernel=self.name, gpu=gpu.name, cached=True
            ).inc()
            return cached
        registry.counter(
            "kernel.estimate_memo.misses", kernel=self.name, gpu=gpu.name
        ).inc()
        disk = _disk_cache()
        if disk is not None:
            timing = disk.get_timing(key)
            if timing is not None:
                _ESTIMATE_MEMO.put(key, timing)
                registry.counter(
                    "sim.kernel.estimates", kernel=self.name, gpu=gpu.name, cached=True
                ).inc()
                return timing
        registry.counter(
            "sim.kernel.estimates", kernel=self.name, gpu=gpu.name, cached=False
        ).inc()
        with obs.span("kernel.estimate", kernel=self.name, n=int(n), gpu=gpu.name) as s:
            stats, launch, hints = self.count(a, int(n), gpu)
            timing = estimate_time(stats, launch, gpu, hints, params)
            if s is not None:
                s.attrs["time_ms"] = timing.time_s * 1e3
                s.attrs["bound_by"] = timing.bound_by
        _ESTIMATE_MEMO.put(key, timing)
        if disk is not None:
            disk.put_timing(key, timing)
        return timing

    # -- misc ------------------------------------------------------------
    def cache_key(self) -> tuple:
        """Hashable description of this kernel's configuration, stable
        across instances with equal config — the kernel component of the
        sweep memoization key (``docs/PERFORMANCE.md``).  Covers the
        class plus every public primitive attribute; kernels holding
        non-primitive config (e.g. an epilogue object) should extend it.
        """
        attrs = tuple(
            sorted(
                (k, v)
                for k, v in vars(self).items()
                if not k.startswith("_") and isinstance(v, (bool, int, float, str))
            )
        )
        return (type(self).__qualname__, self.name, attrs)

    def check_semiring(self, semiring: Semiring) -> None:
        if not self.supports_general_semiring and not semiring.is_standard:
            raise NotImplementedError(
                f"{self.name} supports only standard plus-times SpMM "
                f"(got semiring {semiring.name!r}); this is the cuSPARSE "
                "limitation the paper's SpMM-like support addresses"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"
