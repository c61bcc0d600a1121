"""API-surface tests: exports, device presets, and cross-module wiring."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.gpusim import GTX_1080TI, KNOWN_GPUS, RTX_2080


class TestPackageExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    @pytest.mark.parametrize("module", ["sparse", "core", "gpusim", "gnn", "bench", "datasets"])
    def test_subpackage_all_resolve(self, module):
        import importlib

        mod = importlib.import_module(f"repro.{module}")
        for name in mod.__all__:
            assert getattr(mod, name, None) is not None, f"repro.{module}.{name}"

    def test_quickstart_docstring_runs(self):
        # The package docstring's quickstart must stay executable.
        from repro import GESpMM, uniform_random

        a = uniform_random(m=512, nnz=4096, seed=1)
        b = np.random.default_rng(0).random((a.ncols, 128), dtype=np.float32)
        kernel = GESpMM()
        c = kernel.run(a, b)
        t = kernel.estimate(a, 128, GTX_1080TI)
        assert c.shape == (512, 128) and t.time_s > 0


    def test_src_never_imports_the_test_tree(self):
        # The parity oracles live in tests/oracles/; production code must
        # stand without the test tree.
        offenders = []
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module or ""]
                else:
                    continue
                offenders += [
                    f"{path.name}:{node.lineno} {name}"
                    for name in names
                    if name == "tests" or name.startswith("tests.")
                ]
        assert not offenders, offenders

    def test_replaced_argmax_lives_only_in_the_test_tree(self):
        # The equality-pass argmax is the fold's reference oracle now,
        # not a production path.
        from repro.sparse import segment

        for name in ("segment_argmax", "_sparse_nonzero"):
            assert not hasattr(repro.sparse, name), name
            assert not hasattr(segment, name), name
            assert name not in repro.sparse.__all__
        from tests.oracles import segment as oracles

        assert callable(oracles.segment_argmax) and callable(oracles._sparse_nonzero)


class TestDevicePresets:
    def test_known_gpus(self):
        assert set(KNOWN_GPUS) == {"GTX 1080Ti", "RTX 2080"}

    def test_published_specs(self):
        # Section V-A3 of the paper.
        assert GTX_1080TI.n_sms == 28
        assert GTX_1080TI.clock_ghz == pytest.approx(1.481)
        assert GTX_1080TI.dram_bandwidth == pytest.approx(484e9)
        assert GTX_1080TI.dram_capacity == 11 * 1024**3
        assert RTX_2080.n_sms == 46
        assert RTX_2080.clock_ghz == pytest.approx(1.515)
        assert RTX_2080.dram_bandwidth == pytest.approx(448e9)
        assert RTX_2080.dram_capacity == 8 * 1024**3

    def test_l1_policy_split(self):
        assert not GTX_1080TI.l1_caches_global  # Pascal
        assert RTX_2080.l1_caches_global  # Turing

    def test_scaled_override(self):
        variant = GTX_1080TI.scaled(n_sms=56, name="2x1080Ti")
        assert variant.n_sms == 56 and variant.name == "2x1080Ti"
        assert GTX_1080TI.n_sms == 28  # original untouched

    def test_derived_quantities(self):
        assert GTX_1080TI.peak_flops == pytest.approx(28 * 128 * 2 * 1.481e9)
        assert GTX_1080TI.max_threads_per_sm == 2048
        assert GTX_1080TI.shared_bandwidth > 0

    def test_warp_size_is_32_everywhere(self):
        # The paper's techniques assume warp_size == 32 (tile size, CWM
        # column spacing, the N <= 32 dispatch rule).
        for gpu in KNOWN_GPUS.values():
            assert gpu.warp_size == 32


class TestCrossModuleWiring:
    def test_backend_uses_gespmm_estimates(self):
        """The DGL backend's GE-SpMM cost must be the kernel's estimate."""
        from repro.core import GESpMM
        from repro.gnn import DGLBackend, GraphPair, SimDevice, Tensor
        from repro.sparse import uniform_random

        g = GraphPair(uniform_random(2000, 20_000, seed=1))
        x = Tensor(np.ones((2000, 64), dtype=np.float32))
        device = SimDevice(GTX_1080TI)
        DGLBackend(device, use_gespmm=True).aggregate(g, x, op="sum")
        recorded = device.profile().time("SpMM")
        expected = GESpMM().estimate(g.adj, 64, GTX_1080TI).time_s
        assert recorded == pytest.approx(expected, rel=1e-9)

    def test_profiler_consistent_with_estimate(self):
        from repro.core import GESpMM
        from repro.gpusim import profile_kernel
        from repro.sparse import uniform_random

        a = uniform_random(2000, 20_000, seed=1)
        k = GESpMM()
        rep = profile_kernel(k, a, 128, RTX_2080)
        assert rep.time_s == pytest.approx(k.estimate(a, 128, RTX_2080).time_s)
        assert rep.gpu == RTX_2080.name

    def test_snap_names_loadable_from_cli_path(self):
        from repro.datasets import catalog_names, load_graph

        name = catalog_names()[0]
        g = load_graph(name, max_nnz=10_000)
        assert g.nnz > 0
