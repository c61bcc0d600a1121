"""Tests for the CF autotuner, the amortization scenarios, and the CLI."""

import numpy as np
import pytest

from repro.core import CWMSpMM, GESpMM, TunedSpMM, oracle_gap, tune_cf
from repro.gnn.inference import (
    amortization_crossover,
    inference_scenario,
    sampled_training_scenario,
)
from repro.gpusim import GTX_1080TI
from repro.sparse import banded_random, reference_spmm, uniform_random
from repro import cli


@pytest.fixture(scope="module")
def graphs():
    return [uniform_random(20_000, 200_000, seed=s) for s in range(3)]


class TestTuner:
    def test_tune_returns_candidate(self, graphs):
        res = tune_cf(graphs[0], 256, GTX_1080TI)
        assert res.best_cf in (1, 2, 4, 8)
        assert res.best_time == min(res.times.values())
        assert res.loss_of(res.best_cf) == 0.0

    def test_large_n_prefers_merging(self, graphs):
        res = tune_cf(graphs[0], 512, GTX_1080TI)
        assert res.best_cf >= 2  # CWM should win at wide N

    def test_small_n_prefers_plain_crc(self, graphs):
        res = tune_cf(graphs[0], 16, GTX_1080TI)
        # At N <= 32 merging cannot help; CF=1 ties or wins.
        assert res.times[1] <= min(res.times.values()) * 1.01

    def test_empty_candidates_rejected(self, graphs):
        with pytest.raises(ValueError):
            tune_cf(graphs[0], 128, GTX_1080TI, candidates=[])

    def test_oracle_gap_fixed_cf2_small(self, graphs):
        worst, n_bad, results = oracle_gap(graphs, 256, GTX_1080TI, fixed_cf=2)
        assert len(results) == 3
        assert n_bad == 0  # CF=2 within 15% of oracle on uniform graphs
        assert worst < 0.15

    def test_tuned_kernel_dispatch(self, graphs):
        k = TunedSpMM()
        t = k.estimate(graphs[0], 512, GTX_1080TI)
        best = tune_cf(graphs[0], 512, GTX_1080TI).best_time
        assert t.time_s == pytest.approx(best, rel=1e-6)

    def test_tuned_kernel_functional(self, rng):
        a = uniform_random(300, 3000, seed=1)
        b = rng.random((300, 64), dtype=np.float32)
        np.testing.assert_allclose(TunedSpMM().run(a, b), reference_spmm(a, b),
                                   rtol=1e-4, atol=1e-4)

    def test_tuning_time_positive(self, graphs):
        k = TunedSpMM()
        assert k.tuning_time(graphs[0], 256, GTX_1080TI) > 0


class TestScenarios:
    def test_inference_ge_wins(self, graphs):
        res = inference_scenario(graphs[0], 128, GTX_1080TI)
        assert res.times["GE-SpMM"] < res.times["cuSPARSE csrmm2"]
        assert res.times["GE-SpMM"] < res.times["ASpT"]  # preprocess counted

    def test_sampled_training_ge_wins(self, graphs):
        res = sampled_training_scenario(graphs[0], 64, GTX_1080TI, n_batches=3)
        assert res.spmm_calls == 6
        assert min(res.times, key=res.times.get) == "GE-SpMM"

    def test_crossover_on_tiled_matrix(self):
        # A banded matrix where ASpT's kernel is genuinely faster: the
        # preprocess amortizes after finitely many reuses.
        band = banded_random(60_000, 600_000, bandwidth=16, seed=4)
        cross = amortization_crossover(band, 512, GTX_1080TI, max_reuses=512)
        if cross is not None:
            assert cross >= 1

    def test_crossover_none_when_kernel_not_faster(self, graphs):
        # On uniform random graphs GE's kernel is >= ASpT's: never amortizes.
        assert amortization_crossover(graphs[0], 128, GTX_1080TI) is None


class TestCLI:
    def test_analyze(self, capsys):
        assert cli.main(["analyze", "--graph", "random", "--m", "500", "--nnz", "2000"]) == 0
        out = capsys.readouterr().out
        assert "row imbalance" in out

    def test_profile(self, capsys):
        assert cli.main(
            ["profile", "--graph", "random", "--m", "500", "--nnz", "2000",
             "--n", "64", "--kernels", "simple", "crc"]
        ) == 0
        out = capsys.readouterr().out
        assert "simple" in out and "crc" in out

    def test_sweep(self, capsys):
        assert cli.main(["sweep", "--graphs", "2", "--n", "64", "--max-nnz", "20000"]) == 0
        assert "GE-SpMM vs" in capsys.readouterr().out

    def test_train(self, capsys):
        assert cli.main(["train", "--dataset", "cora", "--epochs", "2", "--gespmm"]) == 0
        out = capsys.readouterr().out
        assert "test acc" in out and "SpMM" in out

    def test_scenario(self, capsys):
        assert cli.main(
            ["scenario", "--graph", "random", "--m", "2000", "--nnz", "20000",
             "--feature-dim", "32", "--batches", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "inference" in out and "sampled-training" in out

    def test_unknown_gpu_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["profile", "--gpu", "H100"])

    def test_unknown_graph_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["profile", "--graph", "nosuch"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro-bench profile")
        assert "invalid choice: 'nosuch'" in err
        for name in ("random", "cora", "citeseer", "pubmed", "soc-Epinions1"):
            assert f"'{name}'" in err

    def test_roofline(self, capsys):
        assert cli.main(
            ["roofline", "--graph", "random", "--m", "2000", "--nnz", "20000",
             "--n", "64", "--kernels", "simple", "gespmm"]
        ) == 0
        out = capsys.readouterr().out
        assert "Roofline" in out and "bound" in out

    def test_tune(self, capsys):
        assert cli.main(
            ["tune", "--graph", "random", "--m", "5000", "--nnz", "50000", "--n", "128"]
        ) == 0
        out = capsys.readouterr().out
        assert "best" in out and "CF=2" in out

    def test_oom(self, capsys):
        assert cli.main(["oom", "--n", "512"]) == 0
        out = capsys.readouterr().out
        assert "soc-LiveJournal1" in out
        assert cli.main(["oom", "--n", "1"]) == 0
        assert "(none at this width)" in capsys.readouterr().out
