"""Autograd engine tests: numerical gradient checks for every operator."""

import gc
import weakref

import numpy as np
import pytest

from repro.gnn import SimDevice, Tensor
from repro.gnn import functional as F
from repro.gnn.tensor import Parameter, glorot
from repro.gpusim import GTX_1080TI


@pytest.fixture
def device():
    return SimDevice(GTX_1080TI)


def numerical_grad(fn, x, eps=1e-3):
    """Central-difference gradient of scalar fn w.r.t. array x."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = fn()
        x[idx] = orig - eps
        lo = fn()
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


class TestTensorBasics:
    def test_scalar_backward(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        t.backward()
        np.testing.assert_allclose(t.grad, [1.0])

    def test_nonscalar_backward_requires_grad_arg(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            t.backward()

    def test_grad_accumulates(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        t.accumulate_grad(np.ones(3))
        t.accumulate_grad(np.ones(3))
        np.testing.assert_allclose(t.grad, [2, 2, 2])
        t.zero_grad()
        assert t.grad is None

    def test_grad_shape_check(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError):
            t.accumulate_grad(np.ones(4))

    def test_detach(self):
        t = Tensor(np.ones(2), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad

    def test_parameter_requires_grad(self):
        p = Parameter(np.ones(2))
        assert p.requires_grad

    def test_glorot_bounds(self, rng):
        w = glorot((64, 32), rng)
        limit = np.sqrt(6 / 96)
        assert np.abs(w).max() <= limit
        assert w.dtype == np.float32

    def test_diamond_graph_single_backward(self, device):
        # y = relu(x) used twice: gradient must accumulate once per use,
        # and each node's backward must run exactly once (topological).
        x = Tensor(np.array([[1.0, -1.0]]), requires_grad=True)
        h = F.relu(x, device)
        s = F.add_bias(h, Tensor(np.zeros(2), requires_grad=False), device)
        total = F.concat(h, s, device)
        loss = F.nll_loss(F.log_softmax(total, device), np.array([0]), device)
        loss.backward()
        assert x.grad is not None and np.isfinite(x.grad).all()

    def test_backward_frees_graph_without_cyclic_gc(self, device):
        # The graph must be freed by refcount alone once the loss goes:
        # a reference cycle built during backward() would keep every
        # activation alive until the cyclic GC happens to run.
        x = Tensor(np.array([[1.0, -1.0], [0.5, 2.0]]), requires_grad=True)
        gc.disable()
        try:
            h = F.relu(F.matmul(x, Tensor(np.eye(2)), device), device)
            loss = F.nll_loss(F.log_softmax(h, device), np.array([0, 1]), device)
            ref = weakref.ref(h)
            del h
            loss.backward()
            assert ref() is not None  # still reachable through the loss
            del loss
            assert ref() is None
        finally:
            gc.enable()
        assert x.grad is not None


class TestOperatorGradients:
    def test_matmul_grads(self, device, rng):
        x = Tensor(rng.standard_normal((4, 5)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 3)).astype(np.float32), requires_grad=True)
        out = F.matmul(x, w, device)
        g = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(g)
        np.testing.assert_allclose(x.grad, g @ w.data.T, rtol=1e-4)
        np.testing.assert_allclose(w.grad, x.data.T @ g, rtol=1e-4)

    def test_matmul_shape_check(self, device):
        with pytest.raises(ValueError):
            F.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))), device)

    @pytest.mark.parametrize("op_name", ["relu", "log_softmax"])
    def test_elementwise_numerical_grad(self, device, rng, op_name):
        data = rng.standard_normal((3, 4)).astype(np.float32) + 0.1
        op = getattr(F, op_name)
        g_out = rng.standard_normal((3, 4)).astype(np.float32)

        def forward_scalar():
            t = Tensor(data)
            return float((op(t, device).data * g_out).sum())

        t = Tensor(data.copy(), requires_grad=True)
        out = op(t, device)
        out.backward(g_out)
        num = numerical_grad(forward_scalar, data)
        np.testing.assert_allclose(t.grad, num, rtol=2e-2, atol=2e-3)

    def test_bias_grads(self, device, rng):
        x = Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(3).astype(np.float32), requires_grad=True)
        out = F.add_bias(x, b, device)
        g = rng.standard_normal((4, 3)).astype(np.float32)
        out.backward(g)
        np.testing.assert_allclose(x.grad, g)
        np.testing.assert_allclose(b.grad, g.sum(axis=0), rtol=1e-5)

    def test_nll_loss_grad(self, device, rng):
        data = rng.standard_normal((5, 3)).astype(np.float32)
        labels = np.array([0, 2, 1, 0, 2])
        mask = np.array([True, True, False, True, False])

        def forward_scalar():
            t = Tensor(data)
            lp = F.log_softmax(t, device)
            return float(F.nll_loss(lp, labels, device, mask=mask).data)

        t = Tensor(data.copy(), requires_grad=True)
        loss = F.nll_loss(F.log_softmax(t, device), labels, device, mask=mask)
        loss.backward()
        num = numerical_grad(forward_scalar, data)
        np.testing.assert_allclose(t.grad, num, rtol=2e-2, atol=2e-3)

    def test_nll_empty_mask_rejected(self, device):
        lp = Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            F.nll_loss(lp, np.array([0, 1]), device, mask=np.zeros(2, dtype=bool))

    def test_dropout_training_scaling(self, device, rng):
        x = Tensor(np.ones((200, 50), dtype=np.float32), requires_grad=True)
        out = F.dropout(x, 0.4, device, training=True, rng=rng)
        kept = out.data != 0
        assert 0.5 < kept.mean() < 0.7  # ~60% kept
        np.testing.assert_allclose(out.data[kept], 1 / 0.6, rtol=1e-5)
        out.backward(np.ones_like(out.data))
        np.testing.assert_allclose(x.grad[kept], 1 / 0.6, rtol=1e-5)
        assert np.all(x.grad[~kept] == 0)

    def test_dropout_eval_identity(self, device, rng):
        x = Tensor(np.ones((4, 4), dtype=np.float32))
        out = F.dropout(x, 0.9, device, training=False, rng=rng)
        assert out is x

    def test_dropout_invalid_p(self, device, rng):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(2)), 1.5, device, training=True, rng=rng)

    def test_concat_grads(self, device, rng):
        a = Tensor(rng.standard_normal((3, 2)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        out = F.concat(a, b, device)
        assert out.shape == (3, 6)
        g = rng.standard_normal((3, 6)).astype(np.float32)
        out.backward(g)
        np.testing.assert_allclose(a.grad, g[:, :2])
        np.testing.assert_allclose(b.grad, g[:, 2:])

    def test_device_time_recorded_both_directions(self, device, rng):
        x = Tensor(rng.standard_normal((8, 8)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((8, 8)).astype(np.float32), requires_grad=True)
        out = F.matmul(x, w, device)
        fwd_calls = device.profile().calls.get("GEMM", 0)
        out.backward(np.ones_like(out.data))
        assert device.profile().calls["GEMM"] == fwd_calls + 2  # dX and dW
