"""Tests for the autograd engine: every op forward + gradient."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.nn import Tensor, no_grad, is_grad_enabled
from repro.nn.gradcheck import check_gradients


def _rand(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestBasics:
    def test_construction_defaults(self):
        t = Tensor([1.0, 2.0])
        assert t.shape == (2,)
        assert not t.requires_grad
        assert t.grad is None

    def test_data_is_float64(self):
        assert Tensor([1, 2, 3]).data.dtype == np.float64

    def test_item_and_len(self):
        assert Tensor(3.5).item() == 3.5
        assert len(Tensor([1, 2, 3])) == 3

    def test_detach_cuts_graph(self, rng):
        x = _rand(rng, 3)
        d = (x * 2).detach()
        assert not d.requires_grad
        assert d._prev == ()

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_grad_arg(self, rng):
        x = _rand(rng, 3)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_with_explicit_grad(self, rng):
        x = _rand(rng, 3)
        y = x * 3.0
        y.backward(np.ones(3))
        np.testing.assert_allclose(x.grad, 3.0 * np.ones(3))

    def test_repr_mentions_requires_grad(self, rng):
        assert "requires_grad" in repr(_rand(rng, 2))


class TestNoGrad:
    def test_no_grad_context(self, rng):
        x = _rand(rng, 2)
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2
        assert is_grad_enabled()
        assert not y.requires_grad

    def test_no_grad_nested_restores(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()


class TestArithmeticGradients:
    def test_add(self, rng):
        x, y = _rand(rng, 3, 2), _rand(rng, 3, 2)
        check_gradients(lambda: (x + y).sum(), [x, y])

    def test_add_broadcast(self, rng):
        x, y = _rand(rng, 3, 2), _rand(rng, 2)
        check_gradients(lambda: (x + y).sum(), [x, y])

    def test_radd_scalar(self, rng):
        x = _rand(rng, 3)
        check_gradients(lambda: (2.0 + x).sum(), [x])

    def test_sub(self, rng):
        x, y = _rand(rng, 2, 3), _rand(rng, 2, 3)
        check_gradients(lambda: (x - y).sum(), [x, y])

    def test_rsub(self, rng):
        x = _rand(rng, 3)
        check_gradients(lambda: (1.0 - x).sum(), [x])

    def test_mul(self, rng):
        x, y = _rand(rng, 4), _rand(rng, 4)
        check_gradients(lambda: (x * y).sum(), [x, y])

    def test_mul_broadcast_scalar_tensor(self, rng):
        x, s = _rand(rng, 3, 2), _rand(rng, 1)
        check_gradients(lambda: (x * s).sum(), [x, s])

    def test_div(self, rng):
        x = _rand(rng, 4)
        y = Tensor(np.abs(np.random.default_rng(0).normal(size=4)) + 1.0,
                   requires_grad=True)
        check_gradients(lambda: (x / y).sum(), [x, y])

    def test_rtruediv(self, rng):
        y = Tensor(np.abs(rng.normal(size=3)) + 1.0, requires_grad=True)
        check_gradients(lambda: (2.0 / y).sum(), [y])

    def test_neg(self, rng):
        x = _rand(rng, 3)
        check_gradients(lambda: (-x).sum(), [x])

    def test_pow(self, rng):
        x = Tensor(np.abs(rng.normal(size=4)) + 0.5, requires_grad=True)
        check_gradients(lambda: (x ** 3).sum(), [x])

    def test_pow_tensor_exponent(self, rng):
        base = Tensor(np.abs(rng.normal(size=4)) + 0.5, requires_grad=True)
        exponent = _rand(rng, 4)
        check_gradients(lambda: (base ** exponent).sum(), [base, exponent])

    def test_pow_numpy_scalar_exponent(self, rng):
        x = Tensor(np.abs(rng.normal(size=4)) + 0.5, requires_grad=True)
        check_gradients(lambda: (x ** np.float64(2.5)).sum(), [x])
        check_gradients(lambda: (x ** np.int64(3)).sum(), [x])

    def test_rpow(self, rng):
        exponent = _rand(rng, 3)
        check_gradients(lambda: (2.0 ** exponent).sum(), [exponent])

    def test_pow_rejects_non_numeric_exponent(self, rng):
        with pytest.raises(TypeError, match="exponent"):
            _rand(rng, 2) ** "2"
        with pytest.raises(TypeError, match="exponent"):
            _rand(rng, 2) ** [1.0, 2.0]


class TestMatmulGradients:
    def test_matmul_2d(self, rng):
        a, b = _rand(rng, 3, 4), _rand(rng, 4, 2)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_matmul_batched(self, rng):
        a, b = _rand(rng, 2, 3, 4), _rand(rng, 2, 4, 5)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_matmul_broadcast_batch(self, rng):
        a, b = _rand(rng, 2, 3, 4), _rand(rng, 4, 5)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_matmul_vector_vector(self, rng):
        a, b = _rand(rng, 4), _rand(rng, 4)
        check_gradients(lambda: a @ b, [a, b])

    def test_matmul_matrix_vector(self, rng):
        a, b = _rand(rng, 3, 4), _rand(rng, 4)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_matmul_vector_matrix(self, rng):
        a, b = _rand(rng, 4), _rand(rng, 4, 3)
        check_gradients(lambda: (a @ b).sum(), [a, b])


class TestShapeOps:
    def test_reshape(self, rng):
        x = _rand(rng, 2, 6)
        check_gradients(lambda: x.reshape(3, 4).sum(), [x])

    def test_reshape_tuple_arg(self, rng):
        x = _rand(rng, 4)
        assert x.reshape((2, 2)).shape == (2, 2)

    def test_transpose_default(self, rng):
        x = _rand(rng, 2, 3)
        assert x.T.shape == (3, 2)
        check_gradients(lambda: (x.T * Tensor(np.ones((3, 2)))).sum(), [x])

    def test_transpose_axes(self, rng):
        x = _rand(rng, 2, 3, 4)
        assert x.transpose(0, 2, 1).shape == (2, 4, 3)
        check_gradients(lambda: x.transpose(2, 0, 1).sum(), [x])

    def test_swapaxes(self, rng):
        x = _rand(rng, 2, 3, 4)
        assert x.swapaxes(1, 2).shape == (2, 4, 3)
        check_gradients(lambda: x.swapaxes(0, 1).sum(), [x])

    def test_getitem_slice(self, rng):
        x = _rand(rng, 4, 3)
        check_gradients(lambda: x[1:3].sum(), [x])

    def test_getitem_fancy_repeated_indices_accumulate(self, rng):
        x = _rand(rng, 4)
        y = x[np.array([0, 0, 1])]
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 1.0, 0.0, 0.0])

    def test_concat(self, rng):
        a, b = _rand(rng, 2, 3), _rand(rng, 4, 3)
        out = Tensor.concat([a, b], axis=0)
        assert out.shape == (6, 3)
        check_gradients(lambda: Tensor.concat([a, b], axis=0).sum(), [a, b])

    def test_stack(self, rng):
        a, b = _rand(rng, 3), _rand(rng, 3)
        out = Tensor.stack([a, b], axis=0)
        assert out.shape == (2, 3)
        check_gradients(lambda: Tensor.stack([a, b], axis=1).sum(), [a, b])


class TestReductions:
    def test_sum_all(self, rng):
        x = _rand(rng, 3, 4)
        check_gradients(lambda: x.sum(), [x])

    def test_sum_axis_keepdims(self, rng):
        x = _rand(rng, 3, 4)
        assert x.sum(axis=1, keepdims=True).shape == (3, 1)
        check_gradients(lambda: x.sum(axis=0).sum(), [x])

    def test_mean(self, rng):
        x = _rand(rng, 3, 4)
        check_gradients(lambda: x.mean(), [x])
        check_gradients(lambda: x.mean(axis=1).sum(), [x])

    def test_mean_matches_numpy(self, rng):
        x = _rand(rng, 5)
        assert x.mean().item() == pytest.approx(x.numpy().mean())

    def test_max_forward(self):
        x = Tensor([[1.0, 5.0], [3.0, 2.0]], requires_grad=True)
        np.testing.assert_allclose(x.max(axis=1).numpy(), [5.0, 3.0])

    def test_max_gradient_ties_split(self):
        x = Tensor([2.0, 2.0, 1.0], requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.5, 0.0])


class TestElementwise:
    @pytest.mark.parametrize("op", ["exp", "tanh", "sigmoid", "relu",
                                    "gelu", "abs", "sqrt", "log"])
    def test_unary_gradients(self, rng, op):
        data = np.abs(rng.normal(size=5)) + 0.5  # positive for log/sqrt
        x = Tensor(data, requires_grad=True)
        check_gradients(lambda: getattr(x, op)().sum(), [x])

    def test_relu_zeroes_negatives(self):
        x = Tensor([-1.0, 2.0])
        np.testing.assert_allclose(x.relu().numpy(), [0.0, 2.0])

    def test_sigmoid_range(self, rng):
        x = Tensor(rng.normal(size=10) * 100)
        s = x.sigmoid().numpy()
        assert (s >= 0).all() and (s <= 1).all()

    def test_clip_gradient_masks_outside(self):
        x = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


class TestSoftmax:
    def test_softmax_rows_sum_to_one(self, rng):
        x = _rand(rng, 4, 6)
        s = x.softmax(axis=-1).numpy()
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(4))

    def test_softmax_gradient(self, rng):
        x = _rand(rng, 3, 4)
        coef = rng.normal(size=(3, 4))
        check_gradients(lambda: (x.softmax(axis=-1) * Tensor(coef)).sum(), [x])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = _rand(rng, 3, 5)
        np.testing.assert_allclose(x.log_softmax(axis=-1).numpy(),
                                   np.log(x.softmax(axis=-1).numpy()),
                                   atol=1e-10)

    def test_log_softmax_gradient(self, rng):
        x = _rand(rng, 2, 5)
        coef = rng.normal(size=(2, 5))
        check_gradients(
            lambda: (x.log_softmax(axis=-1) * Tensor(coef)).sum(), [x])

    def test_softmax_stable_for_large_logits(self):
        x = Tensor([1000.0, 1001.0])
        s = x.softmax().numpy()
        assert np.isfinite(s).all()
        assert s[1] > s[0]


class TestGraphMechanics:
    def test_gradient_accumulates_over_reuse(self, rng):
        x = _rand(rng, 3)
        y = x * 2 + x * 3  # x used twice
        y.sum().backward()
        np.testing.assert_allclose(x.grad, 5.0 * np.ones(3))

    def test_diamond_graph(self, rng):
        x = _rand(rng, 2)

        def fn():
            a = x * 2
            b = x + 1
            return (a * b).sum()

        check_gradients(fn, [x])

    def test_zero_grad_clears(self, rng):
        x = _rand(rng, 2)
        (x * 2).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_deep_chain_no_recursion_error(self, rng):
        x = _rand(rng, 2)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.sum().backward()  # iterative topo sort: must not blow the stack
        np.testing.assert_allclose(x.grad, np.ones(2))


class TestThreadLocalGrad:
    def test_no_grad_in_one_thread_does_not_leak_into_another(self):
        """A thread inside ``no_grad()`` must not disable recording in
        concurrently running threads (the old process-global flag did)."""
        entered, release = threading.Event(), threading.Event()
        failures: list[BaseException] = []

        def holder():
            try:
                with no_grad():
                    entered.set()
                    release.wait(10.0)
            except BaseException as exc:  # pragma: no cover - diagnostics
                failures.append(exc)

        thread = threading.Thread(target=holder)
        thread.start()
        try:
            assert entered.wait(10.0)
            # While the other thread holds no_grad, this thread records.
            x = Tensor(np.ones(3), requires_grad=True)
            y = (x * 2.0).sum()
            assert y.requires_grad
            y.backward()
            np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
        finally:
            release.set()
            thread.join(10.0)
        assert not failures

    def test_worker_thread_has_independent_flag(self):
        results: dict[str, bool] = {}

        def worker():
            with no_grad():
                t = Tensor(np.ones(2), requires_grad=True)
                results["inside"] = (t * 3.0).requires_grad
            t = Tensor(np.ones(2), requires_grad=True)
            results["after"] = (t * 3.0).requires_grad

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(10.0)
        assert results == {"inside": False, "after": True}

    def test_nested_no_grad_restores_outer_state(self):
        with no_grad():
            with no_grad():
                pass
            t = Tensor(np.ones(2), requires_grad=True)
            assert not (t + 1.0).requires_grad
        t = Tensor(np.ones(2), requires_grad=True)
        assert (t + 1.0).requires_grad
