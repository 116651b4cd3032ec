"""Tests for the decode-kernel selection (``repro.nn.backend``).

Covers the selection API, a finite-difference gradcheck sweep of the
Tensor ops under each backend, byte-identity of the Tensor ops with the
shared compound kernels, and a rerun of the seeded training parity pins
(``tests/fixtures/train_parity.json``) under each backend.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.nn import (Backend, FusedNumpyBackend, Tensor, active_backend,
                      set_backend, use_backend)
from repro.nn import backend as kernels
from repro.nn.backend import BACKENDS
from repro.nn.gradcheck import check_gradients

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).parents[1]


def _load_parity():
    spec = importlib.util.spec_from_file_location(
        "generate_train_parity", FIXTURES / "generate_train_parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


parity = _load_parity()
PINNED = json.loads((FIXTURES / "train_parity.json").read_text())


@pytest.fixture(autouse=True)
def _restore_backend():
    previous = active_backend().name
    yield
    set_backend(previous)


# ----------------------------------------------------------------------
# Selection API
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_backends_registered(self):
        assert list(BACKENDS) == ["numpy", "fused"]
        assert type(BACKENDS["numpy"]) is Backend
        assert type(BACKENDS["fused"]) is FusedNumpyBackend

    def test_set_backend_unknown_name(self):
        with pytest.raises(KeyError, match="unknown backend 'warp'"):
            set_backend("warp")
        # The error names the choices, to aid typo recovery.
        with pytest.raises(KeyError, match="numpy"):
            set_backend("warp")

    def test_set_backend_switches_and_returns(self):
        backend = set_backend("fused")
        assert isinstance(backend, FusedNumpyBackend)
        assert active_backend() is backend

    def test_use_backend_restores_on_exception(self):
        before = active_backend()
        with pytest.raises(RuntimeError, match="boom"):
            with use_backend("fused"):
                assert active_backend().name == "fused"
                raise RuntimeError("boom")
        assert active_backend() is before

    def test_use_backend_nests(self):
        with use_backend("fused"):
            with use_backend("numpy"):
                assert active_backend().name == "numpy"
            assert active_backend().name == "fused"


class TestEnvSelection:
    """``REPRO_BACKEND`` picks the import-time default (subprocess)."""

    def _spawn(self, env_value: str | None):
        env = dict(os.environ)
        env.pop("REPRO_BACKEND", None)
        if env_value is not None:
            env["REPRO_BACKEND"] = env_value
        extra = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src")] + ([extra] if extra else []))
        return subprocess.run(
            [sys.executable, "-c",
             "import repro.nn as nn; print(nn.active_backend().name)"],
            env=env, capture_output=True, text=True, timeout=120)

    def test_default_is_numpy(self):
        proc = self._spawn(None)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "numpy"

    def test_env_var_selects_backend(self):
        proc = self._spawn("fused")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "fused"

    def test_unknown_env_value_fails_at_import(self):
        proc = self._spawn("warp")
        assert proc.returncode != 0
        assert "unknown backend" in proc.stderr


# ----------------------------------------------------------------------
# Gradcheck sweep over the Tensor ops, per backend
# ----------------------------------------------------------------------
def _inputs():
    rng = np.random.default_rng(42)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    y = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    return x, y


# Each program is a scalar-valued function of (x, y) exercising a band
# of the Tensor ops; together they cover every differentiable primitive.
GRADCHECK_PROGRAMS = {
    "arithmetic": lambda x, y: (x * 2.0 + 1.0 - x / 3.0 + (-x)).sum(),
    "power": lambda x, y: ((x * x + 1.5) ** 2.5).mean(),
    "tensor_power": lambda x, y: ((x.abs() + 0.5)
                                  ** (y.T.abs() + 0.5)).sum(),
    "matmul_reshape": lambda x, y: (x @ y).reshape((9,)).sum(),
    "transpose_swap": lambda x, y: (x.T * y + x.swapaxes(0, 1)).sum(),
    "getitem_concat_stack": lambda x, y: (
        Tensor.concat([x, x], axis=0)[1:4].sum()
        + Tensor.stack([x, y.T]).mean()),
    "reductions": lambda x, y: (x.sum(axis=0) * x.mean(axis=0)).sum()
    + x.max() + x.sum(axis=1, keepdims=True).mean(),
    "exp_log_sqrt_abs": lambda x, y: (
        (x.abs() + 0.5).log() + (x * x + 1.0).sqrt() + (x * 0.1).exp()).sum(),
    "activations": lambda x, y: (
        x.relu() + x.tanh() + x.sigmoid() + x.gelu()).sum(),
    "clip": lambda x, y: x.clip(-0.75, 0.75).sum(),
    "softmax_family": lambda x, y: (x.softmax(axis=-1) * y.T).sum()
    + (x.log_softmax(axis=-1) * y.T).mean(),
}


class TestGradcheckSweep:
    @pytest.mark.parametrize("backend", list(BACKENDS))
    @pytest.mark.parametrize("program", sorted(GRADCHECK_PROGRAMS))
    def test_ops_table_gradients(self, backend, program):
        fn = GRADCHECK_PROGRAMS[program]
        with use_backend(backend):
            x, y = _inputs()
            check_gradients(lambda: fn(x, y), [x, y])


# ----------------------------------------------------------------------
# Tensor ops evaluate the shared kernels under either backend
# ----------------------------------------------------------------------
class TestFusedBitIdentity:
    """Selecting ``fused`` swaps only the decode kernel: every Tensor op
    still evaluates the shared compound kernels byte for byte."""

    @staticmethod
    def _payload():
        rng = np.random.default_rng(11)
        return rng.standard_normal((7, 5)) * 3.0

    @pytest.mark.parametrize("op", ["sigmoid", "gelu"])
    def test_unary_compounds(self, op):
        x = self._payload()
        with use_backend("fused"):
            got = getattr(Tensor(x), op)().data
        assert np.array_equal(got, getattr(kernels, op)(x))

    @pytest.mark.parametrize("op", ["softmax", "log_softmax"])
    def test_axis_compounds(self, op):
        x = self._payload()
        for axis in (-1, 0):
            with use_backend("fused"):
                got = getattr(Tensor(x), op)(axis=axis).data
            assert np.array_equal(got, getattr(kernels, op)(x, axis=axis))

    def test_grad_kernels(self):
        rng = np.random.default_rng(12)
        grad = rng.standard_normal((7, 5))
        x = self._payload()
        cases = [("sigmoid", kernels.sigmoid_grad, kernels.sigmoid(x)),
                 ("tanh", kernels.tanh_grad, np.tanh(x)),
                 ("gelu", kernels.gelu_grad, x)]
        for op, grad_kernel, saved in cases:
            t = Tensor(x, requires_grad=True)
            with use_backend("fused"):
                getattr(t, op)().backward(grad)
            assert np.array_equal(t.grad, grad_kernel(grad, saved)), op

    def test_layer_norm_and_linear(self):
        """The decode kernels' layer norm and affine map reproduce the
        training modules' bytes."""
        from repro.nn import LayerNorm, Linear

        rng = np.random.default_rng(13)
        x = rng.standard_normal((6, 8))
        norm = LayerNorm(8)
        norm.gamma.data = rng.standard_normal(8)
        norm.beta.data = rng.standard_normal(8)
        lin = Linear(8, 4, rng)
        lin.bias.data = rng.standard_normal(4)
        assert np.array_equal(
            kernels.layer_norm(x, norm.gamma.data, norm.beta.data, norm.eps),
            norm(Tensor(x)).data)
        assert np.array_equal(
            kernels.linear(x, lin.weight.data, lin.bias.data),
            lin(Tensor(x)).data)
        assert np.array_equal(kernels.linear(x, lin.weight.data),
                              x @ lin.weight.data)

    def test_compound_kernels_do_not_mutate_inputs(self):
        x = self._payload()
        snapshot = x.copy()
        kernels.sigmoid(x)
        kernels.gelu(x)
        kernels.softmax(x)
        kernels.log_softmax(x)
        kernels.layer_norm(x, np.ones(5), np.zeros(5), 1e-5)
        np.testing.assert_array_equal(x, snapshot)


# ----------------------------------------------------------------------
# Seeded parity pins under each backend
# ----------------------------------------------------------------------
class TestBackendParity:
    """The pinned training digests hold under each backend — selecting
    one changes no training float."""

    @pytest.mark.parametrize("backend", list(BACKENDS))
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_fit_matches_pins(self, backend, name):
        with use_backend(backend):
            model, history = parity.fit_model(name)
        assert parity.state_digest(model.state_dict()) \
            == PINNED[name]["state"], f"{name}@{backend}: state drifted"
        assert parity.history_digest(history) \
            == PINNED[name]["history"], f"{name}@{backend}: history drifted"
