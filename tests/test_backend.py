"""Tests for the shared compound kernels (``repro.nn.backend``) and the
compound training ops that call them.

Covers a finite-difference gradcheck sweep of the Tensor ops and of the
compound ops of ``repro.nn.tensor``, byte-identity of the Tensor ops
with the shared compound kernels and of the compound forwards with
their op-by-op graphs, the acyclic tape, and a rerun of the seeded
training parity pins (``tests/fixtures/train_parity.json``).
"""

from __future__ import annotations

import copy
import gc
import importlib.util
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.nn import Adam, Tensor, causal_mask
from repro.nn import backend as kernels
from repro.nn import functional as F
from repro.nn.gradcheck import check_gradients
from repro.nn.tensor import (attention, embedding, layer_norm, linear, pick,
                             sequence_log_likelihood)
from repro.models.walk_lm import TransformerWalkModel
from repro.train import train_step

FIXTURES = Path(__file__).parent / "fixtures"


def _load_parity():
    spec = importlib.util.spec_from_file_location(
        "generate_train_parity", FIXTURES / "generate_train_parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


parity = _load_parity()
PINNED = json.loads((FIXTURES / "train_parity.json").read_text())


# ----------------------------------------------------------------------
# Gradcheck sweep over the Tensor ops
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


def _layer_norm(x, gamma, beta):
    return layer_norm(x, gamma, beta, 1e-5)


_MASK = causal_mask(3)
_KEEP = F.dropout_mask((2, 2, 3, 3), 0.3, np.random.default_rng(9))
_TARGETS = np.array([[1, 5, 0], [2, 2, 4]])
_VALID = np.array([[True, True, True], [True, True, False]])

# Each compound op of repro.nn.tensor as (function of the leaf tensors,
# the leaves' shapes); the sweep checks the gradient of every leaf.
COMPOUND_PROGRAMS = {
    "linear_2d": (linear, [(3, 4), (4, 5), (5,)]),
    "linear_3d": (linear, [(2, 3, 4), (4, 5), (5,)]),
    "layer_norm": (_layer_norm, [(2, 3, 5), (5,), (5,)]),
    "layer_norm_stacked": (_layer_norm, [(2, 3, 5), (2, 1, 5), (2, 1, 5)]),
    "attention": (attention, [(2, 2, 3, 4)] * 3),
    "attention_mask": (lambda q, k, v: attention(q, k, v, _MASK),
                       [(2, 2, 3, 4)] * 3),
    "attention_mask_dropout": (lambda q, k, v: attention(q, k, v, _MASK,
                                                         _KEEP),
                               [(2, 2, 3, 4)] * 3),
    "head": (lambda x, w, b: sequence_log_likelihood(x, w, b, _TARGETS),
             [(2, 3, 4), (4, 6), (6,)]),
    "head_lengths": (lambda x, w, b: sequence_log_likelihood(
        x, w, b, _TARGETS, _VALID), [(2, 3, 4), (4, 6), (6,)]),
    "embedding": (lambda w: embedding(w, _TARGETS % 5), [(5, 3)]),
    "pick": (lambda x: pick(x, _TARGETS % 4), [(2, 3, 4)]),
}


class TestGradcheckSweep:
    @pytest.mark.parametrize("program", sorted(GRADCHECK_PROGRAMS))
    def test_ops_table_gradients(self, program):
        fn = GRADCHECK_PROGRAMS[program]
        x, y = _inputs()
        check_gradients(lambda: fn(x, y), [x, y])

    @pytest.mark.parametrize("program", sorted(COMPOUND_PROGRAMS))
    def test_compound_op_gradients(self, program):
        op, shapes = COMPOUND_PROGRAMS[program]
        rng = np.random.default_rng(7)
        leaves = [Tensor(rng.standard_normal(shape), requires_grad=True)
                  for shape in shapes]
        # A random weighting keeps symmetric gradients from cancelling.
        weights = Tensor(rng.standard_normal(op(*leaves).shape))
        check_gradients(lambda: (op(*leaves) * weights).sum(), leaves)


# ----------------------------------------------------------------------
# Compound ops against the op-by-op graphs they replace
# ----------------------------------------------------------------------
def _walk_model(rng, dropout=0.0):
    return TransformerWalkModel(num_nodes=9, dim=8, num_heads=2,
                                num_layers=2, max_length=7, rng=rng,
                                dropout=dropout)


def _rng_state(model):
    """The stream every dropout of the walk model draws from."""
    return model.blocks[0].attn.attn_dropout.rng.bit_generator


def _reference_log_likelihood(model, walks, lengths=None):
    """Eq. 1 composed op by op from primitive Tensor ops, with the
    one-hot NLL mask the walk LM used before its fused head.  Dropout
    goes through the model's own ``Dropout`` modules."""
    inputs, targets = model._shift(walks)
    batch, length = inputs.shape

    def lin(m, x):
        return x @ m.weight + m.bias

    def norm(m, x):
        centered = x - x.mean(axis=-1, keepdims=True)
        var = (centered * centered).mean(axis=-1, keepdims=True)
        return centered / (var + m.eps).sqrt() * m.gamma + m.beta

    h = model.embed.weight[inputs] + Tensor(model._positions[:length])
    for blk in model.blocks:
        attn = blk.attn

        def split(t):
            return t.reshape(batch, length, attn.num_heads,
                             attn.head_dim).transpose(0, 2, 1, 3)

        x = norm(blk.norm1, h)
        q, k, v = (split(lin(p, x))
                   for p in (attn.q_proj, attn.k_proj, attn.v_proj))
        scores = ((q @ k.transpose(0, 1, 3, 2))
                  * (1.0 / np.sqrt(attn.head_dim)) + Tensor(causal_mask(length)))
        context = attn.attn_dropout(scores.softmax(axis=-1)) @ v
        merged = context.transpose(0, 2, 1, 3).reshape(batch, length, attn.dim)
        h = h + lin(attn.out_proj, merged)
        hidden = lin(blk.ff_in, norm(blk.norm2, h)).gelu()
        h = h + blk.dropout(lin(blk.ff_out, hidden))
    log_probs = lin(model.head, norm(model.final_norm, h)).log_softmax(axis=-1)
    mask = F.one_hot(targets, model.num_nodes)
    if lengths is not None:
        mask = mask * (np.arange(length)[None, :] < lengths[:, None])[..., None]
    return (log_probs * Tensor(mask.astype(log_probs.data.dtype))
            ).sum(axis=-1).sum(axis=-1)


class TestCompoundOps:
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("with_lengths", [False, True])
    def test_log_likelihood_matches_op_by_op_reference(self, with_lengths,
                                                       dropout):
        rng = np.random.default_rng(3)
        model = _walk_model(rng, dropout)
        walks = rng.integers(0, 9, (5, 6))
        lengths = np.array([6, 4, 6, 1, 5]) if with_lengths else None
        # The float32 production model: the forwards run the same floats.
        start = _rng_state(model).state
        fused = model.log_likelihood(walks, lengths=lengths)
        _rng_state(model).state = start
        reference = _reference_log_likelihood(model, walks, lengths)
        assert fused.data.dtype == np.float32
        assert np.array_equal(fused.data, reference.data)
        # The gradients, at float64 tolerances, on a float64 copy.
        model = copy.deepcopy(model).astype(np.float64)
        start = _rng_state(model).state
        fused = model.log_likelihood(walks, lengths=lengths)
        fused.sum().backward()
        grads = {name: p.grad.copy() for name, p in model.named_parameters()}
        after = _rng_state(model).state
        model.zero_grad()
        _rng_state(model).state = start
        reference = _reference_log_likelihood(model, walks, lengths)
        reference.sum().backward()
        # The same dropout draws, and the forwards run the same floats;
        # the closed-form backwards reorder sums, so the gradients agree
        # to rounding only.
        assert _rng_state(model).state == after
        assert (after != start) == (dropout > 0)
        assert np.array_equal(fused.data, reference.data)
        for name, p in model.named_parameters():
            np.testing.assert_allclose(grads[name], p.grad, rtol=1e-9,
                                       atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("reduction", ["mean", "sum", "none"])
    def test_nll_loss_matches_one_hot_path(self, reduction):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((6, 4))
        targets = rng.integers(0, 4, 6)
        weights = rng.random(6)
        results = []
        for gather in (True, False):
            x = Tensor(logits, requires_grad=True)
            log_probs = x.log_softmax(axis=-1)
            if gather:
                loss = F.nll_loss(log_probs, targets, weights, reduction)
            else:
                picked = (log_probs * Tensor(F.one_hot(targets, 4))).sum(-1)
                loss = -picked * Tensor(weights)
                loss = {"mean": loss.mean, "sum": loss.sum,
                        "none": lambda: loss}[reduction]()
            loss.backward(np.ones_like(loss.data))
            results.append((loss.data, x.grad))
        (value, grad), (ref_value, ref_grad) = results
        assert np.array_equal(value, ref_value)
        assert np.array_equal(grad, ref_grad)

    def test_head_backward_runs_once(self):
        rng = np.random.default_rng(6)
        x, w, b = (Tensor(rng.standard_normal(shape), requires_grad=True)
                   for shape in [(2, 3, 4), (4, 5), (5,)])
        out = sequence_log_likelihood(x, w, b, rng.integers(0, 5, (2, 3)))
        out.backward(np.ones(2))
        with pytest.raises(RuntimeError, match="backward ran twice"):
            out.backward(np.ones(2))

    def test_train_step_graph_is_freed_without_the_cyclic_gc(self):
        """The tape is acyclic: once a step returns, reference counting
        alone has freed its graph."""
        rng = np.random.default_rng(8)
        model = _walk_model(rng)
        params = list(model.parameters())
        optimizer = Adam(params, lr=0.01)
        walks = rng.integers(0, 9, (4, 6))
        refs = []

        def loss_fn():
            ll = model.log_likelihood(walks)
            refs.append(weakref.ref(ll))
            return -ll.mean()

        gc.disable()
        try:
            train_step(optimizer, params, loss_fn, clip_norm=5.0)
            assert refs[0]() is None
        finally:
            gc.enable()


# ----------------------------------------------------------------------
# Tensor ops evaluate the shared kernels
# ----------------------------------------------------------------------
class TestSharedKernelIdentity:
    """Every Tensor op evaluates the shared compound kernels byte for
    byte."""

    @staticmethod
    def _payload():
        rng = np.random.default_rng(11)
        return rng.standard_normal((7, 5)) * 3.0

    @pytest.mark.parametrize("op", ["sigmoid", "gelu"])
    def test_unary_compounds(self, op):
        x = self._payload()
        got = getattr(Tensor(x), op)().data
        assert np.array_equal(got, getattr(kernels, op)(x))

    @pytest.mark.parametrize("op", ["softmax", "log_softmax"])
    def test_axis_compounds(self, op):
        x = self._payload()
        for axis in (-1, 0):
            got = getattr(Tensor(x), op)(axis=axis).data
            assert np.array_equal(got, getattr(kernels, op)(x, axis=axis))

    def test_grad_kernels(self):
        rng = np.random.default_rng(12)
        grad = rng.standard_normal((7, 5))
        x = self._payload()
        cases = [("sigmoid", kernels.sigmoid_grad, kernels.sigmoid(x)),
                 ("tanh", kernels.tanh_grad, np.tanh(x)),
                 ("gelu", lambda g, x: kernels.gelu_grad(
                     g, x, kernels.gelu_tanh(x)), x)]
        for op, grad_kernel, saved in cases:
            t = Tensor(x, requires_grad=True)
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


class TestScatterRows:
    """``scatter_rows`` against its own oracle: ``np.add.at`` on a zeroed
    array, byte for byte, in the values' dtype."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows, num_rows", [
        (np.array([3, 0, 3, 3, 5, 0, 3]), 8),  # repeats; 1, 2, 4, 6, 7 unhit
        (np.array([], dtype=np.int64), 4),     # zero rows
        (np.arange(6)[::-1], 6),               # every row once
    ])
    def test_matches_add_at(self, dtype, rows, num_rows):
        rng = np.random.default_rng(14)
        values = (rng.standard_normal((rows.size, 5)) * 3.0).astype(dtype)
        expected = np.zeros((num_rows, 5), dtype=dtype)
        np.add.at(expected, rows, values)
        got = kernels.scatter_rows(rows, values, num_rows)
        assert got.dtype == np.dtype(dtype)
        assert got.shape == (num_rows, 5)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_at_the_sgns_and_walk_lm_shapes(self, dtype):
        rng = np.random.default_rng(15)
        for stacked, num_rows in ((14336, 648), (640, 326)):
            rows = rng.integers(0, num_rows, stacked)
            values = rng.standard_normal((stacked, 32)).astype(dtype)
            expected = np.zeros((num_rows, 32), dtype=dtype)
            np.add.at(expected, rows, values)
            got = kernels.scatter_rows(rows, values, num_rows)
            assert got.dtype == np.dtype(dtype)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_embedding_backward_sums_in_float64(self, dtype):
        """The embedding gradient is ``np.add.at``'s float64 sum, rounded
        once to the weight's dtype (for float64, the indexing path's)."""
        rng = np.random.default_rng(16)
        ids = rng.integers(0, 7, (4, 6))
        upstream = rng.standard_normal((4, 6, 3)).astype(dtype)
        weight = Tensor(rng.standard_normal((7, 3)).astype(dtype),
                        requires_grad=True)
        embedding(weight, ids).backward(upstream)
        expected = np.zeros((7, 3))
        np.add.at(expected, ids.ravel(),
                  upstream.reshape(-1, 3).astype(np.float64))
        assert weight.grad.dtype == np.dtype(dtype)
        assert weight.grad.tobytes() == expected.astype(dtype).tobytes()


class TestInPlaceGelu:
    """The buffer-reusing GELU kernels reproduce their expression forms
    byte for byte and leave every input unchanged."""

    C = np.sqrt(2.0 / np.pi)

    def _tanh_ref(self, x):
        return np.tanh(self.C * (x + 0.044715 * (x * x * x)))

    def _gelu_ref(self, x, t):
        return 0.5 * x * (1.0 + t)

    def _grad_ref(self, grad, x, t):
        dinner = self.C * (1.0 + 3 * 0.044715 * x ** 2)
        local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * dinner
        return grad * local

    # 2-D, 3-D (B, T, D) and 4-D (B, H, T, D) activations.
    @pytest.mark.parametrize("shape", [(7, 5), (4, 9, 16), (3, 2, 9, 16)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_expression_forms(self, shape, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape) * 3.0
        x.flat[:3] = [0.0, -1e-310, 40.0]     # zero, subnormal, saturated
        grad = rng.standard_normal(shape)
        t = self._tanh_ref(x)
        x0, t0, grad0 = x.copy(), t.copy(), grad.copy()

        assert np.array_equal(kernels.gelu_tanh(x), t)
        assert np.array_equal(kernels.gelu(x), self._gelu_ref(x, t))
        assert np.array_equal(kernels.gelu(x, t), self._gelu_ref(x, t))
        assert np.array_equal(kernels.gelu_grad(grad, x, t),
                              self._grad_ref(grad, x, t))
        for got, before in ((x, x0), (t, t0), (grad, grad0)):
            assert np.array_equal(got, before)


# ----------------------------------------------------------------------
# Seeded parity pins
# ----------------------------------------------------------------------
class TestBackendParity:
    """The pinned training digests hold: no training float moved."""

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_fit_matches_pins(self, name):
        model, history = parity.fit_model(name)
        assert parity.state_digest(model.state_dict()) \
            == PINNED[name]["state"], f"{name}: state drifted"
        assert parity.history_digest(history) \
            == PINNED[name]["history"], f"{name}: history drifted"
