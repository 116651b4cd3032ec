"""Compound tensor kernels, and the one grad-free decode forward.

The compound kernels of the engine live here as plain functions,
written once, and both paths call them: the training forward — the
:class:`~repro.nn.Tensor` activations and softmax family, and the
compound ops of :mod:`repro.nn.tensor` (``linear``, ``layer_norm``,
the attention core's softmax, the walk-LM head's ``log_softmax``) —
and the grad-free :meth:`Backend.decode_step`.  So training and decode
run one forward per op.  The backward halves live with the ops in
:mod:`repro.nn.tensor`; the pass-through ops (``add``, ``matmul``,
``sum`` ...) are plain numpy calls there.

:meth:`Backend.decode_step` advances a whole transformer decode step
(embed + positions, every block's layer-norm/QKV/cached-attention/
out-proj/FFN, final norm, vocabulary head) in one mode: the batch is a
list of ``(row0, row1)`` row groups whose rows share a length, and
each row's position is its KV-cache length.  It reads the parameters
straight off the walk LM at every call, so there is no weight snapshot
to go stale.  :meth:`TransformerWalkModel.sample` passes one group,
the continuous-batching serving engine one group per request; both
prefill with the same call (plus the prompt's causal mask) on the
model's fresh ``new_caches``.  There is one decode kernel, and both
callers reach it through the module-level :data:`DECODE_KERNEL`
instance, looking the method up at every call so a per-method wrapper
(a profiler's, a test's) sees every decode.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

__all__ = ["Backend", "DECODE_KERNEL",
           "relu", "relu_grad", "sigmoid", "sigmoid_grad", "tanh_grad",
           "gelu", "gelu_tanh", "gelu_grad", "softmax", "log_softmax",
           "layer_norm", "linear", "scatter_rows"]


# ----------------------------------------------------------------------
# Compound kernels (shared by Tensor and decode_step)
# ----------------------------------------------------------------------
def relu(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``x * (x > 0)`` given the precomputed mask (reused backward)."""
    return x * mask


def relu_grad(grad: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return grad * mask


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def sigmoid_grad(grad: np.ndarray, out: np.ndarray) -> np.ndarray:
    return grad * out * (1.0 - out)


def tanh_grad(grad: np.ndarray, out: np.ndarray) -> np.ndarray:
    return grad * (1.0 - out ** 2)


# Python floats, not NumPy scalars, so a float32 activation stays float32
# (NEP 50: a NumPy float64 scalar would promote it).
_GELU_C = math.sqrt(2.0 / math.pi)


def gelu_tanh(x: np.ndarray) -> np.ndarray:
    """The ``tanh`` term of :func:`gelu`; the training op computes it
    once and hands it to both halves.

    ``tanh(C * (x + 0.044715 * ((x * x) * x)))`` on one buffer.
    """
    t = np.multiply(x, x)
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    return np.tanh(t, out=t)


def gelu(x: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """Tanh-approximated GELU (the order of Vaswani-era impls).

    The cube is ``(x * x) * x``, not ``x ** 3``: libm ``pow`` costs
    ~40x two multiplies and this runs on the FFN activation of every
    decode step.  (Fixture note: the two differ in the last ulp, so
    the seeded train-parity pins were regenerated with this order.)
    ``t`` is a precomputed :func:`gelu_tanh` of ``x``.

    ``(0.5 * x) * (1.0 + t)`` on two buffers; ``x`` and a passed ``t``
    are left unchanged (the training op's backward reuses both).
    """
    if t is None:
        one_plus_t = gelu_tanh(x)
        one_plus_t += 1.0
    else:
        one_plus_t = np.add(t, 1.0)
    out = np.multiply(x, 0.5)
    out *= one_plus_t
    return out


def gelu_grad(grad: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Backward of :func:`gelu`, given its input ``x`` and
    ``t = gelu_tanh(x)``.

    ``grad * (0.5 * (1 + t) + ((0.5 * x) * (1 - t**2)) * dinner)`` with
    ``dinner = C * (1 + 3 * 0.044715 * x**2)``, on two buffers; no input
    is changed.
    """
    a = np.multiply(t, t)
    np.subtract(1.0, a, out=a)
    b = np.multiply(x, 0.5)
    b *= a                                      # (0.5 * x) * (1 - t**2)
    np.multiply(x, x, out=a)
    a *= 3 * 0.044715
    a += 1.0
    a *= _GELU_C                                # dinner
    b *= a
    np.add(t, 1.0, out=a)
    a *= 0.5
    a += b
    a *= grad
    return a


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1,
                out: np.ndarray | None = None) -> np.ndarray:
    """``out=x`` computes in place: the same floats, one buffer fewer."""
    shifted = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return np.subtract(shifted, log_z, out=out)


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
               eps: float, *, with_stats: bool = False):
    """Layer norm over the last axis.

    ``with_stats=True`` also returns the normalised input and the
    standard deviation, ``(out, normed, std)`` — what the training op's
    backward needs.
    """
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    std = np.sqrt(var + eps)
    normed = centered / std
    out = normed * gamma + beta
    return (out, normed, std) if with_stats else out


def linear(x: np.ndarray, weight: np.ndarray,
           bias: np.ndarray | None = None) -> np.ndarray:
    """Affine map ``x @ weight + bias`` (the bias lands in place on the
    fresh GEMM output)."""
    out = x @ weight
    if bias is not None:
        out += bias
    return out


def scatter_rows(rows: np.ndarray, values: np.ndarray,
                 num_rows: int) -> np.ndarray:
    """``out[r] = sum(values[i] for i where rows[i] == r)``, ``(num_rows, d)``.

    One sparse product: a ``(num_rows, m)`` 0/1 indicator in CSR form
    times the ``(m, d)`` values, in the values' dtype.  Each CSR row keeps
    its entries in index order and the product adds ``1 * values[i]`` to
    a zeroed row in that order, exactly as ``np.add.at`` does, so the
    result is bit-identical to it, in float32 as in float64.
    """
    m = rows.size
    indicator = sp.csr_matrix((np.ones(m, dtype=values.dtype),
                               (rows, np.arange(m))), shape=(num_rows, m))
    return indicator @ values


# ----------------------------------------------------------------------
# Decode kernel
# ----------------------------------------------------------------------
def _norm(x: np.ndarray, norm) -> np.ndarray:
    """:func:`layer_norm` with a :class:`~repro.nn.LayerNorm`'s live
    parameters."""
    return layer_norm(x, norm.gamma.data, norm.beta.data, norm.eps)


def _affine(x: np.ndarray, layer) -> np.ndarray:
    """:func:`linear` with a :class:`~repro.nn.Linear`'s live
    parameters."""
    return linear(x, layer.weight.data, layer.bias.data)


class Backend:
    """The decode kernel: one shared-kernel call per primitive."""

    def decode_step(self, model, caches, tokens: np.ndarray, groups, *,
                    mask: np.ndarray | None = None) -> np.ndarray:
        """Advance one whole transformer decode step in a single call.

        Embed + position add, then per transformer block layer-norm /
        QKV projections / KV-cached attention / output projection /
        feed-forward, then the final norm and the vocabulary head —
        one shared kernel call per primitive, in the order of the
        training forward.  Plain ndarrays throughout: no
        :class:`~repro.nn.Tensor`, no graph, and no dropout (the
        training path applies it only under autograd anyway).

        Parameters
        ----------
        model:
            The :class:`~repro.models.walk_lm.TransformerWalkModel`
            (duck-typed to avoid a circular import).  Its embedding,
            position table, blocks, final norm and head are read at
            every call, so a step always runs the live parameters — a
            ``load_state_dict`` between two steps takes effect at the
            next one.
        caches:
            One :class:`~repro.nn.attention.LayerKVCache` per block
            (``model.new_caches(B)``), holding the ``B`` rows of
            ``tokens``; mutated — the step's keys/values are appended.
            Each row's position is its ``caches[0].row_lengths`` entry.
        tokens:
            ``(B, L)`` int64 input ids (``L > 1`` for a prefill,
            ``L == 1`` on decode steps).
        groups:
            ``(row0, row1)`` pairs partitioning the batch into row
            groups that share a length: ``[(0, B)]`` for a sampling
            session, one pair per request for the serving engine.
        mask:
            Optional additive attention mask over the new positions
            (the causal mask of a prefill); ``None`` on single-token
            steps.

        Rows are independent everywhere but in attention and the head:
        embedding, layer norms, GELU and residual adds are row-wise,
        and the ``(B, L, D) @ (D, D')`` projections are per-row GEMMs.
        Attention and the head GEMM run per group over the group's exact
        cache window, so a row's logits never depend on which other
        groups share the step, and served walks stay byte-identical to
        standalone decode.

        Returns the ``(B, vocab)`` logits of the last new position, a
        freshly allocated array callers may hold across later steps.
        """
        batch, length = tokens.shape
        pos = caches[0].row_lengths[:, None] + np.arange(length)
        h = model.embed.weight.data[tokens] + model._positions[pos]
        for block, cache in zip(model.blocks, caches):
            attn = block.attn
            x = _norm(h, block.norm1)

            def split(t: np.ndarray) -> np.ndarray:
                return t.reshape(batch, length, attn.num_heads,
                                 attn.head_dim).transpose(0, 2, 1, 3)

            q = split(_affine(x, attn.q_proj))
            k = split(_affine(x, attn.k_proj))
            v = split(_affine(x, attn.v_proj))
            scale = 1.0 / math.sqrt(attn.head_dim)
            context = np.empty_like(q)
            for row0, row1 in groups:
                k_g, v_g = cache.append(k[row0:row1], v[row0:row1],
                                        row0, row1)
                scores = (q[row0:row1] @ k_g.transpose(0, 1, 3, 2)) * scale
                if mask is not None:
                    scores = scores + mask
                np.matmul(softmax(scores), v_g, out=context[row0:row1])
            merged = context.transpose(0, 2, 1, 3).reshape(batch, length,
                                                           attn.dim)
            h = h + _affine(merged, attn.out_proj)
            hidden = gelu(_affine(_norm(h, block.norm2), block.ff_in))
            h = h + _affine(hidden, block.ff_out)
        out = _norm(h[:, -1, :], model.final_norm)
        # The head GEMM's shape must match standalone decode exactly
        # (BLAS accumulation order is only guaranteed per identical
        # call), so it runs per group, never over the batch.
        head_w, head_b = model.head.weight.data, model.head.bias.data
        logits = np.empty((batch, head_w.shape[1]), dtype=out.dtype)
        for row0, row1 in groups:
            rows = logits[row0:row1]
            np.matmul(out[row0:row1], head_w, out=rows)
            rows += head_b
        return logits


class FusedNumpyBackend(Backend):
    """A name, not a second kernel: ``perfbench/tracing.py`` still lists
    ``FusedNumpyBackend.decode_step`` and resolves it through the class
    ``__dict__``.  A subclass rather than an alias, so tracing wraps the
    one kernel once.  Never instantiated."""

    decode_step = Backend.decode_step


#: the one instance both decode callers run
DECODE_KERNEL = Backend()
