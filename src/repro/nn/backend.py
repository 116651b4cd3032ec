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
out-proj/FFN, final norm, vocabulary head) for both the single-session
:class:`~repro.nn.inference.WalkDecoder` and the ragged
continuous-batching serving engine.  There is one decode kernel, and
both callers reach it through the module-level :data:`DECODE_KERNEL`
instance, looking the method up at every call so a per-method wrapper
(a profiler's, a test's) sees every decode.
"""

from __future__ import annotations

import numpy as np

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


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu_tanh(x: np.ndarray) -> np.ndarray:
    """The ``tanh`` term of :func:`gelu`; the training op computes it
    once and hands it to both halves."""
    return np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))


def gelu(x: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """Tanh-approximated GELU (the order of Vaswani-era impls).

    The cube is ``(x * x) * x``, not ``x ** 3``: libm ``pow`` costs
    ~40x two multiplies and this runs on the FFN activation of every
    decode step.  (Fixture note: the two differ in the last ulp, so
    the seeded train-parity pins were regenerated with this order.)
    ``t`` is a precomputed :func:`gelu_tanh` of ``x``.
    """
    if t is None:
        t = gelu_tanh(x)
    return 0.5 * x * (1.0 + t)


def gelu_grad(grad: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Backward of :func:`gelu`, given its input ``x`` and
    ``t = gelu_tanh(x)``."""
    dinner = _GELU_C * (1.0 + 3 * 0.044715 * x ** 2)
    local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * dinner
    return grad * local


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

    One ``np.bincount`` over (row, column) bins.  Each bin sums its
    contributions in index order, exactly as ``np.add.at`` does, so the
    result is bit-identical to it at about a quarter of the cost.
    """
    dim = values.shape[-1]
    bins = (rows.reshape(-1, 1) * dim + np.arange(dim)).ravel()
    return np.bincount(bins, weights=values.ravel(),
                       minlength=num_rows * dim).reshape(num_rows, dim)


# ----------------------------------------------------------------------
# Decode kernel
# ----------------------------------------------------------------------
class Backend:
    """The decode kernel: one shared-kernel call per primitive."""

    def decode_step(self, weights, caches, tokens: np.ndarray,
                    position, *, mask: np.ndarray | None = None,
                    groups: list | None = None) -> np.ndarray:
        """Advance one whole transformer decode step in a single call.

        Embed + position add, then per transformer block layer-norm /
        QKV projections / KV-cached attention / output projection /
        feed-forward, then the final norm and the vocabulary head —
        one shared kernel call per primitive, in the order of the
        training forward.

        Parameters
        ----------
        weights:
            A :class:`repro.nn.inference._WalkWeights`-shaped object
            (duck-typed to avoid a circular import): ``embed``,
            ``positions``, ``blocks`` (each with ``norm1``/``norm2``/
            ``q``/``k``/``v``/``out``/``ff_in``/``ff_out`` parameter
            tuples plus ``num_heads``/``head_dim``/``dim``),
            ``final_norm`` and ``head``.
        caches:
            One :class:`~repro.nn.attention.LayerKVCache` per block;
            mutated — the step's keys/values are appended.
        tokens:
            ``(B, L)`` int64 input ids (``L == 1`` on decode steps,
            ``L > 1`` for a uniform prefill; ragged mode takes
            ``L == 1`` only).
        position:
            An ``int`` in uniform mode — every row has this many
            previously decoded positions — or a ``(B,)`` int64 array of
            per-row positions in ragged (serving) mode.
        mask:
            Optional additive attention mask over the new positions
            (the causal mask of a uniform prefill); ``None`` on
            single-token steps.
        groups:
            ``None`` selects uniform mode (:meth:`LayerKVCache.append`,
            whole-batch attention and head).  A list of ``(row0, row1,
            new_len)`` triples selects ragged serving mode: keys/values
            land via :meth:`LayerKVCache.append_ragged` and attention +
            the head GEMM run per request group over exact cache
            slices, so served walks stay byte-identical to standalone
            decode.

        Returns the ``(B, vocab)`` logits of the last new position, a
        freshly allocated array callers may hold across later steps.
        """
        batch, length = tokens.shape
        if groups is None:
            h = weights.embed[tokens] \
                + weights.positions[position: position + length]
        else:
            pos = np.asarray(position, dtype=np.int64)
            h = weights.embed[tokens] + weights.positions[pos][:, None, :]
        scale = None
        for blk, cache in zip(weights.blocks, caches):
            x = layer_norm(h, *blk.norm1)
            if scale is None:
                scale = 1.0 / np.sqrt(blk.head_dim)

            def split(t: np.ndarray) -> np.ndarray:
                return t.reshape(batch, length, blk.num_heads,
                                 blk.head_dim).transpose(0, 2, 1, 3)

            q = split(linear(x, *blk.q))
            k = split(linear(x, *blk.k))
            v = split(linear(x, *blk.v))
            if groups is None:
                k_all, v_all = cache.append(k, v)
                scores = (q @ k_all.transpose(0, 1, 3, 2)) * scale
                if mask is not None:
                    scores = scores + mask
                context = softmax(scores) @ v_all
            else:
                cache.append_ragged(k, v)
                context = np.empty_like(q)
                for row0, row1, new_len in groups:
                    k_g, v_g = cache.rows_view(row0, row1, new_len)
                    s = (q[row0:row1] @ k_g.transpose(0, 1, 3, 2)) * scale
                    context[row0:row1] = softmax(s) @ v_g
            merged = context.transpose(0, 2, 1, 3).reshape(batch, length,
                                                           blk.dim)
            h = h + linear(merged, *blk.out)
            x2 = layer_norm(h, *blk.norm2)
            hidden = gelu(linear(x2, *blk.ff_in))
            h = h + linear(hidden, *blk.ff_out)
        out = layer_norm(h[:, -1, :], *weights.final_norm)
        if groups is None:
            return linear(out, *weights.head)
        # The head GEMM's shape must match standalone decode exactly
        # (BLAS accumulation order is only guaranteed per identical
        # call), so it runs per request group, never over the batch.
        logits = np.empty((batch, weights.head[0].shape[1]))
        for row0, row1, _ in groups:
            logits[row0:row1] = linear(out[row0:row1], *weights.head)
        return logits


class FusedNumpyBackend(Backend):
    """A name, not a second kernel: ``perfbench/tracing.py`` still lists
    ``FusedNumpyBackend.decode_step`` and resolves it through the class
    ``__dict__``.  A subclass rather than an alias, so tracing wraps the
    one kernel once.  Never instantiated."""

    decode_step = Backend.decode_step


#: the one instance both decode callers run
DECODE_KERNEL = Backend()
