"""Compound tensor kernels, and the one op a backend swaps: decode.

The compound kernels of the engine live here as plain functions,
written once, and both paths call them: the training forward — the
:class:`~repro.nn.Tensor` activations and softmax family, and the
compound ops of :mod:`repro.nn.tensor` (``linear``, ``layer_norm``,
the attention core's softmax, the walk-LM head's ``log_softmax``) —
and the grad-free :meth:`Backend.decode_step`.  So training and decode
run one forward per op.  The backward halves live with the ops in
:mod:`repro.nn.tensor`; the pass-through ops (``add``, ``matmul``,
``sum`` ...) are plain numpy calls there.

A backend replaces exactly one op: :meth:`Backend.decode_step`, which
advances a whole transformer decode step (embed + positions, every
block's layer-norm/QKV/cached-attention/out-proj/FFN, final norm,
vocabulary head) for both the single-session
:class:`~repro.nn.inference.WalkDecoder` and the ragged
continuous-batching serving engine.  Two kernels exist:

* ``"numpy"`` — :class:`Backend`, the per-op reference: one shared
  kernel call per primitive;
* ``"fused"`` — :class:`FusedNumpyBackend`, the same float sequence run
  inside preallocated per-session scratch buffers
  (:func:`scratch_buffer`), bit-identical to the reference.

Selection precedence
--------------------
1. :func:`set_backend` / :func:`use_backend` at runtime (the CLI's
   global ``--backend`` flag calls :func:`set_backend`);
2. the ``REPRO_BACKEND`` environment variable, read once at import;
3. the ``"numpy"`` default.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["Backend", "FusedNumpyBackend", "BACKENDS", "set_backend",
           "use_backend", "active", "scratch_buffer",
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


def scratch_buffer(scratch: dict | None, name: str,
                   shape: tuple) -> np.ndarray:
    """Fetch (or lazily build) a reusable float64 work buffer.

    ``scratch`` is a plain dict owned by the decode session
    (:class:`~repro.nn.inference.WalkDecoder`, or one engine batch of
    :class:`repro.serve.ContinuousBatcher`); a buffer is reallocated
    only when its requested shape changes, so steady-state decode steps
    run entirely inside preallocated memory.  ``scratch=None`` falls
    back to a fresh allocation (the prefill path, which runs once per
    session and at a different sequence length).
    """
    if scratch is None:
        return np.empty(shape)
    buf = scratch.get(name)
    if buf is None or buf.shape != shape:
        buf = np.empty(shape)
        scratch[name] = buf
    return buf


# ----------------------------------------------------------------------
# Decode kernels
# ----------------------------------------------------------------------
class Backend:
    """The ``numpy`` decode kernel: the per-op reference."""

    name = "numpy"

    def decode_step(self, weights, caches, tokens: np.ndarray,
                    position, *, mask: np.ndarray | None = None,
                    groups: list | None = None,
                    scratch: dict | None = None) -> np.ndarray:
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
        scratch:
            Optional dict of session-owned work buffers (see
            :func:`scratch_buffer`); the fused kernel decodes whole
            steps without allocating, the reference ignores it.

        Returns the ``(B, vocab)`` logits of the last new position —
        always a freshly allocated array, never a view of ``scratch``,
        so callers may hold it across subsequent steps.
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
    """The ``fused`` decode kernel: the reference in scratch buffers."""

    name = "fused"

    def decode_step(self, weights, caches, tokens: np.ndarray,
                    position, *, mask: np.ndarray | None = None,
                    groups: list | None = None,
                    scratch: dict | None = None) -> np.ndarray:
        """Whole decode step with in-place ``out=`` scratch buffers.

        Same float sequence as the reference (every in-place rewrite
        preserves the reference rounding order, verified by the
        decode-step parity suite), but the entire step runs inside the
        session's preallocated ``scratch`` dict: no per-op temporaries,
        no per-layer closure builds, one Python call per token.  Beyond
        buffer reuse, two wrapper bypasses keep the values untouched
        while cutting dispatch cost: reductions go straight to
        ``np.add.reduce``/``np.maximum.reduce`` (exactly what
        ``ndarray.mean``/``max``/``sum`` delegate to), and attention
        scores live in a *flat* scratch buffer re-viewed contiguously
        at each step's exact ``(.., length)`` shape — a sliced 4-D
        buffer would hand strided views to matmul/softmax, which numpy
        processes measurably slower than contiguous ones.  Only the
        returned logits are freshly allocated.
        """
        batch, length = tokens.shape
        positions_tab = weights.positions
        dim = positions_tab.shape[1]
        h = scratch_buffer(scratch, "h", (batch, length, dim))
        np.take(weights.embed, tokens, axis=0, out=h)
        if groups is None:
            h += positions_tab[position: position + length]
        else:
            pos = np.asarray(position, dtype=np.int64)
            pbuf = scratch_buffer(scratch, "pos", (batch, dim))
            np.take(positions_tab, pos, axis=0, out=pbuf)
            h += pbuf[:, None, :]
        x = scratch_buffer(scratch, "x", (batch, length, dim))
        sq = scratch_buffer(scratch, "sq", (batch, length, dim))
        mu = scratch_buffer(scratch, "mu", (batch, length, 1))
        var = scratch_buffer(scratch, "var", (batch, length, 1))
        cap = caches[0].capacity
        if cap is None:
            cap = caches[0].length + length
        blk0 = weights.blocks[0]
        heads, head_dim = blk0.num_heads, blk0.head_dim
        scale = 1.0 / np.sqrt(head_dim)
        qkv = scratch_buffer(scratch, "qkv", (batch, length, 3 * dim))
        o = scratch_buffer(scratch, "o", (batch, length, dim))
        sflat = scratch_buffer(scratch, "scores",
                               (batch * heads * length * cap,))
        ctx = scratch_buffer(scratch, "ctx", (batch, heads, length, head_dim))
        ff_dim = blk0.ff_in[0].shape[1]
        ff = scratch_buffer(scratch, "ff", (batch, length, ff_dim))
        g1 = scratch_buffer(scratch, "gelu1", (batch, length, ff_dim))
        g2 = scratch_buffer(scratch, "gelu2", (batch, length, ff_dim))
        c_gelu = np.sqrt(2.0 / np.pi)

        def norm(src, dst, gamma, beta, eps):
            # layer_norm with out= buffers, reference rounding order;
            # ndarray.mean is umr_sum/count under the hood, so the
            # direct add.reduce + divide is the same float sequence.
            # (No augmented assignment on mu/var: they are closed over,
            # and `mu /= dim` would rebind them as locals.)
            np.add.reduce(src, axis=-1, keepdims=True, out=mu)
            np.divide(mu, dim, out=mu)
            np.subtract(src, mu, out=dst)
            np.multiply(dst, dst, out=sq)
            np.add.reduce(sq, axis=-1, keepdims=True, out=var)
            np.divide(var, dim, out=var)
            np.add(var, eps, out=var)
            np.sqrt(var, out=var)
            dst /= var
            dst *= gamma
            dst += beta

        for idx, (blk, cache) in enumerate(zip(weights.blocks, caches)):
            norm(h, x, *blk.norm1)
            # One GEMM over the concatenated [Wq|Wk|Wv] block: per output
            # element BLAS accumulates over the same k-dim regardless of
            # how many columns ride along, so each column block is
            # bit-identical to its standalone projection (pinned by the
            # decode-step parity suite).  The concat itself is built once
            # per session and cached in scratch keyed by weight identity.
            w_qkv, b_qkv = _qkv_concat(scratch, idx, blk)
            np.matmul(x, w_qkv, out=qkv)
            qkv += b_qkv
            q = qkv[:, :, :dim].reshape(batch, length, heads,
                                        head_dim).transpose(0, 2, 1, 3)
            k = qkv[:, :, dim:2 * dim].reshape(batch, length, heads,
                                               head_dim).transpose(0, 2, 1, 3)
            v = qkv[:, :, 2 * dim:].reshape(batch, length, heads,
                                            head_dim).transpose(0, 2, 1, 3)
            if groups is None:
                k_all, v_all = cache.append(k, v)
                n = batch * heads * length * cache.length
                s = sflat[:n].reshape(batch, heads, length, cache.length)
                np.matmul(q, k_all.transpose(0, 1, 3, 2), out=s)
                s *= scale
                if mask is not None:
                    s += mask
                _softmax_inplace(s)
                np.matmul(s, v_all, out=ctx)
            else:
                cache.append_ragged(k, v)
                for row0, row1, new_len in groups:
                    k_g, v_g = cache.rows_view(row0, row1, new_len)
                    n = (row1 - row0) * heads * length * new_len
                    s = sflat[:n].reshape(row1 - row0, heads, length,
                                          new_len)
                    np.matmul(q[row0:row1], k_g.transpose(0, 1, 3, 2),
                              out=s)
                    s *= scale
                    _softmax_inplace(s)
                    np.matmul(s, v_g, out=ctx[row0:row1])
            merged = ctx.transpose(0, 2, 1, 3).reshape(batch, length, dim)
            np.matmul(merged, blk.out[0], out=o)
            o += blk.out[1]
            h += o
            norm(h, x, *blk.norm2)
            np.matmul(x, blk.ff_in[0], out=ff)
            ff += blk.ff_in[1]
            # gelu in scratch: the exact op sequence of gelu() above
            np.multiply(ff, ff, out=g1)
            g1 *= ff                   # (x * x) * x
            g1 *= 0.044715
            g1 += ff
            g1 *= c_gelu
            np.tanh(g1, out=g1)
            g1 += 1.0
            np.multiply(ff, 0.5, out=g2)
            g2 *= g1                   # (0.5 * x) * (1 + t)
            np.matmul(g2, blk.ff_out[0], out=o)
            o += blk.ff_out[1]
            h += o
        last = h[:, -1, :]
        fx = scratch_buffer(scratch, "fx", (batch, dim))
        fsq = scratch_buffer(scratch, "fsq", (batch, dim))
        fmu = scratch_buffer(scratch, "fmu", (batch, 1))
        fvar = scratch_buffer(scratch, "fvar", (batch, 1))
        gamma, beta, eps = weights.final_norm
        np.add.reduce(last, axis=-1, keepdims=True, out=fmu)
        fmu /= dim
        np.subtract(last, fmu, out=fx)
        np.multiply(fx, fx, out=fsq)
        np.add.reduce(fsq, axis=-1, keepdims=True, out=fvar)
        fvar /= dim
        fvar += eps
        np.sqrt(fvar, out=fvar)
        fx /= fvar
        fx *= gamma
        fx += beta
        head_w, head_b = weights.head
        logits = np.empty((batch, head_w.shape[1]))
        if groups is None:
            np.matmul(fx, head_w, out=logits)
            logits += head_b
        else:
            for row0, row1, _ in groups:
                np.matmul(fx[row0:row1], head_w, out=logits[row0:row1])
                logits[row0:row1] += head_b
        return logits


def _qkv_concat(scratch: dict | None, idx: int, blk):
    """Per-layer ``[Wq|Wk|Wv]`` / bias concat, cached in ``scratch``.

    Keyed by the layer index *and* the identity of ``Wq`` so a scratch
    dict can never serve stale weights to a different model.
    """
    key = ("_qkv", idx)
    if scratch is not None:
        hit = scratch.get(key)
        if hit is not None and hit[0] is blk.q[0]:
            return hit[1], hit[2]
    w = np.concatenate([blk.q[0], blk.k[0], blk.v[0]], axis=1)
    b = np.concatenate([blk.q[1], blk.k[1], blk.v[1]])
    if scratch is not None:
        scratch[key] = (blk.q[0], w, b)
    return w, b


def _softmax_inplace(s: np.ndarray) -> None:
    """Reference-order softmax written back into ``s``.

    ``ndarray.max``/``sum`` delegate to these exact ufunc reductions;
    calling them directly skips the python wrapper on the hot path.
    """
    mx = np.maximum.reduce(s, axis=-1, keepdims=True)
    np.subtract(s, mx, out=s)
    np.exp(s, out=s)
    s /= np.add.reduce(s, axis=-1, keepdims=True)


# ----------------------------------------------------------------------
# Active-kernel state
# ----------------------------------------------------------------------
#: the selectable decode kernels, by name
BACKENDS: dict[str, Backend] = {"numpy": Backend(),
                                "fused": FusedNumpyBackend()}
_ACTIVE: Backend


def set_backend(name: str) -> Backend:
    """Make ``name`` the process-wide decode kernel; returns it."""
    global _ACTIVE
    if name not in BACKENDS:
        raise KeyError(f"unknown backend {name!r}; choose one of "
                       f"{list(BACKENDS)}")
    _ACTIVE = BACKENDS[name]
    return _ACTIVE


def active() -> Backend:
    """The currently active backend (looked up at every decode call)."""
    return _ACTIVE


class use_backend:
    """Context manager scoping a backend choice::

        with use_backend("fused"):
            model.sample(64, 16, rng)
    """

    def __init__(self, name: str):
        self._name = name
        self._prev: Backend | None = None

    def __enter__(self) -> Backend:
        self._prev = _ACTIVE
        return set_backend(self._name)

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = self._prev


set_backend(os.environ.get("REPRO_BACKEND", "numpy"))
