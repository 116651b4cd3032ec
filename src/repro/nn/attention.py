"""Transformer building blocks for FairGen's walk generator.

FairGen replaces the RNN generators of NetGAN/TagGen with a causal
Transformer (Section II-B, M1, Eq. 4): the generator ``g_theta`` is an
autoregressive language model over node-id sequences (random walks).

Sampling decodes incrementally against a :class:`LayerKVCache` per
block (``TransformerWalkModel.new_caches``).  The cache keeps one row
per walk with its own length and is written one row group at a time
(rows sharing a length) by :meth:`repro.nn.backend.Backend.decode_step`:
one group for ``TransformerWalkModel.sample``, one group per request
for the serving engine.  Only keys and values are cached; the kernel
reads the parameters off the model at every step.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .tensor import Tensor, attention, is_grad_enabled
from .layers import Dropout, LayerNorm, Linear, Module, Parameter
from . import functional as F

__all__ = [
    "causal_mask",
    "sinusoidal_positions",
    "LayerKVCache",
    "MultiHeadSelfAttention",
    "TransformerBlock",
]


@lru_cache(maxsize=None)
def causal_mask(length: int) -> np.ndarray:
    """Additive mask: 0 on/below the diagonal, ``-1e9`` above it.

    Memoised per length — training forwards request the same handful of
    lengths thousands of times, so the ``np.triu_indices`` build runs
    once per shape.  The returned array is shared and read-only.

    ``float32``, so it never promotes the ``float32`` walk LM's scores;
    ``-1e9`` is exact in ``float32``, so a ``float64`` attention adds the
    same values as before.
    """
    mask = np.zeros((length, length), dtype=np.float32)
    mask[np.triu_indices(length, k=1)] = -1e9
    mask.setflags(write=False)
    return mask


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Fixed sinusoidal positional encodings from Vaswani et al. (2017)."""
    position = np.arange(length)[:, None].astype(np.float64)
    div = np.exp(np.arange(0, dim, 2) * (-np.log(10000.0) / dim))
    enc = np.zeros((length, dim))
    enc[:, 0::2] = np.sin(position * div)
    enc[:, 1::2] = np.cos(position * div[: dim // 2])
    return enc


class LayerKVCache:
    """Per-layer key/value cache for incremental decoding, one row per walk.

    Holds ``(B, H, capacity, d)`` key and value buffers, preallocated so
    a fixed row set's decode (``sample``) writes into slices and never
    reallocates, plus :attr:`row_lengths`, the number of valid positions
    of each row.  The cache stores detached ndarrays — gradients never
    flow into cached positions — so it is an inference-only structure
    (use under ``no_grad()``).

    Rows are written in *groups*: contiguous rows that share a length —
    one sampling session's walks, or one served request's.
    :meth:`append` writes a group's new positions at that shared length
    and returns the group's exact attention window, so no padding
    position ever reaches a softmax.  A prefill is a group append of the
    prompt; each decode step appends one position per group.

    The continuous-batching engine (:mod:`repro.serve.engine`) starts
    from zero rows and changes the row set with two more primitives:
    :meth:`append_cache` transplants another cache's rows onto the end
    of this one (admitting a freshly prefilled request) and
    :meth:`gather_rows` keeps only the given rows (evicting finished
    walks and compacting the batch).  Both build new buffers, so the
    engine reallocates its caches at every admission and eviction.
    """

    __slots__ = ("_k", "_v", "row_lengths")

    def __init__(self, rows: int, heads: int, capacity: int, head_dim: int,
                 dtype) -> None:
        self._k = np.empty((rows, heads, capacity, head_dim), dtype=dtype)
        self._v = np.empty_like(self._k)
        #: valid positions per row, ``(B,)`` int64
        self.row_lengths = np.zeros(rows, dtype=np.int64)

    @property
    def capacity(self) -> int:
        """Maximum number of positions per row."""
        return self._k.shape[2]

    @property
    def num_rows(self) -> int:
        """Number of batch rows currently held."""
        return self._k.shape[0]

    def append(self, k_new: np.ndarray, v_new: np.ndarray, row0: int,
               row1: int) -> tuple[np.ndarray, np.ndarray]:
        """Append ``(row1 - row0, H, L, d)`` positions to rows ``row0:row1``.

        The rows must share a length; the new positions land at it and
        the rows' lengths advance by ``L``.  Returns zero-copy ``(k, v)``
        views of the rows' whole history, ``(row1 - row0, H, length, d)``.
        """
        start = int(self.row_lengths[row0])
        stop = start + k_new.shape[2]
        if stop > self.capacity:
            raise ValueError("KV cache capacity exceeded")
        self._k[row0:row1, :, start:stop] = k_new
        self._v[row0:row1, :, start:stop] = v_new
        self.row_lengths[row0:row1] = stop
        return self._k[row0:row1, :, :stop], self._v[row0:row1, :, :stop]

    def append_cache(self, donor: "LayerKVCache") -> None:
        """Transplant ``donor``'s rows onto the end of this cache.

        ``donor`` is a freshly prefilled per-request cache at the same
        ``capacity``; its rows join this cache's batch with their own
        lengths.  This is the admission path of the continuous batcher:
        prefill a request in isolation, then splice its K/V rows into
        the shared batch.
        """
        if donor.capacity != self.capacity:
            raise ValueError(f"donor capacity {donor.capacity} != "
                             f"{self.capacity}")
        self._k = np.concatenate([self._k, donor._k])
        self._v = np.concatenate([self._v, donor._v])
        self.row_lengths = np.concatenate([self.row_lengths,
                                           donor.row_lengths])

    def gather_rows(self, rows: np.ndarray) -> None:
        """Keep only ``rows`` (in order): evict finished walks, compact.

        ``rows`` indexes the current batch axis; an empty selection
        leaves zero rows, and a later :meth:`append_cache` starts a
        fresh batch.
        """
        rows = np.asarray(rows, dtype=np.int64)
        self._k = self._k[rows]
        self._v = self._v[rows]
        self.row_lengths = self.row_lengths[rows]


class MultiHeadSelfAttention(Module):
    """Scaled dot-product self-attention with ``num_heads`` heads.

    The paper sets the number of transformer heads to 4 (Section III-B).
    """

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator,
                 dropout: float = 0.0):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.q_proj = Linear(dim, dim, rng)
        self.k_proj = Linear(dim, dim, rng)
        self.v_proj = Linear(dim, dim, rng)
        self.out_proj = Linear(dim, dim, rng)
        self.attn_dropout = Dropout(dropout, rng)

    def _split_heads(self, x: Tensor, batch: int, length: int) -> Tensor:
        # (B, T, D) -> (B, H, T, d)
        return x.reshape(batch, length, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x: Tensor, mask: np.ndarray | None = None,
                cache: LayerKVCache | None = None) -> Tensor:
        """Attend ``x`` over itself, or over ``cache`` + ``x`` when given.

        With ``cache``, the keys/values of the new positions are appended
        to the cache (the batch is one row group) and the queries attend
        over the full cached history — the incremental-decoding contract:
        prefill the prompt once (with a causal ``mask``), then feed one
        position per call with no mask.  Cached positions are detached, so this path is for
        inference only and raises under autograd rather than silently
        severing the key/value gradient flow.

        :meth:`repro.nn.backend.Backend.decode_step` is the raw-ndarray
        mirror of this arm (the production decode path); any change to
        the caching contract must land in both.
        """
        batch, length, _ = x.shape
        q = self._split_heads(self.q_proj(x), batch, length)
        k = self._split_heads(self.k_proj(x), batch, length)
        v = self._split_heads(self.v_proj(x), batch, length)
        if cache is not None:
            if is_grad_enabled() and k.requires_grad:
                raise RuntimeError(
                    "the KV cache is inference-only: cached keys/values "
                    "do not propagate gradients, so call under no_grad()")
            k_all, v_all = cache.append(k.numpy(), v.numpy(), 0, batch)
            k, v = Tensor(k_all), Tensor(v_all)

        drop = self.attn_dropout
        keep = F.dropout_mask(q.shape[:-1] + (k.shape[-2],), drop.p,
                              drop.rng, drop.training, dtype=q.data.dtype)
        context = attention(q, k, v, mask, keep)  # (B, H, T, d)
        merged = context.transpose(0, 2, 1, 3).reshape(batch, length, self.dim)
        return self.out_proj(merged)


class TransformerBlock(Module):
    """Pre-norm transformer block: attention + position-wise feed-forward."""

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator,
                 ff_mult: int = 4, dropout: float = 0.0):
        super().__init__()
        self.norm1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, num_heads, rng, dropout)
        self.norm2 = LayerNorm(dim)
        self.ff_in = Linear(dim, ff_mult * dim, rng)
        self.ff_out = Linear(ff_mult * dim, dim, rng)
        self.dropout = Dropout(dropout, rng)

    def forward(self, x: Tensor, mask: np.ndarray | None = None,
                cache: LayerKVCache | None = None) -> Tensor:
        x = x + self.attn(self.norm1(x), mask, cache=cache)
        hidden = self.ff_in(self.norm2(x)).gelu()
        return x + self.dropout(self.ff_out(hidden))
