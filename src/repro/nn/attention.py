"""Transformer building blocks for FairGen's walk generator.

FairGen replaces the RNN generators of NetGAN/TagGen with a causal
Transformer (Section II-B, M1, Eq. 4): the generator ``g_theta`` is an
autoregressive language model over node-id sequences (random walks).
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
    """Per-layer key/value cache for incremental decoding.

    Holds the raw ``(B, H, T, d)`` key and value arrays of every position
    processed so far.  A prefill pass over the prompt populates it; each
    decode step appends one position and attends against the whole cache,
    so no causal mask is needed after prefill.  The cache stores detached
    ndarrays — gradients never flow into cached positions — making it an
    inference-only structure (use under ``no_grad()``).

    The buffers are preallocated at ``(B, H, capacity, d)`` on first
    append and every later step writes into a slice, so the decode hot
    path never reallocates (every decoder knows its maximum session
    length up front).

    **Row-level serving mode.**  The continuous-batching engine
    (:mod:`repro.serve.engine`) coalesces walk requests of different
    lengths into one decode batch, so a serving-side cache is *ragged*:
    each row has its own number of valid positions.  Three row-level
    primitives support this: :meth:`append_cache` transplants another
    cache's rows onto the end of this one (admitting a freshly prefilled
    request), :meth:`gather_rows` keeps only the given rows (evicting
    finished walks and compacting the batch), and :meth:`append_ragged`
    appends one position per row at that row's own offset.  Per-row
    validity lives in :attr:`row_lengths`; the uniform (single
    ``length``) mode of :meth:`append` is unchanged.
    """

    __slots__ = ("_k", "_v", "_length", "capacity", "_row_lengths")

    def __init__(self, capacity: int) -> None:
        self._k: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._length = 0
        self.capacity = capacity
        self._row_lengths: np.ndarray | None = None

    @property
    def length(self) -> int:
        """Number of cached positions (the maximum across rows when the
        cache is ragged)."""
        return self._length

    @property
    def num_rows(self) -> int:
        """Number of batch rows currently held."""
        return 0 if self._k is None else self._k.shape[0]

    @property
    def row_lengths(self) -> np.ndarray:
        """Valid positions per row, ``(B,)`` int64.

        Uniform caches report ``length`` for every row; ragged caches
        (built through the row-level primitives) track each row
        separately.
        """
        if self._row_lengths is not None:
            return self._row_lengths
        return np.full(self.num_rows, self._length, dtype=np.int64)

    @property
    def k(self) -> np.ndarray | None:
        """Cached keys, ``(B, H, length, d)``."""
        return None if self._k is None else self._k[:, :, :self._length]

    @property
    def v(self) -> np.ndarray | None:
        """Cached values, ``(B, H, length, d)``."""
        return None if self._v is None else self._v[:, :, :self._length]

    def append(self, k_new: np.ndarray,
               v_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Append new positions and return the full (k, v) arrays."""
        batch, heads, steps, dim = k_new.shape
        if self._k is None:
            self._k = np.empty((batch, heads, self.capacity, dim),
                               dtype=k_new.dtype)
            self._v = np.empty_like(self._k)
        if self._length + steps > self.capacity:
            raise ValueError("KV cache capacity exceeded")
        self._k[:, :, self._length: self._length + steps] = k_new
        self._v[:, :, self._length: self._length + steps] = v_new
        self._length += steps
        return self.k, self.v

    # ------------------------------------------------------------------
    # Row-level primitives (continuous-batching serving mode)
    # ------------------------------------------------------------------
    def append_cache(self, donor: "LayerKVCache") -> None:
        """Transplant ``donor``'s rows onto the end of this cache.

        ``donor`` is a freshly prefilled per-request cache (uniform
        length, at the same ``capacity``); its rows join
        this cache's batch with their own per-row length.  This is the
        admission path of the continuous batcher: prefill a request in
        isolation, then splice its K/V rows into the shared batch.
        """
        if donor._k is None:
            raise ValueError("donor cache must be non-empty")
        if donor.capacity != self.capacity:
            raise ValueError(f"donor capacity {donor.capacity} != "
                             f"{self.capacity}")
        lengths = donor.row_lengths
        if self._k is None:
            self._k = donor._k.copy()
            self._v = donor._v.copy()
            self._row_lengths = lengths.copy()
        else:
            own_lengths = self.row_lengths  # BEFORE the batch axis grows
            self._k = np.concatenate([self._k, donor._k], axis=0)
            self._v = np.concatenate([self._v, donor._v], axis=0)
            self._row_lengths = np.concatenate([own_lengths, lengths])
        self._length = int(self._row_lengths.max())

    def gather_rows(self, rows: np.ndarray) -> None:
        """Keep only ``rows`` (in order): evict finished walks, compact.

        ``rows`` indexes the current batch axis; an empty selection
        resets the cache to its pristine state so a later
        :meth:`append_cache` starts a fresh batch.
        """
        if self._k is None:
            raise ValueError("cache holds no rows to gather")
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            self._k = self._v = None
            self._row_lengths = None
            self._length = 0
            return
        self._k = self._k[rows]
        self._v = self._v[rows]
        self._row_lengths = self.row_lengths[rows]
        self._length = int(self._row_lengths.max())

    def append_ragged(self, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Append one position per row at each row's own offset.

        ``k_new``/``v_new`` are ``(B, H, 1, d)`` — the decode-step
        projections of a ragged batch.  Row ``i``'s new position lands
        at its current ``row_lengths[i]``; lengths advance by one.
        """
        if self._k is None:
            raise ValueError("cache holds no rows to append to")
        batch = self._k.shape[0]
        if k_new.shape[0] != batch or k_new.shape[2] != 1:
            raise ValueError(f"expected ({batch}, H, 1, d) step arrays, "
                             f"got {k_new.shape}")
        lengths = self.row_lengths
        if int(lengths.max()) + 1 > self.capacity:
            raise ValueError("KV cache capacity exceeded")
        idx = np.arange(batch)
        self._k[idx, :, lengths] = k_new[:, :, 0]
        self._v[idx, :, lengths] = v_new[:, :, 0]
        self._row_lengths = lengths + 1
        self._length = int(self._row_lengths.max())

    def rows_view(self, start: int, stop: int,
                  length: int) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(k, v)`` views of rows ``start:stop`` truncated to
        ``length`` positions — the exact per-request attention window of
        one continuous-batching group (all rows of one request share a
        length, so no padding is ever materialised)."""
        return (self._k[start:stop, :, :length],
                self._v[start:stop, :, :length])


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
        to the cache and the queries attend over the full cached history
        — the incremental-decoding contract: prefill the prompt once
        (with a causal ``mask``), then feed one position per call with no
        mask.  Cached positions are detached, so this path is for
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
            k_all, v_all = cache.append(k.numpy(), v.numpy())
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
