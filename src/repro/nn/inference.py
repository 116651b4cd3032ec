"""Grad-free incremental decoding over the transformer walk generator.

:meth:`TransformerWalkModel.sample` used to re-run the full transformer
over the entire prefix for every sampled token — O(T^2) attention work
per step, O(T^3) per walk — while also paying :class:`~repro.nn.Tensor`
graph-bookkeeping overhead it never used (sampling takes no gradients).
This module is the fast inference path that removes both costs:

* :class:`WalkDecoder` snapshots the raw ``float64`` parameter arrays of
  a :class:`~repro.models.walk_lm.TransformerWalkModel` and evaluates
  the network with plain NumPy ops — no ``Tensor`` allocation, no
  autograd closures, no computation graph;
* a per-layer :class:`~repro.nn.attention.LayerKVCache` stores the keys
  and values of every position processed so far, so after one *prefill*
  pass over the prompt each *decode step* costs a single forward over
  one token attending to the cached history — O(T) per step instead of
  O(T^2), and no causal mask is needed in decode.

Each prefill/step is ONE call of the one decode kernel,
:meth:`~repro.nn.backend.Backend.decode_step` — the whole
embed/blocks/norm/head pipeline per call.

The decode kernel calls the same layer-norm/linear/softmax/GELU
functions as the :class:`~repro.nn.Tensor` ops, in the same order, so
the logits the decoder emits are numerically interchangeable with the
training-path ``forward`` and seeded sampling stays reproducible against
the slow full-recompute reference.

Dropout is skipped: the decoder is an inference structure, and the
training path applies dropout only when gradients are enabled anyway.
"""

from __future__ import annotations

import numpy as np

from .attention import LayerKVCache, causal_mask
from .backend import DECODE_KERNEL

__all__ = ["WalkDecoder"]


class _BlockWeights:
    """Raw parameter views of one transformer block."""

    __slots__ = ("norm1", "norm2", "q", "k", "v", "out", "ff_in", "ff_out",
                 "num_heads", "head_dim", "dim")

    def __init__(self, block) -> None:
        attn = block.attn
        self.norm1 = (block.norm1.gamma.data, block.norm1.beta.data,
                      block.norm1.eps)
        self.norm2 = (block.norm2.gamma.data, block.norm2.beta.data,
                      block.norm2.eps)
        self.q = (attn.q_proj.weight.data, attn.q_proj.bias.data)
        self.k = (attn.k_proj.weight.data, attn.k_proj.bias.data)
        self.v = (attn.v_proj.weight.data, attn.v_proj.bias.data)
        self.out = (attn.out_proj.weight.data, attn.out_proj.bias.data)
        self.ff_in = (block.ff_in.weight.data, block.ff_in.bias.data)
        self.ff_out = (block.ff_out.weight.data, block.ff_out.bias.data)
        self.num_heads = attn.num_heads
        self.head_dim = attn.head_dim
        self.dim = attn.dim


class _WalkWeights:
    """Raw parameter views of a whole :class:`TransformerWalkModel`.

    Shared by :class:`WalkDecoder` (single-session decode) and the
    continuous-batching engine (:mod:`repro.serve.engine`), which walks
    the same arrays with per-request attention groups.  This is the
    ``weights`` shape :meth:`repro.nn.backend.Backend.decode_step`
    duck-types.
    """

    __slots__ = ("embed", "positions", "blocks", "final_norm", "head")

    def __init__(self, model) -> None:
        self.embed = model.embed.weight.data
        self.positions = model._positions
        self.blocks = [_BlockWeights(b) for b in model.blocks]
        self.final_norm = (model.final_norm.gamma.data,
                           model.final_norm.beta.data, model.final_norm.eps)
        self.head = (model.head.weight.data, model.head.bias.data)


class WalkDecoder:
    """KV-cached incremental decoder for one sampling session.

    Usage::

        decoder = WalkDecoder(model)
        logits = decoder.prefill(prompt_tokens)   # (B, vocab)
        while generating:
            next_ids = sample_from(logits)
            logits = decoder.step(next_ids)       # (B, vocab)

    The decoder views (never copies) the model's parameter arrays, so it
    is cheap to construct per :meth:`sample` call; it must not outlive a
    training step that updates the parameters in place.
    """

    def __init__(self, model) -> None:
        self._weights = _WalkWeights(model)
        # Preallocated at the session maximum: decode steps write into
        # the cache buffers instead of reallocating them every token.
        self._caches = [LayerKVCache(capacity=self._positions.shape[0])
                        for _ in self._weights.blocks]
        self._length = 0
        self._batch: int | None = None

    # Internal views kept as properties so the serving engine and older
    # call sites can keep addressing the weight tuples uniformly.
    @property
    def _positions(self) -> np.ndarray:
        return self._weights.positions

    @property
    def length(self) -> int:
        """Number of positions decoded so far (prompt included)."""
        return self._length

    @property
    def batch_size(self) -> int | None:
        """Batch size frozen at prefill (``None`` before prefill)."""
        return self._batch

    @property
    def caches(self) -> list[LayerKVCache]:
        """The per-layer KV caches (the serving engine transplants their
        rows into its shared batch via ``LayerKVCache.append_cache``)."""
        return self._caches

    # ------------------------------------------------------------------
    def _forward(self, tokens: np.ndarray,
                 mask: np.ndarray | None) -> np.ndarray:
        """Advance the caches by ``tokens`` and return last-step logits."""
        length = tokens.shape[1]
        if self._length + length > self._positions.shape[0]:
            raise ValueError("decoding past the configured maximum length")
        logits = DECODE_KERNEL.decode_step(
            self._weights, self._caches, tokens, self._length, mask=mask)
        self._length += length
        return logits

    # ------------------------------------------------------------------
    def prefill(self, tokens: np.ndarray) -> np.ndarray:
        """Run the prompt through the network, filling every KV cache.

        ``tokens`` is the ``(B, T)`` integer prompt (start token, plus
        any pinned start nodes).  Returns the ``(B, vocab)`` logits of
        the final prompt position — the distribution of the first
        sampled token.
        """
        if self._length:
            raise RuntimeError("prefill must be the first decoder call")
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 2 or tokens.shape[0] == 0 or tokens.shape[1] == 0:
            raise ValueError(
                f"prefill expects a non-empty (B, T) prompt, got shape "
                f"{tokens.shape}")
        self._batch = tokens.shape[0]
        return self._forward(tokens, causal_mask(tokens.shape[1]))

    def step(self, next_ids: np.ndarray) -> np.ndarray:
        """Decode one token per walk against the cached keys/values.

        No mask is needed: the single new query may attend to every
        cached position.  Returns the next ``(B, vocab)`` logits.

        The batch size is frozen at prefill — the KV caches hold one row
        per walk — so a mismatched ``next_ids`` is rejected here with a
        clear error instead of surfacing as a broadcasting failure deep
        inside attention.  Walks cannot be added or dropped mid-session;
        that is the continuous-batching engine's job
        (:class:`repro.serve.ContinuousBatcher`).
        """
        if not self._length:
            raise RuntimeError("call prefill before step")
        next_ids = np.asarray(next_ids, dtype=np.int64).reshape(-1, 1)
        if next_ids.shape[0] != self._batch:
            raise ValueError(
                f"step batch size {next_ids.shape[0]} does not match the "
                f"batch size {self._batch} frozen at prefill; the decoder "
                "cannot grow or shrink its walk batch mid-session")
        return self._forward(next_ids, None)
