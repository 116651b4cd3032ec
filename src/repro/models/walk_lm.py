"""Autoregressive transformer language model over random walks.

FairGen's generator ``g_theta`` is "the Transformer-based generator"
(Eq. 4) modelling node-id sequences; our TagGen baseline reuses the same
architecture (TagGen is likewise a self-attention model over walks).  The
model is a standard causal LM: a start token, learned node embeddings plus
sinusoidal positions, ``num_layers`` pre-norm transformer blocks, and a
softmax over the node vocabulary.
"""

from __future__ import annotations

import numpy as np

from ..nn import (Embedding, LayerNorm, Linear, Module, Tensor, WalkDecoder,
                  causal_mask, no_grad, sinusoidal_positions)
from ..nn.attention import TransformerBlock
from ..nn.tensor import sequence_log_likelihood

__all__ = ["TransformerWalkModel"]


class TransformerWalkModel(Module):
    """Causal transformer over walks of node ids ``0 .. num_nodes-1``.

    The token ``num_nodes`` is a beginning-of-walk marker, so the model
    also learns the start-node distribution.
    """

    def __init__(self, num_nodes: int, dim: int, num_heads: int,
                 num_layers: int, max_length: int,
                 rng: np.random.Generator, dropout: float = 0.0):
        super().__init__()
        if max_length < 1:
            raise ValueError("max_length must be >= 1")
        self.num_nodes = num_nodes
        self.max_length = max_length
        self.start_token = num_nodes
        self.embed = Embedding(num_nodes + 1, dim, rng)
        self.blocks = [TransformerBlock(dim, num_heads, rng, dropout=dropout)
                       for _ in range(num_layers)]
        self.final_norm = LayerNorm(dim)
        self.head = Linear(dim, num_nodes, rng)
        self._positions = sinusoidal_positions(max_length + 1, dim)

    # ------------------------------------------------------------------
    def forward(self, tokens: np.ndarray) -> Tensor:
        """Logits of shape ``(B, T, num_nodes)`` for input token ids."""
        return self.head(self._hidden(tokens))

    def _hidden(self, tokens: np.ndarray) -> Tensor:
        """The final-normed ``(B, T, dim)`` states the head reads."""
        batch, length = tokens.shape
        if length > self.max_length + 1:
            raise ValueError("sequence longer than the configured maximum")
        h = self.embed(tokens) + Tensor(self._positions[:length])
        mask = causal_mask(length)
        for block in self.blocks:
            h = block(h, mask)
        return self.final_norm(h)

    def _shift(self, walks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Prepend the start token: inputs predict each walk position."""
        batch = walks.shape[0]
        start = np.full((batch, 1), self.start_token, dtype=np.int64)
        inputs = np.concatenate([start, walks[:, :-1]], axis=1)
        return inputs, walks

    def log_likelihood(self, walks: np.ndarray,
                       lengths: np.ndarray | None = None) -> Tensor:
        """Per-walk log-likelihood ``sum_t log g(w_t | w_<t)`` — Eq. 1.

        ``lengths`` supports right-padded batches: positions at or past
        a walk's length are excluded from its sum (the causal mask
        already keeps them from influencing earlier positions).  Padded
        slots must hold a valid node id — their value never matters.

        The head — affine map, log-softmax over the vocabulary and the
        gather of each target — is one
        :func:`~repro.nn.tensor.sequence_log_likelihood` node, so no
        ``(B, T, V)`` one-hot mask is built.
        """
        walks = np.asarray(walks, dtype=np.int64)
        inputs, targets = self._shift(walks)
        valid = None
        if lengths is not None:
            valid = (np.arange(walks.shape[1])[None, :]
                     < np.asarray(lengths, dtype=np.int64)[:, None])
        return sequence_log_likelihood(self._hidden(inputs), self.head.weight,
                                       self.head.bias, targets, valid)

    def log_likelihood_pair(self, first: np.ndarray,
                            second: np.ndarray) -> tuple[Tensor, Tensor]:
        """Log-likelihoods of two walk batches in one forward pass.

        FairGen's generator update scores a positive and a negative
        batch at every step; fusing them halves the transformer
        forward/backward count on that path.  The shorter batch is
        right-padded (with node 0) and masked via ``lengths``, so each
        returned tensor matches its own :meth:`log_likelihood` call.
        """
        first = np.asarray(first, dtype=np.int64)
        second = np.asarray(second, dtype=np.int64)
        width = max(first.shape[1], second.shape[1])

        def pad(walks: np.ndarray) -> np.ndarray:
            if walks.shape[1] == width:
                return walks
            out = np.zeros((walks.shape[0], width), dtype=np.int64)
            out[:, :walks.shape[1]] = walks
            return out

        lengths = None
        if first.shape[1] != second.shape[1]:
            lengths = np.concatenate(
                [np.full(first.shape[0], first.shape[1], dtype=np.int64),
                 np.full(second.shape[0], second.shape[1], dtype=np.int64)])
        ll = self.log_likelihood(np.concatenate([pad(first), pad(second)]),
                                 lengths=lengths)
        return ll[:first.shape[0]], ll[first.shape[0]:]

    def nll(self, walks: np.ndarray) -> Tensor:
        """Mean negative log-likelihood over a batch of walks."""
        return -self.log_likelihood(walks).mean()

    # ------------------------------------------------------------------
    def _sampling_prompt(self, num_walks: int, length: int,
                         temperature: float,
                         starts: np.ndarray | None) -> np.ndarray:
        """Validate sampling arguments and build the prompt tokens.

        The one home of these checks: :meth:`sample`,
        :meth:`sample_reference` and the serving engine's ``submit``
        all call it, so they reject the same arguments alike.
        """
        if length < 1:
            raise ValueError("length must be >= 1")
        if length > self.max_length:
            raise ValueError("length exceeds the configured maximum")
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        tokens = np.full((num_walks, 1), self.start_token, dtype=np.int64)
        if starts is not None:
            starts = np.asarray(starts, dtype=np.int64).reshape(-1)
            if starts.shape[0] != num_walks:
                raise ValueError(f"starts has {starts.shape[0]} entries "
                                 f"for {num_walks} walks")
            if starts.size and (starts.min() < 0
                                or starts.max() >= self.num_nodes):
                raise ValueError("starts contains out-of-range node ids")
            tokens = np.concatenate([tokens, starts[:, None]], axis=1)
        return tokens

    @staticmethod
    def _sample_step(logits: np.ndarray, temperature: float, num_nodes: int,
                     rng: np.random.Generator) -> np.ndarray:
        """Draw one token per walk from ``(B, vocab)`` logits.

        Consumes exactly one ``rng.random((B, 1))`` draw — the RNG
        contract shared by the KV-cached path and the full-recompute
        reference, so seeded outputs are interchangeable.
        """
        logits = logits / temperature
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        cumulative = probs.cumsum(axis=1)
        u = rng.random((logits.shape[0], 1))
        next_ids = (cumulative < u).sum(axis=1)
        return np.minimum(next_ids, num_nodes - 1)

    def sample(self, num_walks: int, length: int,
               rng: np.random.Generator, temperature: float = 1.0,
               starts: np.ndarray | None = None) -> np.ndarray:
        """Autoregressively sample synthetic walks (no gradients).

        ``starts`` optionally pins the first node of each walk, which the
        FairGen assembler uses to give protected nodes walk coverage.

        Decoding is incremental: one :meth:`WalkDecoder.prefill` pass
        over the prompt, then one single-token :meth:`WalkDecoder.step`
        per sampled position against the per-layer KV caches — O(T)
        attention per step instead of the O(T^2) full-prefix recompute of
        :meth:`sample_reference`, and no autograd bookkeeping at all.
        Each prefill/step is a single whole-step call of the one decode
        kernel, :meth:`~repro.nn.backend.Backend.decode_step`.  RNG
        consumption is identical to the reference, so seeded outputs
        match it.
        """
        tokens = self._sampling_prompt(num_walks, length, temperature, starts)
        if tokens.shape[1] >= length + 1:
            return tokens[:, 1:]
        decoder = WalkDecoder(self)
        logits = decoder.prefill(tokens)
        while True:
            next_ids = self._sample_step(logits, temperature,
                                         self.num_nodes, rng)
            tokens = np.concatenate([tokens, next_ids[:, None]], axis=1)
            if tokens.shape[1] >= length + 1:
                return tokens[:, 1:]
            logits = decoder.step(next_ids)

    def sample_reference(self, num_walks: int, length: int,
                         rng: np.random.Generator, temperature: float = 1.0,
                         starts: np.ndarray | None = None) -> np.ndarray:
        """Slow sampling path recomputing the full prefix every step.

        Kept as the parity oracle for the KV-cached :meth:`sample` (and
        as the baseline of the decode smoke benchmark): for the same RNG
        state both paths must produce identical walks.
        """
        tokens = self._sampling_prompt(num_walks, length, temperature, starts)
        with no_grad():
            while tokens.shape[1] < length + 1:
                logits = self.forward(tokens).numpy()[:, -1, :]
                next_ids = self._sample_step(logits, temperature,
                                             self.num_nodes, rng)
                tokens = np.concatenate([tokens, next_ids[:, None]], axis=1)
        return tokens[:, 1:]

    def sample_chunked(self, num_walks: int, length: int,
                       rng: np.random.Generator, temperature: float = 1.0,
                       chunk: int = 256,
                       starts_fn=None) -> np.ndarray:
        """Sample ``num_walks`` walks in KV-cached chunks.

        The single generation front door for TagGen and FairGen: chunking
        bounds the live KV-cache footprint at ``chunk * layers * T * dim``
        floats, and ``starts_fn(take, rng)`` (when given) pins the start
        node of each chunk's walks — FairGen's protected-coverage hook.
        Each chunk decodes through :meth:`sample`, i.e. one whole-step
        :meth:`~repro.nn.backend.Backend.decode_step` call per token.
        """
        chunks = []
        remaining = num_walks
        while remaining > 0:
            take = min(remaining, chunk)
            starts = starts_fn(take, rng) if starts_fn is not None else None
            chunks.append(self.sample(take, length, rng,
                                      temperature=temperature, starts=starts))
            remaining -= take
        return np.concatenate(chunks, axis=0)
