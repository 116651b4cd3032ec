"""Skip-gram with negative sampling (SGNS) over random-walk corpora.

This is the Mikolov-style objective [40], [41] that node2vec [39] trains on
walk sequences.  The gradients of the SGNS loss are available in closed
form, so we implement them directly with vectorised NumPy (far faster than
routing through the autograd engine) while keeping the exact objective:

``L = -log sigma(u_c . v_w) - sum_k log sigma(-u_nk . v_w)``
"""

from __future__ import annotations

import numpy as np

from ..nn.backend import scatter_rows

__all__ = ["SkipGramModel", "walks_to_pairs", "unigram_table"]


def walks_to_pairs(walks: np.ndarray, window: int) -> np.ndarray:
    """Expand walks into (center, context) index pairs within ``window``."""
    if window < 1:
        raise ValueError("window must be >= 1")
    num_walks, length = walks.shape
    pairs = []
    for offset in range(1, window + 1):
        if offset >= length:
            break
        left = walks[:, :-offset].ravel()
        right = walks[:, offset:].ravel()
        pairs.append(np.column_stack([left, right]))
        pairs.append(np.column_stack([right, left]))
    if not pairs:
        raise ValueError("walks too short for the requested window")
    return np.concatenate(pairs, axis=0)


def unigram_table(walks: np.ndarray, num_nodes: int,
                  power: float = 0.75) -> np.ndarray:
    """Smoothed unigram distribution used for negative sampling."""
    counts = np.bincount(walks.ravel(), minlength=num_nodes).astype(np.float64)
    counts = np.maximum(counts, 1e-12) ** power
    return counts / counts.sum()


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


class SkipGramModel:
    """SGNS embeddings with input (``vectors``) and output matrices."""

    def __init__(self, num_nodes: int, dim: int, rng: np.random.Generator):
        if num_nodes < 1 or dim < 1:
            raise ValueError("num_nodes and dim must be positive")
        self.num_nodes = num_nodes
        self.dim = dim
        self._rng = rng
        scale = 0.5 / dim
        self.in_vectors = rng.uniform(-scale, scale, (num_nodes, dim))
        self.out_vectors = np.zeros((num_nodes, dim))

    @property
    def vectors(self) -> np.ndarray:
        """The learned node embeddings (input matrix)."""
        return self.in_vectors

    def train(self, walks: np.ndarray, window: int = 5, epochs: int = 3,
              negatives: int = 5, lr: float = 0.05,
              batch_size: int = 2048) -> list[float]:
        """Train on the walk corpus; returns the mean loss per epoch."""
        pairs = walks_to_pairs(walks, window)
        noise = unigram_table(walks, self.num_nodes)
        history = []
        for epoch in range(epochs):
            # Linear learning-rate decay, the standard word2vec schedule;
            # floored at 10% so late epochs still make progress.
            lr_epoch = lr * max(0.1, 1.0 - epoch / max(epochs, 1))
            order = self._rng.permutation(len(pairs))
            losses = []
            for lo in range(0, len(order), batch_size):
                batch = pairs[order[lo: lo + batch_size]]
                losses.append(self._step(batch, negatives, lr_epoch, noise))
            history.append(float(np.mean(losses)))
        return history

    def _step(self, batch: np.ndarray, negatives: int, lr: float,
              noise: np.ndarray) -> float:
        centers, contexts = batch[:, 0], batch[:, 1]
        b = len(batch)
        neg = self._rng.choice(self.num_nodes, size=(b, negatives), p=noise)

        v = self.in_vectors[centers]                       # (b, d)
        u_pos = self.out_vectors[contexts]                 # (b, d)
        u_neg = self.out_vectors[neg]                      # (b, k, d)

        pos_score = _sigmoid((v * u_pos).sum(axis=1))      # (b,)
        neg_score = _sigmoid(-(u_neg * v[:, None, :]).sum(axis=2))  # (b, k)

        loss = float(-(np.log(pos_score + 1e-12).mean()
                       + np.log(neg_score + 1e-12).sum(axis=1).mean()))

        g_pos = (pos_score - 1.0)[:, None]                 # d/d(v.u_pos)
        g_neg = (1.0 - neg_score)[:, :, None]              # d/d(v.u_neg)

        grad_v = g_pos * u_pos + (g_neg * u_neg).sum(axis=1)
        grad_u_pos = g_pos * v
        grad_u_neg = g_neg * v[:, None, :]

        # Rows repeat heavily inside a batch (hub nodes appear in many
        # pairs), so summed per-pair updates diverge while fully averaged
        # ones barely move.  Normalising by sqrt(count) keeps the update
        # variance bounded yet lets frequent rows learn faster.
        self._apply_row_averaged(self.in_vectors, centers, grad_v, lr)
        grad_out = np.concatenate(
            [grad_u_pos, grad_u_neg.reshape(-1, self.dim)])
        rows_out = np.concatenate([contexts, neg.ravel()])
        self._apply_row_averaged(self.out_vectors, rows_out, grad_out, lr)
        return loss

    def _apply_row_averaged(self, matrix: np.ndarray, rows: np.ndarray,
                            grads: np.ndarray, lr: float) -> None:
        num_rows = matrix.shape[0]
        accum = scatter_rows(rows, grads, num_rows)
        counts = np.bincount(rows, minlength=num_rows)
        touched = counts > 0
        matrix[touched] -= lr * accum[touched] / np.sqrt(counts[touched])[:, None]
