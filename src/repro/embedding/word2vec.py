"""Skip-gram with negative sampling (SGNS) over random-walk corpora.

This is the Mikolov-style objective [40], [41] that node2vec [39] trains on
walk sequences.  The gradients of the SGNS loss are available in closed
form, so we implement them directly with vectorised NumPy (far faster than
routing through the autograd engine) while keeping the exact objective:

``L = -log sigma(u_c . v_w) - sum_k log sigma(-u_nk . v_w)``

SGNS trains in float32, as the word2vec reference code does: the table,
the workspace, the gradients and the loss scratch.  Only the
negative-sampling uniforms are float64 (see below).
:func:`~repro.embedding.node2vec_embedding` hands its vectors out as
float64.

Workspace and bit-identity contract.  One ``train()`` call allocates a
:class:`_Workspace` sized for ``min(batch_size, len(pairs))`` pairs, and
every step writes into slices of it through ``np.take(..., out=)``, ufunc
``out=`` arguments and ``np.sum(..., out=)``; the workspace is freed when
``train()`` returns.  A step runs the floating-point operations of the
expression form, in the same order and with the same reductions::

    v, u_pos, u_neg = in[centers], out[contexts], out[neg]
    pos = sigmoid((v * u_pos).sum(1)); neg = sigmoid(-(u_neg * v).sum(2))
    grad_v = g_pos * u_pos + (g_neg * u_neg).sum(1)
    grad_u_pos, grad_u_neg = g_pos * v, g_neg * v

and applies all three gradients with one scatter over the stacked in- and
out-rows (:func:`~repro.nn.backend.scatter_rows`, a CSR indicator
product), in which each row still sums its contributions in index order.
Negatives are drawn from a noise CDF computed once per ``train()``
(:func:`noise_cdf`, :func:`draw_negatives`): the same
``cumsum``/``random``/``searchsorted`` sequence that
``Generator.choice(n, size, p=noise)`` runs, so the draws and the RNG
stream are those of ``choice``, whatever the table's dtype.  The trained
vectors and loss history are byte-identical to the expression form.
"""

from __future__ import annotations

import numpy as np

from ..nn.backend import scatter_rows
from ..obs import trace

__all__ = ["SkipGramModel", "walks_to_pairs", "unigram_table",
           "noise_cdf", "draw_negatives"]


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


def noise_cdf(noise: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice(n, size, p=noise)`` builds on every call."""
    cdf = noise.cumsum()
    cdf /= cdf[-1]
    return cdf


def draw_negatives(rng: np.random.Generator, cdf: np.ndarray,
                   uniform: np.ndarray) -> np.ndarray:
    """Draw ``uniform.shape`` node ids from :func:`noise_cdf`'s ``cdf``.

    The same values, and the same RNG stream, as
    ``rng.choice(len(cdf), size=uniform.shape, p=noise)``; ``uniform``
    is the C-contiguous float64 buffer the uniforms are drawn into.
    """
    rng.random(out=uniform)
    return cdf.searchsorted(uniform, side="right")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-clip(x, -30, 30)))`` in place on ``x``."""
    np.clip(x, -30.0, 30.0, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    np.add(x, 1.0, out=x)
    return np.divide(1.0, x, out=x)


class _Workspace:
    """The buffers of one ``train()`` call, for batches of up to ``rows``
    pairs; a step of ``b`` pairs uses the leading ``b``-pair slices.

    ``grads`` is the stacked gradient slab ``[grad_v; grad_u_pos;
    grad_u_neg]`` that the one scatter reads, row-aligned with the table
    rows in ``rows``.  Before the gradients land in it, its blocks are the
    scratch space of the ``(b, d)`` and ``(b, k, d)`` products, and the
    ``grad_u_pos`` block holds the gathered ``u_pos``.  Every float buffer
    is float32 but ``uniform``, which ``Generator.random`` fills in
    float64.

    ``grads``, ``v`` and ``u_neg`` share one allocation (~3.4 MB at 2048
    pairs): freeing it raises glibc malloc's heap-trim threshold to twice
    its size.  As separate float32 buffers they left that threshold low
    enough that each later FairGen generator step re-faulted its heap
    top (~320k minor faults, ~1.5 s more on a BLOG fit).
    """

    def __init__(self, rows: int, negatives: int, dim: int):
        stacked = (negatives + 2) * rows
        self.rows = np.empty(stacked, dtype=np.int64)
        slab = np.empty((stacked + rows + rows * negatives, dim),
                        dtype=np.float32)
        self.grads = slab[:stacked]
        self.v = slab[stacked:stacked + rows]
        self.u_neg = slab[stacked + rows:]
        self.pos = np.empty(rows, dtype=np.float32)
        self.neg = np.empty(rows * negatives, dtype=np.float32)
        self.uniform = np.empty(rows * negatives)
        self.loss = np.empty(rows, dtype=np.float32)
        self.log_neg = np.empty(rows * negatives, dtype=np.float32)


class SkipGramModel:
    """SGNS embeddings with input (``vectors``) and output matrices."""

    def __init__(self, num_nodes: int, dim: int, rng: np.random.Generator):
        if num_nodes < 1 or dim < 1:
            raise ValueError("num_nodes and dim must be positive")
        self.num_nodes = num_nodes
        self.dim = dim
        self._rng = rng
        scale = 0.5 / dim
        # Input rows [0, n) and output rows [n, 2n) of one table, so a
        # step gathers and scatters both through one index array.
        self._table = np.zeros((2 * num_nodes, dim), dtype=np.float32)
        self._table[:num_nodes] = rng.uniform(-scale, scale,
                                              (num_nodes, dim))

    @property
    def in_vectors(self) -> np.ndarray:
        """The input (center-word) matrix, a view of the table."""
        return self._table[:self.num_nodes]

    @property
    def out_vectors(self) -> np.ndarray:
        """The output (context-word) matrix, a view of the table."""
        return self._table[self.num_nodes:]

    @property
    def vectors(self) -> np.ndarray:
        """The learned node embeddings (input matrix)."""
        return self.in_vectors

    def train(self, walks: np.ndarray, window: int = 5, epochs: int = 3,
              negatives: int = 5, lr: float = 0.05,
              batch_size: int = 2048) -> list[float]:
        """Train on the walk corpus; returns the mean loss per epoch."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        with trace.span("embedding.sgns", epochs=epochs) as span:
            pairs = walks_to_pairs(walks, window)
            cdf = noise_cdf(unigram_table(walks, self.num_nodes))
            work = _Workspace(min(batch_size, len(pairs)), negatives,
                              self.dim)
            history = []
            for epoch in range(epochs):
                # Linear learning-rate decay, the standard word2vec
                # schedule; floored at 10% so late epochs still make
                # progress.
                lr_epoch = lr * max(0.1, 1.0 - epoch / max(epochs, 1))
                order = self._rng.permutation(len(pairs))
                losses = []
                for lo in range(0, len(order), batch_size):
                    batch = pairs[order[lo: lo + batch_size]]
                    losses.append(self._step(batch, negatives, lr_epoch,
                                             cdf, work))
                history.append(float(np.mean(losses)))
            span.set(pairs=len(pairs),
                     steps=epochs * len(range(0, len(pairs), batch_size)))
        return history

    def _step(self, batch: np.ndarray, negatives: int, lr: float,
              cdf: np.ndarray, work: _Workspace) -> float:
        b, k, n, d = len(batch), negatives, self.num_nodes, self.dim
        table = self._table
        rows = work.rows[:(k + 2) * b]            # centers | contexts | negs
        grads = work.grads[:(k + 2) * b]
        rows[:b] = batch[:, 0]
        np.add(batch[:, 1], n, out=rows[b:2 * b])
        uniform = work.uniform[:b * k].reshape(b, k)
        neg = draw_negatives(self._rng, cdf, uniform)
        np.add(neg.ravel(), n, out=rows[2 * b:])
        grad_v = grads[:b]
        grad_u_pos = grads[b:2 * b]
        grad_u_neg = grads[2 * b:].reshape(b, k, d)
        # mode="clip" because mode="raise" buffers ``out``; every row
        # index is in range by construction.
        v = np.take(table, rows[:b], axis=0, out=work.v[:b], mode="clip")
        u_pos = np.take(table, rows[b:2 * b], axis=0, out=grad_u_pos,
                        mode="clip")
        u_neg = np.take(table, rows[2 * b:], axis=0, out=work.u_neg[:b * k],
                        mode="clip").reshape(b, k, d)

        # Until the gradients land, grad_v's and grad_u_neg's blocks hold
        # the (b, d) and (b, k, d) products.
        pos_score = np.sum(np.multiply(v, u_pos, out=grad_v), axis=1,
                           out=work.pos[:b])
        _sigmoid(pos_score)
        neg_score = np.sum(np.multiply(u_neg, v[:, None, :], out=grad_u_neg),
                           axis=2, out=work.neg[:b * k].reshape(b, k))
        _sigmoid(np.negative(neg_score, out=neg_score))

        log_pos = np.log(np.add(pos_score, 1e-12, out=work.loss[:b]),
                         out=work.loss[:b]).mean()
        log_neg = work.log_neg[:b * k].reshape(b, k)
        np.log(np.add(neg_score, 1e-12, out=log_neg), out=log_neg)
        loss = float(-(log_pos + np.sum(log_neg, axis=1,
                                        out=work.loss[:b]).mean()))

        g_pos = np.subtract(pos_score, 1.0, out=pos_score)[:, None]
        g_neg = np.subtract(1.0, neg_score, out=neg_score)[:, :, None]
        np.sum(np.multiply(g_neg, u_neg, out=grad_u_neg), axis=1, out=grad_v)
        np.add(np.multiply(g_pos, u_pos, out=u_pos), grad_v, out=grad_v)
        np.multiply(g_pos, v, out=grad_u_pos)
        np.multiply(g_neg, v[:, None, :], out=grad_u_neg)

        # Rows repeat heavily inside a batch (hub nodes appear in many
        # pairs), so summed per-pair updates diverge while fully averaged
        # ones barely move.  Normalising by sqrt(count) keeps the update
        # variance bounded yet lets frequent rows learn faster.  The
        # int64 counts' sqrt is float64, so the update rounds into the
        # float32 table once, as in the expression form.
        accum = scatter_rows(rows, grads, 2 * n)
        counts = np.bincount(rows, minlength=2 * n)
        touched = counts > 0
        table[touched] -= lr * accum[touched] / np.sqrt(counts[touched])[:, None]
        return loss
