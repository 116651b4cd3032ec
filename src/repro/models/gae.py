"""Variational Graph Auto-Encoder baseline (Kipf & Welling, 2016).

A two-layer GCN encoder produces per-node Gaussian posteriors; the decoder
scores edges with the inner product ``sigmoid(z_i . z_j)``.  Trained on the
re-weighted edge reconstruction loss plus the KL prior term, exactly as in
the original VGAE.  Generation thresholds the decoded probability matrix to
the observed edge count.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..graph import Graph
from ..nn import Adam, Linear, Module, Tensor
from ..train import Trainer, train_step
from .base import (GraphGenerativeModel, assemble_from_scores, extract_state,
                   prefix_state)

__all__ = ["GAEModel", "normalized_adjacency"]


def normalized_adjacency(graph: Graph) -> np.ndarray:
    """Symmetric GCN propagation matrix ``D^-1/2 (A + I) D^-1/2`` (dense)."""
    n = graph.num_nodes
    a_tilde = graph.adjacency + sp.identity(n, format="csr")
    deg = np.asarray(a_tilde.sum(axis=1)).ravel()
    d_inv_sqrt = 1.0 / np.sqrt(deg)
    return (sp.diags(d_inv_sqrt) @ a_tilde @ sp.diags(d_inv_sqrt)).toarray()


class _GCNEncoder(Module):
    """Two-layer GCN emitting posterior mean and log-variance."""

    def __init__(self, in_dim: int, hidden: int, latent: int,
                 rng: np.random.Generator):
        super().__init__()
        self.lin1 = Linear(in_dim, hidden, rng)
        self.lin_mu = Linear(hidden, latent, rng)
        self.lin_logvar = Linear(hidden, latent, rng)

    def forward(self, a_hat: Tensor, x: Tensor) -> tuple[Tensor, Tensor]:
        h = (a_hat @ self.lin1(x)).relu()
        return a_hat @ self.lin_mu(h), a_hat @ self.lin_logvar(h)


class _GAETask:
    """Trainer task: one epoch = one full-batch VGAE ELBO step."""

    def __init__(self, encoder: _GCNEncoder, a_hat: Tensor, features: Tensor,
                 target: Tensor, weight_mask: Tensor, norm: float, n: int,
                 lr: float):
        self.encoder = encoder
        self.a_hat = a_hat
        self.features = features
        self.target = target
        self.weight_mask = weight_mask
        self.norm = norm
        self.n = n
        self.optimizer = Adam(encoder.parameters(), lr=lr)

    def modules(self):
        return {"encoder": self.encoder}

    def optimizers(self):
        return {"adam": self.optimizer}

    def _loss(self, rng) -> Tensor:
        mu, logvar = self.encoder(self.a_hat, self.features)
        noise = Tensor(rng.standard_normal(mu.shape))
        z = mu + (logvar * 0.5).exp() * noise
        logits = z @ z.T
        # Stable weighted BCE-with-logits, elementwise.
        bce = (logits.relu() - logits * self.target
               + ((-logits.abs()).exp() + 1.0).log()) * self.weight_mask
        recon = bce.mean() * self.norm
        kl = ((logvar.exp() + mu * mu - logvar - 1.0).sum() * (0.5 / self.n))
        return recon + kl * (1.0 / self.n)

    def epoch(self, state, rng) -> float:
        return train_step(self.optimizer, None, lambda: self._loss(rng))


class GAEModel(GraphGenerativeModel):
    """VGAE graph generator.

    Parameters mirror the small-scale setting of the paper's benchmark:
    identity features, 32-d hidden layer, 16-d latent space.
    """

    name = "GAE"

    def __init__(self, hidden: int = 32, latent: int = 16, epochs: int = 80,
                 lr: float = 0.01):
        super().__init__()
        self.hidden = hidden
        self.latent = latent
        self.epochs = epochs
        self.lr = lr
        self._encoder: _GCNEncoder | None = None
        self._z_mean: np.ndarray | None = None
        self.loss_history: list[float] = []

    def fit(self, graph: Graph, rng: np.random.Generator,
            supervision=None) -> "GAEModel":
        self._fitted_graph = graph
        n = graph.num_nodes
        a_hat = Tensor(normalized_adjacency(graph))
        features = Tensor(np.eye(n))
        adj_label = graph.adjacency.toarray()
        # VGAE loss weighting: positives up-weighted by the class ratio.
        num_pos = adj_label.sum()
        pos_weight = float((n * n - num_pos) / max(num_pos, 1.0))
        norm = n * n / max(2.0 * (n * n - num_pos), 1.0)

        encoder = _GCNEncoder(n, self.hidden, self.latent, rng)
        task = _GAETask(encoder, a_hat, features,
                        target=Tensor(adj_label),
                        weight_mask=Tensor(np.where(adj_label > 0,
                                                    pos_weight, 1.0)),
                        norm=norm, n=n, lr=self.lr)
        state = Trainer(task, epochs=self.epochs,
                        control=self.train_control).fit(rng)
        self.loss_history = list(state.history)

        # Posterior means for generation — pure scoring, no graph.
        mu, _ = encoder.eval_forward(a_hat, features)
        self._encoder = encoder
        self._z_mean = mu.numpy().copy()
        return self

    def generate(self, rng: np.random.Generator) -> Graph:
        fitted = self._require_fitted()
        z = self._z_mean
        logits = z @ z.T
        probs = 1.0 / (1.0 + np.exp(-np.clip(logits, -30, 30)))
        np.fill_diagonal(probs, 0.0)
        # Bernoulli-perturb so repeated calls give distinct graphs, then
        # keep the top-m entries.
        noisy = probs * (0.5 + rng.random(probs.shape))
        noisy = np.triu(noisy + noisy.T, k=1)
        scores = sp.coo_matrix(np.triu(noisy, k=1))
        scores = scores + scores.T
        return assemble_from_scores(scores, fitted.num_edges, min_degree=0)

    # -- persistence ----------------------------------------------------
    def config_dict(self) -> dict:
        return {"hidden": self.hidden, "latent": self.latent,
                "epochs": self.epochs, "lr": self.lr}

    def state_dict(self) -> dict[str, np.ndarray]:
        return {"z_mean": self._z_mean,
                **prefix_state("encoder", self._encoder.state_dict())}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        n = self._require_fitted().num_nodes
        self._encoder = _GCNEncoder(n, self.hidden, self.latent,
                                    np.random.default_rng(0))
        self._encoder.load_state_dict(extract_state(state, "encoder"))
        self._z_mean = np.asarray(state["z_mean"], dtype=np.float64).copy()
