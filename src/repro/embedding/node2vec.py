"""node2vec embedding pipeline: biased walks + SGNS.

Used by the paper in two places: the data-augmentation case study
(Figure 6) trains a logistic-regression node classifier on node2vec
features, and the Figure 1 / Figure 9 visualisations embed graphs with
node2vec before t-SNE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph import Graph, sample_walks
from ..obs import trace
from .word2vec import SkipGramModel

__all__ = ["Node2VecConfig", "node2vec_embedding"]


@dataclass(frozen=True)
class Node2VecConfig:
    """Hyper-parameters of the node2vec pipeline."""

    dim: int = 32
    walks_per_node: int = 6
    walk_length: int = 10
    window: int = 4
    epochs: int = 3
    negatives: int = 5
    lr: float = 0.05
    p: float = 1.0
    q: float = 1.0

    def __post_init__(self) -> None:
        if self.dim < 1 or self.walks_per_node < 1 or self.walk_length < 2:
            raise ValueError("invalid node2vec configuration")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.negatives < 0:
            raise ValueError("negatives must be >= 0")
        if not self.lr > 0.0:
            raise ValueError("lr must be > 0")


def node2vec_embedding(graph, config: Node2VecConfig,
                       rng: np.random.Generator) -> np.ndarray:
    """Learn node embeddings of shape ``(num_nodes, config.dim)``.

    Every node seeds ``walks_per_node`` walks so even low-degree nodes get
    coverage (this matters for the protected group).  The whole walk corpus
    is drawn in one batched call on the graph's walk engine.  SGNS trains
    in float32; the vectors are returned as float64.
    """
    starts = np.repeat(np.arange(graph.num_nodes), config.walks_per_node)
    with trace.span("embedding.walks", walks=int(starts.size),
                    length=config.walk_length):
        walks = sample_walks(graph, starts.size, config.walk_length, rng,
                             starts=starts, p=config.p, q=config.q)
    model = SkipGramModel(graph.num_nodes, config.dim, rng)
    model.train(walks, window=config.window, epochs=config.epochs,
                negatives=config.negatives, lr=config.lr)
    return model.vectors.astype(np.float64)
