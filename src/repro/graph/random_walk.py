"""Random-walk samplers: uniform first-order and node2vec second-order.

FairGen's context sampler ``f_S`` (Section II-B, M1) mixes two walk types:
with probability ``r`` a *general* biased second-order walk in the style of
node2vec [39], and with probability ``1 - r`` a label-guided walk starting
from a labeled example.  This module provides the walk primitives; the
label-informed mixing lives in :mod:`repro.core.context_sampling`.

:func:`sample_walks` — the batch entry point every pipeline stage uses —
runs on the vectorized :class:`repro.graph.walk_engine.WalkEngine`, which
advances all walks one step at a time over the CSR adjacency.  The scalar
:func:`uniform_random_walk` and :func:`node2vec_walk` below are kept as
single-walk reference implementations that the engine's equivalence tests
check against.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = ["uniform_random_walk", "node2vec_walk", "sample_walks",
           "walks_to_edge_counts"]


def uniform_random_walk(graph: Graph, start: int, length: int,
                        rng: np.random.Generator) -> np.ndarray:
    """First-order walk of ``length`` nodes starting at ``start``.

    A walk stuck at an isolated node stays in place (lazy self-loop),
    mirroring the lazy transition matrix ``M``.
    """
    walk = np.empty(length, dtype=np.int64)
    walk[0] = start
    current = start
    for t in range(1, length):
        nbrs = graph.neighbors(current)
        if nbrs.size == 0:
            walk[t:] = current
            break
        current = int(nbrs[rng.integers(nbrs.size)])
        walk[t] = current
    return walk


def node2vec_walk(graph: Graph, start: int, length: int,
                  rng: np.random.Generator,
                  p: float = 1.0, q: float = 1.0) -> np.ndarray:
    """Biased second-order walk of node2vec (Grover & Leskovec, 2016).

    Transition weights from ``v`` (previous node ``t``) to neighbor ``x``:
    ``1/p`` if ``x == t`` (return), ``1`` if ``x`` is adjacent to ``t``
    (BFS-like) and ``1/q`` otherwise (DFS-like).
    """
    if p <= 0 or q <= 0:
        raise ValueError("node2vec parameters p and q must be positive")
    walk = np.empty(length, dtype=np.int64)
    walk[0] = start
    if length == 1:
        return walk
    nbrs = graph.neighbors(start)
    if nbrs.size == 0:
        walk[1:] = start
        return walk
    walk[1] = int(nbrs[rng.integers(nbrs.size)])
    for t in range(2, length):
        prev, cur = walk[t - 2], walk[t - 1]
        nbrs = graph.neighbors(int(cur))
        if nbrs.size == 0:
            walk[t:] = cur
            break
        weights = np.where(nbrs == prev, 1.0 / p,
                           np.where(np.isin(nbrs, graph.neighbors(int(prev))),
                                    1.0, 1.0 / q))
        weights = weights / weights.sum()
        walk[t] = int(rng.choice(nbrs, p=weights))
    return walk


def sample_walks(graph, num_walks: int, length: int,
                 rng: np.random.Generator,
                 starts: np.ndarray | None = None,
                 p: float = 1.0, q: float = 1.0) -> np.ndarray:
    """Sample ``num_walks`` node2vec walks as an int array (num_walks, length).

    Starts default to degree-weighted node sampling, the standard NetGAN /
    node2vec convention (walks per unit of volume).  All walks advance in
    lock-step on the graph's cached :class:`~repro.graph.walk_engine.WalkEngine`
    rather than one at a time through :func:`node2vec_walk`.

    Explicit ``starts`` must be integer node ids in ``[0, num_nodes)``.
    """
    return graph.walk_engine().walks(num_walks, length, rng,
                                     starts=starts, p=p, q=q)


def walks_to_edge_counts(walks: np.ndarray, num_nodes: int) -> "np.ndarray":
    """Symmetric score matrix B counting observed transitions (Section II-D).

    Consecutive walk positions (w_t, w_{t+1}) each contribute one count to
    B[w_t, w_{t+1}] and B[w_{t+1}, w_t]; self-transitions from lazy walks
    are ignored.
    """
    import scipy.sparse as sp

    src = walks[:, :-1].ravel()
    dst = walks[:, 1:].ravel()
    keep = src != dst
    src, dst = src[keep], dst[keep]
    data = np.ones(src.size)
    counts = sp.coo_matrix((np.concatenate([data, data]),
                            (np.concatenate([src, dst]),
                             np.concatenate([dst, src]))),
                           shape=(num_nodes, num_nodes)).tocsr()
    return counts
