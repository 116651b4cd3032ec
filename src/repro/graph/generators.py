"""Synthetic graph generators: ER, BA, planted partition / SBM.

These serve three roles in the reproduction:

* ER and BA are two of the paper's baselines (Section III-A);
* ER drives the scalability study of Figure 8;
* the stochastic block model with a small planted protected community
  underlies our stand-ins for the labeled datasets (BLOG/FLICKR/ACM).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .graph import Graph

__all__ = [
    "erdos_renyi",
    "barabasi_albert",
    "stochastic_block_model",
    "planted_protected_graph",
    "watts_strogatz",
    "configuration_model",
    "kronecker_graph",
    "ring_of_chords",
]


def erdos_renyi(num_nodes: int, edge_prob: float,
                rng: np.random.Generator) -> Graph:
    """G(n, p) random graph (Erdos & Renyi, 1959)."""
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must be in [0, 1]")
    if num_nodes < 0:
        raise ValueError("num_nodes must be non-negative")
    # Sample the number of edges then the edge set (fast for sparse p).
    max_edges = num_nodes * (num_nodes - 1) // 2
    target = rng.binomial(max_edges, edge_prob) if max_edges else 0
    edges: set[tuple[int, int]] = set()
    while len(edges) < target:
        need = target - len(edges)
        u = rng.integers(num_nodes, size=2 * need + 8)
        v = rng.integers(num_nodes, size=2 * need + 8)
        for a, b in zip(u, v):
            if a == b:
                continue
            edge = (int(min(a, b)), int(max(a, b)))
            edges.add(edge)
            if len(edges) == target:
                break
    return Graph.from_edges(num_nodes, edges)


def barabasi_albert(num_nodes: int, attach: int,
                    rng: np.random.Generator) -> Graph:
    """Preferential-attachment graph (Barabasi & Albert).

    Each arriving node attaches ``attach`` edges to existing nodes chosen
    proportionally to their current degree (repeat-sampling, deduplicated).
    """
    if attach < 1:
        raise ValueError("attach must be >= 1")
    if num_nodes <= attach:
        raise ValueError("num_nodes must exceed attach")
    edges: list[tuple[int, int]] = []
    # Repeated-nodes trick: targets drawn uniformly from the degree
    # multiset keep attachment proportional to degree.
    repeated: list[int] = list(range(attach))
    for new in range(attach, num_nodes):
        targets: set[int] = set()
        while len(targets) < attach:
            pick = repeated[rng.integers(len(repeated))] if repeated else int(
                rng.integers(new))
            if pick != new:
                targets.add(pick)
        for t in targets:
            edges.append((new, t))
            repeated.extend((new, t))
    return Graph.from_edges(num_nodes, edges)


def stochastic_block_model(block_sizes: list[int],
                           prob_matrix: np.ndarray,
                           rng: np.random.Generator) -> tuple[Graph, np.ndarray]:
    """SBM: returns the graph and the block label of every node."""
    prob_matrix = np.asarray(prob_matrix, dtype=np.float64)
    k = len(block_sizes)
    if prob_matrix.shape != (k, k):
        raise ValueError("prob_matrix must be k x k")
    if not np.allclose(prob_matrix, prob_matrix.T):
        raise ValueError("prob_matrix must be symmetric")
    labels = np.repeat(np.arange(k), block_sizes)
    offsets = np.cumsum([0] + list(block_sizes))
    edges: list[tuple[int, int]] = []
    for a in range(k):
        for b in range(a, k):
            p = prob_matrix[a, b]
            if p <= 0:
                continue
            rows = np.arange(offsets[a], offsets[a + 1])
            cols = np.arange(offsets[b], offsets[b + 1])
            mask = rng.random((rows.size, cols.size)) < p
            if a == b:
                mask = np.triu(mask, k=1)
            ii, jj = np.nonzero(mask)
            edges.extend(zip(rows[ii].tolist(), cols[jj].tolist()))
    return Graph.from_edges(int(offsets[-1]), edges), labels


def _split_sizes(total: int, parts: int) -> list[int]:
    base = total // parts
    sizes = [base] * (parts - 1)
    sizes.append(total - base * (parts - 1))
    return sizes


def planted_protected_graph(num_unprotected: int, num_protected: int,
                            rng: np.random.Generator,
                            p_in: float = 0.05, p_out: float = 0.002,
                            num_classes: int = 2,
                            protected_as_class: bool = False,
                            ) -> tuple[Graph, np.ndarray, np.ndarray]:
    """Community graph with a small, under-represented protected group.

    Two group semantics, matching the paper's datasets:

    * ``protected_as_class=False`` (default; BLOG/FLICKR-style): the
      protected attribute is *orthogonal* to the class labels, like race
      vs blog topic.  Each class consists of a large unprotected block
      plus a small protected sub-block attached to it; protected
      sub-blocks are internally denser and weakly tied to each other, so
      the group is structurally distinctive while every class contains
      both groups.  Statistical parity is achievable here without
      destroying accuracy.
    * ``protected_as_class=True`` (ACM-style, and Figure 1's synthetic
      example): the protected group is its own cohesive community with
      its own class label — "the topic with a small population".  Parity
      then genuinely trades off against prediction accuracy.

    Returns ``(graph, class_labels, protected_mask)``.
    """
    if num_protected <= 0 or num_unprotected <= 0:
        raise ValueError("both populations must be non-empty")
    if num_classes < 1:
        raise ValueError("need at least one class")

    if protected_as_class:
        sizes = _split_sizes(num_unprotected, num_classes)
        sizes.append(num_protected)
        k = num_classes + 1
        probs = np.full((k, k), p_out)
        np.fill_diagonal(probs, p_in)
        # Protected block slightly denser internally: scarce but cohesive.
        probs[-1, -1] = min(1.0, 2.0 * p_in)
        graph, blocks = stochastic_block_model(sizes, probs, rng)
        protected = blocks == num_classes
        return graph, blocks.copy(), protected

    if num_protected < num_classes:
        raise ValueError("orthogonal mode needs at least one protected "
                         "node per class")
    unprot_sizes = _split_sizes(num_unprotected, num_classes)
    prot_sizes = _split_sizes(num_protected, num_classes)
    sizes = unprot_sizes + prot_sizes
    k = 2 * num_classes
    probs = np.full((k, k), p_out)
    for c in range(num_classes):
        probs[c, c] = p_in                                  # class core
        probs[num_classes + c, num_classes + c] = min(1.0, 2.0 * p_in)
        # Protected sub-block attaches to its own class community, keeping
        # the class label structurally predictable for protected nodes.
        probs[c, num_classes + c] = probs[num_classes + c, c] = p_in / 2.0
        for c2 in range(num_classes):
            if c2 != c:
                # Weak cross-class cohesion inside the protected group.
                probs[num_classes + c, num_classes + c2] = min(1.0, 4.0 * p_out)
    graph, blocks = stochastic_block_model(sizes, probs, rng)
    labels = blocks % num_classes
    protected = blocks >= num_classes
    return graph, labels, protected


def watts_strogatz(num_nodes: int, neighbors: int, rewire_prob: float,
                   rng: np.random.Generator) -> Graph:
    """Small-world graph (Watts & Strogatz, 1998).

    Start from a ring lattice where each node connects to its
    ``neighbors`` nearest neighbors (must be even), then rewire each edge
    with probability ``rewire_prob``.  One of the classic graph-property
    oriented models the paper contrasts with data-driven generators.
    """
    if neighbors % 2 != 0 or neighbors < 2:
        raise ValueError("neighbors must be even and >= 2")
    if num_nodes <= neighbors:
        raise ValueError("num_nodes must exceed neighbors")
    if not 0.0 <= rewire_prob <= 1.0:
        raise ValueError("rewire_prob must be in [0, 1]")
    edges: set[tuple[int, int]] = set()
    for u in range(num_nodes):
        for offset in range(1, neighbors // 2 + 1):
            v = (u + offset) % num_nodes
            edges.add((min(u, v), max(u, v)))
    rewired: set[tuple[int, int]] = set()
    for (u, v) in sorted(edges):
        if rng.random() < rewire_prob:
            for _ in range(num_nodes):
                w = int(rng.integers(num_nodes))
                candidate = (min(u, w), max(u, w))
                if w != u and candidate not in rewired and candidate not in edges:
                    rewired.add(candidate)
                    break
            else:
                rewired.add((u, v))
        else:
            rewired.add((u, v))
    return Graph.from_edges(num_nodes, rewired)


def configuration_model(degree_sequence, rng: np.random.Generator) -> Graph:
    """Random graph with (approximately) the given degree sequence.

    Stub matching (Bollobas): each node contributes ``d`` half-edges,
    which are shuffled and paired.  Self-loops and multi-edges produced
    by the matching are dropped, so high-degree nodes may end slightly
    below their target degree — the standard simple-graph projection.
    """
    degrees = np.asarray(degree_sequence, dtype=np.int64)
    if degrees.min(initial=0) < 0:
        raise ValueError("degrees must be non-negative")
    if degrees.sum() % 2 != 0:
        raise ValueError("degree sequence must have an even sum")
    stubs = np.repeat(np.arange(degrees.size), degrees)
    rng.shuffle(stubs)
    edges = set()
    for u, v in zip(stubs[0::2], stubs[1::2]):
        if u != v:
            edges.add((int(min(u, v)), int(max(u, v))))
    return Graph.from_edges(degrees.size, edges)


def ring_of_chords(num_nodes: int, num_chords: int, seed: int) -> Graph:
    """A ring plus random chords: a connected benchmark graph of any size.

    The ring (``i — (i+1) mod n``) makes the graph connected with every
    degree >= 2; ``num_chords`` chords are drawn uniformly over node pairs
    (self-pairs are dropped, duplicates merge in :meth:`Graph.from_edges`).
    Deterministic for a given ``(num_nodes, num_chords, seed)``.
    """
    if num_nodes < 3:
        raise ValueError("num_nodes must be >= 3")
    if num_chords < 0:
        raise ValueError("num_chords must be non-negative")
    rng = np.random.default_rng(seed)
    ring = np.arange(num_nodes, dtype=np.int64)
    edges = np.concatenate([
        np.column_stack([ring, (ring + 1) % num_nodes]),
        rng.integers(num_nodes, size=(num_chords, 2), dtype=np.int64)])
    edges = edges[edges[:, 0] != edges[:, 1]]
    return Graph.from_edges(num_nodes, edges)


def kronecker_graph(initiator: np.ndarray, power: int,
                    rng: np.random.Generator) -> Graph:
    """Stochastic Kronecker graph (Leskovec et al., 2010) — paper ref [8].

    The ``k``-th Kronecker power of a small initiator probability matrix
    gives edge probabilities over ``n = len(initiator)**power`` nodes;
    each edge is sampled independently.  Suitable for small powers only
    (the probability matrix is materialised densely).
    """
    initiator = np.asarray(initiator, dtype=np.float64)
    if initiator.ndim != 2 or initiator.shape[0] != initiator.shape[1]:
        raise ValueError("initiator must be square")
    if (initiator < 0).any() or (initiator > 1).any():
        raise ValueError("initiator entries must be probabilities")
    if not np.allclose(initiator, initiator.T):
        raise ValueError("initiator must be symmetric for undirected graphs")
    if power < 1:
        raise ValueError("power must be >= 1")
    probs = initiator.copy()
    for _ in range(power - 1):
        probs = np.kron(probs, initiator)
    n = probs.shape[0]
    if n > 4096:
        raise ValueError("materialised Kronecker power too large")
    sample = rng.random((n, n))
    upper = np.triu(sample < probs, k=1)
    rows, cols = np.nonzero(upper)
    return Graph.from_edges(n, list(zip(rows.tolist(), cols.tolist())))
