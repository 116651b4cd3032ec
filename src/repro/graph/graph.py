"""Core undirected-graph data structure on CSR adjacency.

The paper formalises everything on an undirected graph ``G = (V, E)`` with
adjacency ``A``, degree matrix ``D`` and lazy transition matrix
``M = (A D^{-1} + I) / 2`` (Section II-A).  This module provides an
immutable, validated graph type that the samplers, metrics, and models all
share.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = ["Graph"]


class Graph:
    """Immutable undirected graph backed by a CSR adjacency matrix.

    Parameters
    ----------
    adjacency:
        Symmetric ``scipy.sparse`` matrix (any format) with binary weights.
        The diagonal is stripped (no self-loops).
    """

    def __init__(self, adjacency: sp.spmatrix):
        adj = sp.csr_matrix(adjacency, dtype=np.float64)
        adj.setdiag(0)
        adj.eliminate_zeros()
        # Hand-built CSR can carry duplicate structural entries, which
        # scipy keeps — they would double-count edges/degrees and break
        # the sorted-indices invariant has_edge's binary search relies
        # on.  Merge them (also sorts indices) before binarising.
        adj.sum_duplicates()
        adj.data[:] = 1.0
        if (abs(adj - adj.T)).nnz != 0:
            raise ValueError("adjacency must be symmetric (undirected graph)")
        self._adj = adj
        self._adj.sort_indices()
        self._degrees = np.asarray(adj.sum(axis=1)).ravel()
        self._walk_engine = None
        self._csr64: tuple[np.ndarray, np.ndarray] | None = None
        self._edge_keys: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, num_nodes: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an iterable of (u, v) pairs (deduplicated).

        An ``(m, 2)`` array is converted as it is; any other iterable is
        listed first.
        """
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size == 0:
            return cls(sp.csr_matrix((num_nodes, num_nodes)))
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must be (u, v) pairs, an (m, 2) "
                             f"array; got shape {edges.shape}")
        if edges.min() < 0 or edges.max() >= num_nodes:
            raise ValueError("edge endpoint out of range")
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        data = np.ones(rows.size)
        adj = sp.csr_matrix((data, (rows, cols)), shape=(num_nodes, num_nodes))
        return cls(adj)

    @classmethod
    def from_numpy(cls, dense: np.ndarray) -> "Graph":
        """Build a graph from a dense 0/1 adjacency matrix."""
        return cls(sp.csr_matrix(dense))

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._adj.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return int(self._adj.nnz // 2)

    @property
    def adjacency(self) -> sp.csr_matrix:
        """The CSR adjacency (treat as read-only)."""
        return self._adj

    @property
    def degrees(self) -> np.ndarray:
        """Vector of node degrees (read-only view)."""
        return self._degrees

    def degree(self, node: int) -> int:
        return int(self._degrees[node])

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbor ids of ``node``."""
        lo, hi = self._adj.indptr[node], self._adj.indptr[node + 1]
        return self._adj.indices[lo:hi]

    def has_edge(self, u: int, v: int) -> bool:
        """Edge membership in O(log deg(u)) via binary search.

        CSR indices are kept sorted per row (``sort_indices`` in the
        constructor), so membership does not need the O(deg) linear scan
        of ``v in neighbors(u)``.
        """
        lo, hi = self._adj.indptr[u], self._adj.indptr[u + 1]
        pos = lo + np.searchsorted(self._adj.indices[lo:hi], v)
        return bool(pos < hi and self._adj.indices[pos] == v)

    def neighbor_at(self, nodes: np.ndarray,
                    offsets: np.ndarray) -> np.ndarray:
        """The ``offsets[i]``-th sorted neighbor of ``nodes[i]``.

        ``nodes`` and ``offsets`` broadcast against each other; every
        offset must lie in ``[0, degree)``.  Reads the int64 copies of the
        CSR arrays, made on the first call.
        """
        if self._csr64 is None:
            self._csr64 = (self._adj.indptr.astype(np.int64),
                           self._adj.indices.astype(np.int64))
        indptr, indices = self._csr64
        return indices[indptr[nodes] + offsets]

    def has_edges(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorized edge membership: ``out[i] = (u[i], v[i]) in E``.

        A binary search over the sorted ``row * n + col`` keys of all
        directed edge slots (CSR rows are sorted, so the flattened key
        array is too), built on the first call.
        """
        n = self.num_nodes
        if self._edge_keys is None:
            rows = np.repeat(np.arange(n, dtype=np.int64),
                             np.diff(self._adj.indptr))
            self._edge_keys = rows * n + self._adj.indices
        keys = np.asarray(u, dtype=np.int64) * n \
            + np.asarray(v, dtype=np.int64)
        table = self._edge_keys
        pos = np.searchsorted(table, keys)
        inside = pos < table.size
        hit = np.zeros(keys.shape, dtype=bool)
        hit[inside] = table[pos[inside]] == keys[inside]
        return hit

    def walk_engine(self) -> "WalkEngine":
        """Cached batched walk engine bound to this graph.

        The graph is immutable, so one engine (and the lazily built
        neighbor and edge key arrays) is shared by every walk-hungry
        consumer.
        """
        if self._walk_engine is None:
            from .walk_engine import WalkEngine

            self._walk_engine = WalkEngine(self)
        return self._walk_engine

    def edges(self) -> np.ndarray:
        """Array of shape (m, 2) with each undirected edge once (u < v)."""
        coo = sp.triu(self._adj, k=1).tocoo()
        return np.column_stack([coo.row, coo.col]).astype(np.int64)

    def density(self) -> float:
        n = self.num_nodes
        if n < 2:
            return 0.0
        return 2.0 * self.num_edges / (n * (n - 1))

    def __repr__(self) -> str:
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.num_nodes == other.num_nodes
                and (self._adj != other._adj).nnz == 0)

    # ------------------------------------------------------------------
    # Spectral / walk matrices
    # ------------------------------------------------------------------
    def transition_matrix(self) -> sp.csr_matrix:
        """Lazy random-walk matrix ``M = (A D^{-1} + I) / 2`` (Section II-A).

        Column-stochastic: column ``x`` is the one-step distribution of a
        walk at ``x``.  Isolated nodes self-loop with probability 1.
        """
        inv_deg = np.divide(1.0, self._degrees,
                            out=np.zeros_like(self._degrees),
                            where=self._degrees > 0)
        a_dinv = self._adj @ sp.diags(inv_deg)
        m = (a_dinv + sp.identity(self.num_nodes, format="csr")) / 2.0
        # Isolated nodes: A D^-1 column is zero, so M column sums to 1/2.
        # Give them a full self-loop instead so M stays column-stochastic;
        # the correction is a sparse diagonal, no Python loop needed.
        isolated = self._degrees == 0
        if isolated.any():
            m = sp.csr_matrix(m + sp.diags(np.where(isolated, 0.5, 0.0)))
        return m

    def volume(self, nodes: Sequence[int] | np.ndarray) -> int:
        """Sum of degrees of ``nodes`` (the graph-cut notion of volume)."""
        return int(self._degrees[np.asarray(nodes, dtype=np.int64)].sum())

    def cut_size(self, nodes: Sequence[int] | np.ndarray) -> int:
        """Number of edges with exactly one endpoint in ``nodes``."""
        mask = np.zeros(self.num_nodes, dtype=bool)
        mask[np.asarray(nodes, dtype=np.int64)] = True
        coo = sp.triu(self._adj, k=1).tocoo()
        return int(np.count_nonzero(mask[coo.row] != mask[coo.col]))

    def conductance(self, nodes: Sequence[int] | np.ndarray) -> float:
        """Conductance ``phi(S) = cut(S) / min(vol(S), vol(V-S))``.

        Returns 1.0 for degenerate sets (empty, full, or zero volume),
        matching the convention that such sets give no diffusion guarantee.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0 or nodes.size == self.num_nodes:
            return 1.0
        vol_s = self.volume(nodes)
        vol_rest = int(self._degrees.sum()) - vol_s
        denom = min(vol_s, vol_rest)
        if denom == 0:
            return 1.0
        return self.cut_size(nodes) / denom

    # ------------------------------------------------------------------
    # Subgraphs
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Sequence[int] | np.ndarray) -> "Graph":
        """Induced subgraph; node ids are compacted to 0..len(nodes)-1."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if np.unique(nodes).size != nodes.size:
            raise ValueError("subgraph nodes must be unique")
        sub = self._adj[nodes][:, nodes]
        return Graph(sub)

    def ego_network(self, anchors: Sequence[int] | np.ndarray) -> tuple["Graph", np.ndarray]:
        """1-hop ego network around ``anchors``.

        The paper's protected-group discrepancy (Eq. 16) is measured on
        "the 1-hop ego network with the anchor nodes from the protected
        group vertices".  Returns the induced subgraph and the original
        node ids it covers (anchors plus their neighbors, sorted).
        """
        anchors = np.asarray(anchors, dtype=np.int64)
        mask = np.zeros(self.num_nodes, dtype=bool)
        mask[anchors] = True
        for a in anchors:
            mask[self.neighbors(a)] = True
        nodes = np.flatnonzero(mask)
        return self.subgraph(nodes), nodes

    def to_networkx(self):
        """Convert to a ``networkx.Graph`` (for cross-checks in tests)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_nodes))
        g.add_edges_from(map(tuple, self.edges()))
        return g
