"""Common interface and walk→graph assembly shared by all generators.

Every model in the benchmark suite (ER, BA, GAE, NetGAN, TagGen, FairGen
and its ablations) implements :class:`GraphGenerativeModel` so the
evaluation harness can treat them uniformly: ``fit(graph)`` then
``generate(rng)``.

Walk-based models (NetGAN, TagGen, FairGen) share the score-matrix
assembly of Section II-D: synthetic walks are tallied into a matrix ``B``
of edge counts, and ``B`` is thresholded to an adjacency with the same
number of edges as the input, subject to a minimum-degree constraint.
"""

from __future__ import annotations

import abc

import numpy as np
import scipy.sparse as sp

from ..graph import Graph

__all__ = ["GraphGenerativeModel", "assemble_from_scores",
           "propose_edges_from_walk_counts"]


def prefix_state(prefix: str,
                 state: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Namespace a sub-module's ``state_dict`` under ``prefix/``."""
    return {f"{prefix}/{name}": value for name, value in state.items()}


def extract_state(state: dict[str, np.ndarray],
                  prefix: str) -> dict[str, np.ndarray]:
    """Inverse of :func:`prefix_state`: the entries under ``prefix/``."""
    lead = f"{prefix}/"
    return {name[len(lead):]: value
            for name, value in state.items() if name.startswith(lead)}


def propose_edges_from_walk_counts(fitted: Graph, counts: sp.spmatrix,
                                   num_edges: int,
                                   weight_fn=None) -> np.ndarray:
    """Rank novel edges by walk-transition support (optionally reweighted).

    ``counts`` is the symmetric score matrix from
    :func:`repro.graph.walks_to_edge_counts`; edges already present in
    the fitted graph are excluded.  ``weight_fn(rows, cols)``, when
    given, returns a multiplicative factor per candidate edge — FairGen
    passes its discriminator's same-class probability here so proposals
    respect the label structure.
    """
    novel = counts - counts.multiply(fitted.adjacency)
    novel = sp.triu(novel, k=1).tocoo()
    if novel.nnz == 0:
        return np.empty((0, 2), dtype=np.int64)
    scores = novel.data.astype(np.float64)
    if weight_fn is not None:
        scores = scores * np.asarray(weight_fn(novel.row, novel.col),
                                     dtype=np.float64)
    order = np.argsort(-scores, kind="stable")[:num_edges]
    return np.column_stack([novel.row[order],
                            novel.col[order]]).astype(np.int64)


class GraphGenerativeModel(abc.ABC):
    """Abstract graph generative model."""

    #: human-readable name used in benchmark tables
    name: str = "base"

    #: optional :class:`repro.train.TrainControl` installed by the
    #: experiment Runner before ``fit``.  Trainer-backed models pass it
    #: through to their :class:`repro.train.Trainer`, which gives the
    #: fit checkpoint/resume semantics (``<key>.ckpt.npz`` in the
    #: artifact cache); models without a training loop ignore it.
    train_control = None

    def __init__(self) -> None:
        self._fitted_graph: Graph | None = None

    @property
    def is_fitted(self) -> bool:
        return self._fitted_graph is not None

    def _require_fitted(self) -> Graph:
        if self._fitted_graph is None:
            raise RuntimeError(f"{type(self).__name__} must be fitted before "
                               "generating")
        return self._fitted_graph

    @abc.abstractmethod
    def fit(self, graph: Graph, rng: np.random.Generator,
            supervision=None) -> "GraphGenerativeModel":
        """Learn the model from an observed graph.  Returns ``self``.

        ``supervision`` is an optional
        :class:`repro.experiments.Supervision` carrying labels, the
        few-shot labeled set and the protected mask.  The contract is
        uniform across the model zoo: label-aware models (FairGen and
        its ablations) consume it, unsupervised baselines accept and
        ignore it — so every harness can call
        ``model.fit(graph, rng, supervision=...)`` without branching on
        the model type.
        """

    @abc.abstractmethod
    def generate(self, rng: np.random.Generator) -> Graph:
        """Produce a synthetic graph comparable to the fitted one."""

    # -- persistence contract (used by core.serialization.save_model) ----
    #
    # Every concrete model implements three hooks so a fitted instance
    # can round-trip through a flat ``.npz`` archive:
    #
    # * ``config_dict()``   — constructor arguments rebuilding the model
    #   unfitted (must be JSON-serialisable);
    # * ``state_dict()``    — the fitted state as flat named float/int
    #   arrays (neural parameters namespaced via :func:`prefix_state`);
    # * ``load_state_dict`` — restores that state into a freshly
    #   constructed instance whose ``_fitted_graph`` is already set (the
    #   loader needs the graph for module shapes).
    #
    # Restored models generate and propose edges; optimizer state is not
    # preserved, so loading is for inference, not for resuming training.

    def config_dict(self) -> dict:
        """Constructor keyword arguments that rebuild this model unfitted."""
        raise NotImplementedError(f"{type(self).__name__} does not support "
                                  "serialization")

    @classmethod
    def from_config_dict(cls, params: dict) -> "GraphGenerativeModel":
        """Rebuild an unfitted model from :meth:`config_dict` output."""
        return cls(**params)

    def state_dict(self) -> dict[str, np.ndarray]:
        """Fitted state as a flat mapping of named arrays."""
        raise NotImplementedError(f"{type(self).__name__} does not support "
                                  "serialization")

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore :meth:`state_dict` output; requires ``_fitted_graph``."""
        raise NotImplementedError(f"{type(self).__name__} does not support "
                                  "serialization")

    def propose_edges(self, num_edges: int,
                      rng: np.random.Generator) -> np.ndarray:
        """Propose up to ``num_edges`` plausible edges absent from the
        fitted graph, best first.

        Used by the data-augmentation study (Section III-D): the proposed
        edges are inserted into the original graph before feature
        learning.  The default implementation generates a graph and
        returns its novel edges; walk-based models override this with
        count-ranked proposals.
        """
        fitted = self._require_fitted()
        generated = self.generate(rng)
        novel = generated.adjacency - generated.adjacency.multiply(
            fitted.adjacency)
        novel = sp.triu(novel, k=1).tocoo()
        order = np.argsort(-novel.data, kind="stable")[:num_edges]
        return np.column_stack([novel.row[order],
                                novel.col[order]]).astype(np.int64)


def assemble_from_scores(scores: sp.spmatrix, num_edges: int,
                         min_degree: int = 1,
                         protected: np.ndarray | None = None,
                         protected_volume: int | None = None) -> Graph:
    """Threshold a symmetric score matrix into an adjacency (Section II-D).

    Selection order implements the paper's assembling criteria:

    1. every node with any observed score receives its single best edge
       (criterion 2: "each node should have at least one connected edge");
    2. if ``protected`` and ``protected_volume`` are given, top-scoring
       edges incident to protected nodes are added until the protected
       group's volume matches the original (criterion 1);
    3. remaining capacity is filled with the globally best edges until the
       output has ``num_edges`` edges, the same count as the input graph.

    Nodes with no score mass at all stay isolated — with enough generated
    walks this does not happen, which is why the paper generates "a much
    larger number of random walks than the sampled ones".
    """
    scores = sp.coo_matrix(scores)
    n = scores.shape[0]
    upper = scores.row < scores.col
    rows, cols, vals = scores.row[upper], scores.col[upper], scores.data[upper]
    if rows.size == 0:
        return Graph(sp.csr_matrix((n, n)))

    order = np.argsort(-vals, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]

    chosen = np.zeros(rows.size, dtype=bool)
    degree = np.zeros(n, dtype=np.int64)
    selected_count = 0

    def add(idx: int) -> None:
        nonlocal selected_count
        chosen[idx] = True
        selected_count += 1
        degree[rows[idx]] += 1
        degree[cols[idx]] += 1

    # 1. best edge per node (min-degree guarantee)
    if min_degree > 0:
        best_edge = np.full(n, -1, dtype=np.int64)
        for idx in range(rows.size):
            for endpoint in (rows[idx], cols[idx]):
                if best_edge[endpoint] == -1:
                    best_edge[endpoint] = idx
        for idx in np.unique(best_edge[best_edge >= 0]):
            if not chosen[idx]:
                add(int(idx))

    # 2. protected-volume criterion
    if protected is not None and protected_volume is not None:
        protected = np.asarray(protected, dtype=bool)
        incident = protected[rows] | protected[cols]
        protected_degree = int(degree[protected].sum())
        for idx in np.flatnonzero(incident):
            if selected_count >= num_edges or protected_degree >= protected_volume:
                break
            if not chosen[idx]:
                add(int(idx))
                protected_degree += int(protected[rows[idx]]) + int(protected[cols[idx]])

    # 3. fill to num_edges with globally best remaining edges.  The
    # volume criterion is bidirectional ("similar volume"): once the
    # protected group's generated volume reaches its original level,
    # further protected-incident edges are deferred — label-informed
    # training over-samples protected context, so their raw counts would
    # otherwise over-densify the group.  A second pass re-admits them
    # only if the edge budget cannot be met otherwise.
    cap_protected = protected is not None and protected_volume is not None
    if cap_protected:
        protected_degree = int(degree[protected].sum())
    deferred: list[int] = []
    for idx in range(rows.size):
        if selected_count >= num_edges:
            break
        if chosen[idx]:
            continue
        if cap_protected:
            incident_count = int(protected[rows[idx]]) + int(protected[cols[idx]])
            if incident_count and protected_degree + incident_count > protected_volume:
                deferred.append(idx)
                continue
            protected_degree += incident_count
        add(int(idx))
    for idx in deferred:
        if selected_count >= num_edges:
            break
        add(int(idx))

    sel = np.flatnonzero(chosen)
    r, c = rows[sel], cols[sel]
    data = np.ones(r.size)
    adj = sp.csr_matrix((np.concatenate([data, data]),
                         (np.concatenate([r, c]), np.concatenate([c, r]))),
                        shape=(n, n))
    return Graph(adj)
