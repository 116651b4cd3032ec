"""Batched random-walk engine over a :class:`~repro.graph.Graph`.

The scalar walkers in :mod:`repro.graph.random_walk` advance one walk one
step at a time, which makes Python-loop overhead the dominant cost of every
walk-hungry stage of the pipeline (context sampling ``f_S``, node2vec
features for ``d_omega``, negative pools, generation-time score matrices).
This module advances *all* active walks one step per iteration using only
vectorized NumPy primitives:

- first-order steps draw a neighbor offset per walk with a single
  ``rng.integers`` call over the per-walk degrees;
- the node2vec ``p``/``q`` second-order bias is applied by vectorized
  rejection sampling (propose a uniform neighbor, accept with probability
  ``w / w_max``), with a batched exact inverse-CDF fallback advancing all
  walks that exhaust the rejection budget in one pass, so no ``np.isin``
  neighborhood scans are needed;
- start batching supports the degree-weighted convention of
  :func:`repro.graph.random_walk.sample_walks` (inverse-CDF over the
  cumulative degree vector) and the per-class pools of the label-informed
  sampler ``f_S``.

**The graph seam.**  The engine reads a graph only through ``num_nodes``,
``degrees``, ``neighbor_at(nodes, offsets)`` (the ``offsets[i]``-th sorted
neighbor of ``nodes[i]``), ``has_edges(u, v)`` and, in the scalar test
reference only, ``neighbors(node)``.  :class:`~repro.graph.Graph` answers
from its CSR arrays, hiding the lazily built int64 CSR copy and edge-key
table.  Every draw is one vectorized call over the whole frontier in walk
order whose arguments depend only on degrees and the seam's answers.

The scalar :func:`repro.graph.random_walk.node2vec_walk` and
:func:`repro.graph.random_walk.uniform_random_walk` remain as reference
implementations; equivalence tests assert matched transition statistics.
"""

from __future__ import annotations

from typing import Sequence, TYPE_CHECKING

import numpy as np

from ..obs import trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .graph import Graph

__all__ = ["WalkEngine"]


class WalkEngine:
    """Vectorized multi-walk sampler bound to one (immutable) graph.

    Construction is cheap — the engine copies only the degree vector — so
    :meth:`Graph.walk_engine` caches one instance per graph.
    """

    def __init__(self, graph: "Graph",
                 max_rejection_rounds: int = 50):
        self.graph = graph
        self.num_nodes = graph.num_nodes
        self.degrees = graph.degrees.astype(np.int64)
        self.max_rejection_rounds = max_rejection_rounds
        self._cumulative_degrees: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Start batching
    # ------------------------------------------------------------------
    def sample_starts(self, num: int, rng: np.random.Generator,
                      weight: str = "degree") -> np.ndarray:
        """Draw ``num`` start nodes, degree-weighted by default.

        Degree weighting uses inverse-CDF sampling over the cumulative
        degree vector (a uniform integer in ``[0, vol(G))`` indexes an
        edge slot; its owning row is the start node), matching the
        NetGAN / node2vec "walks per unit of volume" convention of
        :func:`repro.graph.random_walk.sample_walks`.  Graphs with no
        edges fall back to uniform starts.
        """
        if weight not in ("degree", "uniform"):
            raise ValueError("weight must be 'degree' or 'uniform'")
        total = int(self.degrees.sum())
        if weight == "uniform" or total == 0:
            return rng.integers(self.num_nodes, size=num)
        if self._cumulative_degrees is None:
            self._cumulative_degrees = np.cumsum(self.degrees)
        slots = rng.integers(total, size=num)
        return np.searchsorted(self._cumulative_degrees, slots,
                               side="right").astype(np.int64)

    @staticmethod
    def class_batched_starts(pools: Sequence[np.ndarray], num: int,
                             rng: np.random.Generator) -> np.ndarray:
        """Class-uniform batched starts for the label-guided walks of f_S.

        Picks a class uniformly per walk, then a start uniformly from that
        class's (non-empty) pool — all in four vectorized draws.
        """
        if not pools or any(p.size == 0 for p in pools):
            raise ValueError("every class pool must be non-empty")
        sizes = np.array([p.size for p in pools], dtype=np.int64)
        flat = np.concatenate([np.asarray(p, dtype=np.int64) for p in pools])
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        cls = rng.integers(len(pools), size=num)
        within = rng.integers(sizes[cls])
        return flat[offsets[cls] + within]

    def _check_starts(self, starts) -> np.ndarray:
        """``starts`` as int64, or ``ValueError`` unless they are integer
        node ids in ``[0, num_nodes)``."""
        starts = np.asarray(starts)
        if starts.size and (
                starts.dtype.kind not in "iu" or starts.min() < 0
                or starts.max() >= self.num_nodes):
            raise ValueError(
                f"walk starts must be integer node ids in [0, "
                f"{self.num_nodes})")
        return starts.astype(np.int64)

    # ------------------------------------------------------------------
    # Walk kernels
    # ------------------------------------------------------------------
    def _uniform_step(self, cur: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
        """Advance every walk one first-order step in place (lazy stall
        at isolated nodes)."""
        deg = self.degrees[cur]
        active = deg > 0
        if active.any():
            cur[active] = self.graph.neighbor_at(cur[active],
                                                 rng.integers(deg[active]))
        return cur

    def uniform_walks(self, starts: np.ndarray, length: int,
                      rng: np.random.Generator) -> np.ndarray:
        """First-order walks from ``starts``; shape ``(len(starts), length)``."""
        if length < 1:
            raise ValueError("walk length must be >= 1")
        starts = self._check_starts(starts)
        walks = np.empty((starts.size, length), dtype=np.int64)
        walks[:, 0] = starts
        cur = starts.copy()
        with trace.span("walks.uniform", walks=int(starts.size),
                        length=length):
            for t in range(1, length):
                walks[:, t] = self._uniform_step(cur, rng)
        return walks

    def node2vec_walks(self, starts: np.ndarray, length: int,
                       rng: np.random.Generator,
                       p: float = 1.0, q: float = 1.0) -> np.ndarray:
        """Biased second-order walks from ``starts`` (Grover & Leskovec).

        Transition weights from ``cur`` (previous node ``prev``) to a
        neighbor ``x``: ``1/p`` if ``x == prev``, ``1`` if ``x`` is
        adjacent to ``prev``, ``1/q`` otherwise — identical to the scalar
        :func:`repro.graph.random_walk.node2vec_walk` reference.  With
        ``p == q == 1`` the bias vanishes and the engine takes the pure
        first-order fast path.
        """
        if p <= 0 or q <= 0:
            raise ValueError("node2vec parameters p and q must be positive")
        if p == 1.0 and q == 1.0:
            return self.uniform_walks(starts, length, rng)
        if length < 1:
            raise ValueError("walk length must be >= 1")
        starts = self._check_starts(starts)
        walks = np.empty((starts.size, length), dtype=np.int64)
        walks[:, 0] = starts
        if length == 1:
            return walks
        cur = starts.copy()
        walks[:, 1] = self._uniform_step(cur, rng)
        inv_p, inv_q = 1.0 / p, 1.0 / q
        w_max = max(inv_p, 1.0, inv_q)
        total_rounds = 0
        exact_fallbacks = 0
        with trace.span("walks.biased", walks=int(starts.size),
                        length=length, p=p, q=q) as sp:
            for t in range(2, length):
                prev = walks[:, t - 2]
                nxt = cur.copy()
                pending = np.flatnonzero(self.degrees[cur] > 0)
                rounds = 0
                while pending.size:
                    if rounds >= self.max_rejection_rounds:
                        with trace.span("walks.exact_fallback",
                                        stragglers=int(pending.size), t=t):
                            self._exact_biased_steps(cur, prev, pending,
                                                     nxt, rng, inv_p, inv_q)
                        exact_fallbacks += 1
                        break
                    src = cur[pending]
                    candidates = self.graph.neighbor_at(
                        src, rng.integers(self.degrees[src]))
                    weights = np.where(
                        candidates == prev[pending], inv_p,
                        np.where(self.graph.has_edges(candidates,
                                                      prev[pending]),
                                 1.0, inv_q))
                    accepted = rng.random(pending.size) * w_max < weights
                    nxt[pending[accepted]] = candidates[accepted]
                    pending = pending[~accepted]
                    rounds += 1
                total_rounds += rounds
                cur = nxt
                walks[:, t] = cur
            sp.set(rejection_rounds=total_rounds,
                   exact_fallbacks=exact_fallbacks)
        return walks

    #: peak cells (walks x padded degree) per straggler batch; bounds the
    #: fallback's temporaries at ~8 MB of float64 even near large hubs
    _EXACT_CELL_BUDGET = 1 << 20

    def _exact_biased_steps(self, cur: np.ndarray, prev: np.ndarray,
                            pending: np.ndarray, out: np.ndarray,
                            rng: np.random.Generator,
                            inv_p: float, inv_q: float) -> None:
        """Batched exact weighted draw for rejection-round stragglers.

        Pending walks advance in vectorized batches: the variable-length
        neighborhoods are padded into a ``(P, max_deg)`` rectangle (zero
        weight past each row's degree, so the row-wise ``cumsum`` partial
        sums are bit-identical to the per-walk ones), each row's CDF is
        normalised, and one uniform per walk selects the neighbor by
        inverse-CDF — the same draw, in the same RNG order, as the
        per-walk :meth:`_exact_biased_steps_scalar` reference, so both
        paths produce identical steps from identical generator state.

        Batches are cut so the rectangle never exceeds
        ``_EXACT_CELL_BUDGET`` cells: a run of hub-adjacent walks cannot
        blow the padded temporaries up to O(P * max_deg) gigabytes the
        way a single all-pending rectangle could.  Walks are consumed in
        ``pending`` order, one uniform each, so the chunking is invisible
        to the RNG stream.
        """
        deg_all = self.degrees[cur[pending]]
        start = 0
        while start < pending.size:
            stop = start + 1
            width = int(deg_all[start])
            while stop < pending.size:
                next_width = max(width, int(deg_all[stop]))
                if (stop - start + 1) * next_width > self._EXACT_CELL_BUDGET:
                    break
                width = next_width
                stop += 1
            self._exact_biased_batch(cur, prev, pending[start:stop], out,
                                     rng, inv_p, inv_q)
            start = stop

    def _exact_biased_batch(self, cur: np.ndarray, prev: np.ndarray,
                            pending: np.ndarray, out: np.ndarray,
                            rng: np.random.Generator,
                            inv_p: float, inv_q: float) -> None:
        """One padded-rectangle inverse-CDF draw over ``pending`` walks."""
        src = cur[pending]
        deg = self.degrees[src]  # > 0: pending excludes isolated nodes
        cols = np.arange(int(deg.max()))
        valid = cols[None, :] < deg[:, None]
        # Clamp padded slots to each row's first neighbor; their weight
        # is zeroed below so the value never matters.
        nbrs = self.graph.neighbor_at(src[:, None],
                                      np.where(valid, cols[None, :], 0))
        prev_col = np.broadcast_to(prev[pending][:, None], nbrs.shape)
        weights = np.where(
            nbrs == prev_col, inv_p,
            np.where(self.graph.has_edges(nbrs, prev_col), 1.0, inv_q))
        weights[~valid] = 0.0
        cdf = np.cumsum(weights, axis=1)
        cdf /= cdf[np.arange(pending.size), deg - 1][:, None]
        cdf[~valid] = np.inf  # padded slots must never be selected
        u = rng.random(pending.size)
        choice = (cdf <= u[:, None]).sum(axis=1)  # searchsorted 'right'
        out[pending] = nbrs[np.arange(pending.size), choice]

    def _exact_biased_steps_scalar(self, cur: np.ndarray, prev: np.ndarray,
                                   pending: np.ndarray, out: np.ndarray,
                                   rng: np.random.Generator,
                                   inv_p: float, inv_q: float) -> None:
        """Per-walk reference for :meth:`_exact_biased_steps`.

        Kept for the equivalence regression test: it consumes one
        uniform per pending walk in the same order as the batched path
        (``n`` scalar ``rng.random()`` calls draw the same doubles as
        one ``rng.random(n)``), so seeded outputs must match exactly.
        """
        for i in pending:
            nbrs = self.graph.neighbors(int(cur[i]))
            weights = np.where(
                nbrs == prev[i], inv_p,
                np.where(self.graph.has_edges(nbrs,
                                              np.full(nbrs.size, prev[i])),
                         1.0, inv_q))
            cdf = np.cumsum(weights)
            cdf /= cdf[-1]
            out[i] = nbrs[int(np.searchsorted(cdf, rng.random(),
                                              side="right"))]

    # ------------------------------------------------------------------
    def walks(self, num_walks: int, length: int, rng: np.random.Generator,
              starts: np.ndarray | None = None,
              p: float = 1.0, q: float = 1.0) -> np.ndarray:
        """Degree-weighted-start node2vec walks; the engine's front door."""
        if num_walks <= 0:
            raise ValueError("num_walks must be positive")
        if starts is None:
            starts = self.sample_starts(num_walks, rng)
        elif np.size(starts) != num_walks:
            raise ValueError("starts must have num_walks entries")
        return self.node2vec_walks(starts, length, rng, p=p, q=q)
