"""The label-informed context sampling function ``f_S`` (Section II-B, M1).

``f_S`` draws a random number ``r' in [0, 1]`` per walk.  With probability
``r`` it emits a *general* biased second-order (node2vec) walk capturing
the overall structure distribution; with probability ``1 - r`` it emits a
*label-guided* walk that starts from a labeled example.  Lemma 2.1
guarantees that when the start node lies in the diffusion core of its
class subgraph ``S``, the walk stays inside ``S`` — and hence captures
purely group-specific context — with probability at least
``1 - T * delta * phi(S)``.

Label-guided starts are drawn class-uniformly (pick a class, then a
labeled node of that class), preferring diffusion-core members.  This is
what equalises the contribution of the scarce protected group against the
abundant unprotected one.
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph, WalkEngine, diffusion_core, sample_walks

__all__ = ["ContextSampler"]


class ContextSampler:
    """Stateful implementation of ``f_S`` over a fixed input graph."""

    def __init__(self, graph: Graph, sampling_ratio: float,
                 walk_length: int, delta: float = 0.5,
                 diffusion_steps: int = 5):
        if not 0.0 <= sampling_ratio <= 1.0:
            raise ValueError("sampling_ratio must be in [0, 1]")
        self.graph = graph
        self.sampling_ratio = sampling_ratio
        self.walk_length = walk_length
        self.delta = delta
        self.diffusion_steps = diffusion_steps
        self._class_starts: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def update_labels(self, labeled_nodes: np.ndarray,
                      labeled_classes: np.ndarray) -> None:
        """Refresh the per-class start pools from (pseudo-)labeled nodes.

        Called once per self-paced cycle after the self-paced vectors are
        updated (Algorithm 1, step 5).  For every class we compute the
        diffusion core of its labeled subgraph; core members are preferred
        walk starts, with a fallback to all labeled members when the core
        is empty (e.g. a class with a single labeled node).
        """
        labeled_nodes = np.asarray(labeled_nodes, dtype=np.int64)
        labeled_classes = np.asarray(labeled_classes, dtype=np.int64)
        if labeled_nodes.shape != labeled_classes.shape:
            raise ValueError("labeled nodes/classes shape mismatch")
        self._class_starts.clear()
        for cls in np.unique(labeled_classes):
            members = labeled_nodes[labeled_classes == cls]
            if members.size >= 2:
                core = diffusion_core(self.graph, members, self.delta,
                                      self.diffusion_steps)
            else:
                core = np.empty(0, dtype=np.int64)
            self._class_starts[int(cls)] = core if core.size else members

    @property
    def classes(self) -> list[int]:
        return sorted(self._class_starts)

    def class_starts(self, cls: int) -> np.ndarray:
        """Diffusion-core starts for a class (falls back to all members)."""
        return self._class_starts[cls]

    # ------------------------------------------------------------------
    def sample(self, num_walks: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``num_walks`` context walks according to ``f_S``.

        The general/label-guided split only affects the *start* of each
        walk, so the batch is materialised as one start vector — general
        starts degree-weighted, label-guided starts per-class batched —
        and advanced in a single call on the batched walk engine.
        """
        if num_walks <= 0:
            raise ValueError("num_walks must be positive")
        if not self._class_starts:
            # Without labels f_S degenerates to general sampling.
            return sample_walks(self.graph, num_walks, self.walk_length, rng)

        engine = self.graph.walk_engine()
        general = rng.random(num_walks) < self.sampling_ratio
        starts = np.empty(num_walks, dtype=np.int64)
        num_general = int(general.sum())
        if num_general:
            starts[general] = engine.sample_starts(num_general, rng)
        if num_general < num_walks:
            pools = [self._class_starts[cls] for cls in self.classes]
            starts[~general] = WalkEngine.class_batched_starts(
                pools, num_walks - num_general, rng)
        return engine.node2vec_walks(starts, self.walk_length, rng)

    def label_guided_fraction(self) -> float:
        """Expected fraction of walks that are label-guided (``1 - r``)."""
        return 1.0 - self.sampling_ratio
