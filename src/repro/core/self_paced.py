"""Self-paced learning state (Section II-B, M3).

The self-paced vectors ``v^(c) in {0,1}^n`` select which nodes participate
in the label-propagation loss.  Their closed-form update (Eq. 14) admits a
node into class ``c`` when its prediction loss ``-log P(y=c|x)`` falls
below the threshold ``lambda``; raising ``lambda`` each cycle admits
progressively *harder* examples — the easy-to-hard curriculum.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SelfPacedState"]


class SelfPacedState:
    """Tracks ``v^(1..C)``, the threshold ``lambda`` and pseudo labels."""

    def __init__(self, num_nodes: int, num_classes: int,
                 labeled_nodes: np.ndarray, labeled_classes: np.ndarray,
                 lambda_init: float, lambda_growth: float):
        if num_classes < 2:
            raise ValueError("need at least two classes")
        if lambda_init <= 0:
            raise ValueError("lambda must be positive")
        self.num_nodes = num_nodes
        self.num_classes = num_classes
        self.lambda_value = float(lambda_init)
        self.lambda_growth = float(lambda_growth)

        labeled_nodes = np.asarray(labeled_nodes, dtype=np.int64)
        labeled_classes = np.asarray(labeled_classes, dtype=np.int64)
        if labeled_nodes.size == 0:
            raise ValueError("at least one labeled node is required")
        if labeled_classes.min() < 0 or labeled_classes.max() >= num_classes:
            raise ValueError("class label out of range")
        self._ground_truth_nodes = labeled_nodes
        self._ground_truth_classes = labeled_classes

        # Algorithm 1, step 1: v_i^(c) = 1 for nodes labeled c, else 0.
        self.v = np.zeros((num_nodes, num_classes), dtype=np.int8)
        self.v[labeled_nodes, labeled_classes] = 1

    # ------------------------------------------------------------------
    @property
    def ground_truth_nodes(self) -> np.ndarray:
        return self._ground_truth_nodes

    # ------------------------------------------------------------------
    def augment_lambda(self) -> float:
        """Algorithm 1, step 7: grow the threshold, returning the new value."""
        self.lambda_value *= self.lambda_growth
        return self.lambda_value

    def update(self, log_probs: np.ndarray,
               max_per_class: int | None = None) -> np.ndarray:
        """Eq. 14: ``v_i^(c) = 1  iff  -log P(y=c|x_i) < lambda``.

        Ground-truth assignments are pinned to 1 regardless of the model's
        current confidence.  ``max_per_class`` optionally keeps only the
        most confident admissions per class — the standard self-paced
        safeguard against one class flooding the curriculum when the
        threshold first crosses the model's typical confidence level.
        Returns the updated matrix.
        """
        log_probs = np.asarray(log_probs, dtype=np.float64)
        if log_probs.shape != (self.num_nodes, self.num_classes):
            raise ValueError("log_probs must be (num_nodes, num_classes)")
        self.v = (-log_probs < self.lambda_value).astype(np.int8)
        self.v[self._ground_truth_nodes] = 0
        if max_per_class is not None:
            if max_per_class < 0:
                raise ValueError("max_per_class must be non-negative")
            for cls in range(self.num_classes):
                admitted = np.flatnonzero(self.v[:, cls])
                if admitted.size > max_per_class:
                    confident = admitted[np.argsort(
                        -log_probs[admitted, cls])[:max_per_class]]
                    self.v[:, cls] = 0
                    self.v[confident, cls] = 1
        self.v[self._ground_truth_nodes, self._ground_truth_classes] = 1
        return self.v

    # ------------------------------------------------------------------
    def selected_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All (node, class) pairs with ``v = 1`` (for the J_L term)."""
        nodes, classes = np.nonzero(self.v)
        return nodes.astype(np.int64), classes.astype(np.int64)

    def pseudo_labels(self, log_probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Augmented training set: ground truth plus confident pseudo labels.

        A node becomes pseudo-labeled with its most likely class when its
        self-paced vector admits that class.  Ground-truth labels always
        win over pseudo labels (Algorithm 1, step 8).
        """
        log_probs = np.asarray(log_probs, dtype=np.float64)
        best = log_probs.argmax(axis=1)
        admitted = self.v[np.arange(self.num_nodes), best] == 1
        admitted[self._ground_truth_nodes] = False
        pseudo_nodes = np.flatnonzero(admitted)
        nodes = np.concatenate([self._ground_truth_nodes, pseudo_nodes])
        classes = np.concatenate([self._ground_truth_classes,
                                  best[pseudo_nodes]])
        return nodes, classes

    def num_selected(self) -> int:
        """Total count of active (node, class) selections."""
        return int(self.v.sum())
