"""Learned CART regression tree (extension beyond the paper).

Table IV's "Decision Tree" row is the hand-built Section IV model; this
module adds the natural follow-up the paper leaves as future work
("other thresholds may also work by fine tuning") — a CART tree *learned*
from the same training database, so the threshold-tuning question can be
studied empirically (see the ablation benchmark).  Single-output-mean leaf
model, variance-reduction splits, from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.predictors.base import LearnedPredictor
from repro.core.predictors.confidence import ConfidenceReport

__all__ = ["CartPredictor"]


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: np.ndarray | None = None  # leaf payload
    spread: float = 0.0  # leaf M1 std (purity signal)
    count: int = 0  # leaf training population

    @property
    def is_leaf(self) -> bool:
        """Whether this node carries a leaf payload."""
        return self.value is not None


class CartPredictor(LearnedPredictor):
    """Multi-output CART regression tree."""

    name = "cart"

    def __init__(self, *, max_depth: int = 8, min_samples: int = 8) -> None:
        super().__init__()
        if max_depth < 1 or min_samples < 1:
            raise ValueError("max_depth and min_samples must be positive")
        self.max_depth = int(max_depth)
        self.min_samples = int(min_samples)
        self._root: _Node | None = None
        # Flattened tree (built by _flatten) for vectorized batch descent.
        self._node_feature = np.empty(0, dtype=np.int64)
        self._node_threshold = np.empty(0, dtype=np.float64)
        self._node_left = np.empty(0, dtype=np.int64)
        self._node_right = np.empty(0, dtype=np.int64)
        self._node_leaf = np.empty(0, dtype=np.int64)
        self._leaf_values = np.empty((0, 0), dtype=np.float64)
        self._leaf_spread = np.empty(0, dtype=np.float64)
        self._leaf_count = np.empty(0, dtype=np.int64)

    #: Leaf uncertainty at which confidence crosses 0.5.
    CONFIDENCE_SCALE = 0.1
    #: Weight of the small-population term in leaf uncertainty.
    POPULATION_WEIGHT = 0.5

    def _build(
        self, features: np.ndarray, targets: np.ndarray, depth: int
    ) -> _Node:
        if depth >= self.max_depth or features.shape[0] < 2 * self.min_samples:
            return self._leaf(targets)
        parent_score = targets.var(axis=0).sum() * targets.shape[0]
        best = (None, None, parent_score - 1e-12)
        for feature in range(features.shape[1]):
            column = features[:, feature]
            candidates = np.unique(np.round(column, 3))
            if candidates.size < 2:
                continue
            thresholds = (candidates[:-1] + candidates[1:]) / 2.0
            for threshold in thresholds:
                mask = column <= threshold
                n_left = int(mask.sum())
                if n_left < self.min_samples or features.shape[0] - n_left < self.min_samples:
                    continue
                score = (
                    targets[mask].var(axis=0).sum() * n_left
                    + targets[~mask].var(axis=0).sum() * (features.shape[0] - n_left)
                )
                if score < best[2]:
                    best = (feature, threshold, score)
        feature, threshold, _ = best
        if feature is None:
            return self._leaf(targets)
        mask = features[:, feature] <= threshold
        return _Node(
            feature=feature,
            threshold=float(threshold),
            left=self._build(features[mask], targets[mask], depth + 1),
            right=self._build(features[~mask], targets[~mask], depth + 1),
        )

    @staticmethod
    def _leaf(targets: np.ndarray) -> _Node:
        """A leaf with its prediction plus purity/population statistics."""
        return _Node(
            value=targets.mean(axis=0),
            spread=float(targets[:, 0].std()),
            count=int(targets.shape[0]),
        )

    def _fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        self._root = self._build(features, targets, depth=0)
        self._flatten()

    def _flatten(self) -> None:
        """Lower the node tree into parallel arrays for vectorized descent.

        ``_node_feature[i]``/``_node_threshold[i]`` describe split node
        ``i``; ``_node_left``/``_node_right`` hold child indices; leaves
        carry ``_node_feature == -1`` and index their payload row in
        ``_leaf_values`` via ``_node_leaf``.
        """
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        leaf: list[int] = []
        leaf_values: list[np.ndarray] = []
        leaf_spread: list[float] = []
        leaf_count: list[int] = []

        def visit(node: _Node) -> int:
            index = len(feature)
            feature.append(node.feature)
            threshold.append(node.threshold)
            left.append(-1)
            right.append(-1)
            leaf.append(-1)
            if node.is_leaf:
                feature[index] = -1
                leaf[index] = len(leaf_values)
                assert node.value is not None
                leaf_values.append(node.value)
                leaf_spread.append(node.spread)
                leaf_count.append(node.count)
            else:
                assert node.left is not None and node.right is not None
                left[index] = visit(node.left)
                right[index] = visit(node.right)
            return index

        assert self._root is not None
        visit(self._root)
        self._node_feature = np.asarray(feature, dtype=np.int64)
        self._node_threshold = np.asarray(threshold, dtype=np.float64)
        self._node_left = np.asarray(left, dtype=np.int64)
        self._node_right = np.asarray(right, dtype=np.int64)
        self._node_leaf = np.asarray(leaf, dtype=np.int64)
        self._leaf_values = np.vstack(leaf_values)
        self._leaf_spread = np.asarray(leaf_spread, dtype=np.float64)
        self._leaf_count = np.asarray(leaf_count, dtype=np.int64)

    def _leaf_rows(self, features: np.ndarray) -> np.ndarray:
        """Vectorized descent: all rows walk the tree in lockstep, one
        gather + comparison per tree level instead of a Python loop per
        row.  Returns each row's ``_leaf_values`` row index; comparisons
        are identical to a node walk, so batched and scalar lookups agree
        bit-for-bit."""
        node = np.zeros(features.shape[0], dtype=np.int64)
        active = np.flatnonzero(self._node_feature[node] >= 0)
        while active.size:
            current = node[active]
            split_feature = self._node_feature[current]
            go_left = (
                features[active, split_feature] <= self._node_threshold[current]
            )
            node[active] = np.where(
                go_left, self._node_left[current], self._node_right[current]
            )
            active = active[self._node_feature[node[active]] >= 0]
        return self._node_leaf[node]

    def _predict(self, features: np.ndarray) -> np.ndarray:
        return self._leaf_values[self._leaf_rows(features)]

    def _confidence(self, features: np.ndarray) -> ConfidenceReport:
        """Confidence from the landing leaf's purity and population.

        A pure, well-populated leaf (every training row agreed on M1,
        many of them) is near-certain; a mixed or thin leaf is not.
        Uncertainty is the leaf's M1 std plus a ``1/population`` term so
        a unanimous-but-tiny leaf still reads as uncertain.
        """
        rows = self._leaf_rows(features)
        uncertainty = (
            self._leaf_spread[rows]
            + self.POPULATION_WEIGHT / np.maximum(self._leaf_count[rows], 1)
        )
        return ConfidenceReport.from_uncertainty(
            uncertainty, scale=self.CONFIDENCE_SCALE, source="leaf-stats"
        )

    def depth(self) -> int:
        """Actual tree depth after fitting (0 for a single leaf)."""
        def walk(node: _Node | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._root)
