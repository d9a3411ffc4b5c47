"""CART decision-tree classifier (gini impurity).

The paper's CAD3 fusion stage: a Decision Tree over the feature vector
``[Hour, P_X, Class_NB]`` decides normal/abnormal at the collaborating
RSU (Sec. IV-D).  Explainability is a stated design goal ("human lives
are at stake ... explaining the algorithms' decisions is critical"), so
the implementation keeps an inspectable node structure and can render
the learned rules as text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.ml.base import check_fitted, check_X, check_Xy, class_column


@dataclass
class TreeNode:
    """One node of the fitted tree.

    Leaves have ``feature is None`` and carry the class distribution of
    the training samples that reached them.
    """

    n_samples: int
    class_counts: np.ndarray  # counts per class, in classes_ order
    depth: int
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    @property
    def proba(self) -> np.ndarray:
        return self.class_counts / self.class_counts.sum()


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    fractions = counts / total
    return float(1.0 - np.square(fractions).sum())


#: Classes up to which numpy sums a short vector left to right (it
#: switches to blocked pairwise summation at eight elements).
_SEQUENTIAL_SUM_MAX = 7


def _ginis(counts: np.ndarray) -> np.ndarray:
    """:func:`_gini` of each row of ``counts``, bit for bit: the squared
    fractions summed left to right, as ``ndarray.sum`` does a vector of
    at most :data:`_SEQUENTIAL_SUM_MAX` elements (row by row beyond)."""
    if counts.shape[1] > _SEQUENTIAL_SUM_MAX:
        return np.array([_gini(row) for row in counts])
    totals = counts.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        squares = np.square(counts / totals[:, None])
    summed = squares[:, 0].copy()
    for column in squares[:, 1:].T:
        summed += column
    ginis = 1.0 - summed
    ginis[totals == 0] = 0.0
    return ginis


class DecisionTreeClassifier:
    """Binary-split CART with gini impurity.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; MLlib's default of 5 keeps the tree
        explainable and is what we use throughout.
    min_samples_split:
        Minimum samples in a node for it to be considered for a split.
    min_samples_leaf:
        Minimum samples on each side of an accepted split.
    max_thresholds:
        Candidate thresholds per feature per node (quantile bins); caps
        fit cost on large batches, mirroring MLlib's binned splits.
    """

    def __init__(
        self,
        max_depth: int = 5,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_thresholds: int = 32,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if max_thresholds < 1:
            raise ValueError("max_thresholds must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_thresholds = max_thresholds
        self.classes_: Optional[np.ndarray] = None
        self.root_: Optional[TreeNode] = None
        self.n_features_: int = 0

    # ------------------------------------------------------------------
    def fit(self, X, y) -> "DecisionTreeClassifier":
        X, y = check_Xy(X, y)
        self.classes_ = np.unique(y)
        self.n_features_ = X.shape[1]
        y_index = np.searchsorted(self.classes_, y)
        self.root_ = self._build(X, y_index, depth=0)
        return self

    def _class_counts(self, y_index: np.ndarray) -> np.ndarray:
        return np.bincount(y_index, minlength=len(self.classes_))

    def _build(self, X: np.ndarray, y_index: np.ndarray, depth: int) -> TreeNode:
        counts = self._class_counts(y_index)
        node = TreeNode(n_samples=len(y_index), class_counts=counts, depth=depth)
        if (
            depth >= self.max_depth
            or len(y_index) < self.min_samples_split
            or _gini(counts) == 0.0
        ):
            return node
        split = self._best_split(X, y_index, counts)
        if split is None:
            return node
        feature, threshold, mask = split
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y_index[mask], depth + 1)
        node.right = self._build(X[~mask], y_index[~mask], depth + 1)
        return node

    def _candidate_thresholds(self, values: np.ndarray) -> np.ndarray:
        unique = np.unique(values)
        if len(unique) <= 1:
            return np.empty(0)
        midpoints = (unique[:-1] + unique[1:]) / 2.0
        if len(midpoints) <= self.max_thresholds:
            return midpoints
        quantiles = np.linspace(0.0, 1.0, self.max_thresholds + 2)[1:-1]
        return np.unique(np.quantile(values, quantiles))

    def _best_split(
        self, X: np.ndarray, y_index: np.ndarray, parent_counts: np.ndarray
    ):
        """The first (feature, candidate threshold) whose gini gain is
        the largest, if above 1e-12.  Each feature's candidates are
        scored at once: the class counts left of every threshold from
        one stable sort and a cumulative count, the gains from the same
        float operations the per-candidate rule makes."""
        parent_gini = _gini(parent_counts)
        total = len(y_index)
        best_gain = 1e-12
        best = None
        onehot = np.zeros((total, len(parent_counts)), dtype=np.int64)
        onehot[np.arange(total), y_index] = 1
        for feature in range(X.shape[1]):
            values = X[:, feature]
            thresholds = self._candidate_thresholds(values)
            if not len(thresholds):
                continue
            order = np.argsort(values, kind="stable")
            below = np.zeros((total + 1, len(parent_counts)), dtype=np.int64)
            np.cumsum(onehot[order], axis=0, out=below[1:])
            n_left = np.searchsorted(values[order], thresholds, side="right")
            n_right = total - n_left
            left_counts = below[n_left]
            weighted = (
                n_left * _ginis(left_counts)
                + n_right * _ginis(parent_counts - left_counts)
            ) / total
            gains = parent_gini - weighted
            gains[
                (n_left < self.min_samples_leaf)
                | (n_right < self.min_samples_leaf)
                | np.isnan(gains)
            ] = -np.inf
            pick = int(np.argmax(gains))
            if gains[pick] > best_gain:
                best_gain = float(gains[pick])
                threshold = thresholds[pick]
                best = (feature, float(threshold), values <= threshold)
        return best

    # ------------------------------------------------------------------
    def _leaf_proba_matrix(self, X: np.ndarray) -> np.ndarray:
        """Vectorised routing: partition row indices down the tree.

        Equivalent to walking the tree from the root once per row, but
        O(depth) numpy passes instead of a Python loop per sample — the
        hot path when scoring paper-scale batches.
        """
        out = np.empty((len(X), len(self.classes_)))
        stack = [(self.root_, np.arange(len(X)))]
        while stack:
            node, indices = stack.pop()
            if indices.size == 0:
                continue
            if node.is_leaf:
                out[indices] = node.proba
                continue
            mask = X[indices, node.feature] <= node.threshold
            stack.append((node.left, indices[mask]))
            stack.append((node.right, indices[~mask]))
        return out

    def predict_proba(self, X) -> np.ndarray:
        check_fitted(self)
        X = check_X(X, self.n_features_)
        return self._leaf_proba_matrix(X)

    def predict(self, X) -> np.ndarray:
        check_fitted(self)
        X = check_X(X, self.n_features_)
        proba = self._leaf_proba_matrix(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def predict_and_proba(self, X, cls) -> tuple:
        """(classes, P(cls)) from one routing pass: :meth:`predict` and
        :meth:`proba_of` bit for bit."""
        check_fitted(self)
        column = class_column(self.classes_, cls)
        proba = self._leaf_proba_matrix(check_X(X, self.n_features_))
        return self.classes_[np.argmax(proba, axis=1)], proba[:, column]

    def proba_of(self, X, cls) -> np.ndarray:
        """Probability column for class ``cls`` (see NB counterpart)."""
        check_fitted(self)
        return self.predict_proba(X)[:, class_column(self.classes_, cls)]

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        check_fitted(self)

        def walk(node: TreeNode) -> int:
            if node.is_leaf:
                return node.depth
            return max(walk(node.left), walk(node.right))

        return walk(self.root_)

    @property
    def n_leaves(self) -> int:
        check_fitted(self)

        def walk(node: TreeNode) -> int:
            if node.is_leaf:
                return 1
            return walk(node.left) + walk(node.right)

        return walk(self.root_)

    def export_text(self, feature_names: Optional[List[str]] = None) -> str:
        """Human-readable rules — the explainability the paper values."""
        check_fitted(self)
        names = feature_names or [f"x{i}" for i in range(self.n_features_)]
        if len(names) != self.n_features_:
            raise ValueError(
                f"feature_names has {len(names)} entries for "
                f"{self.n_features_} features"
            )
        lines: List[str] = []

        def walk(node: TreeNode, indent: str) -> None:
            if node.is_leaf:
                cls = self.classes_[int(np.argmax(node.class_counts))]
                lines.append(
                    f"{indent}predict {cls!r} "
                    f"(n={node.n_samples}, p={node.proba.max():.2f})"
                )
                return
            lines.append(f"{indent}if {names[node.feature]} <= {node.threshold:.4f}:")
            walk(node.left, indent + "  ")
            lines.append(f"{indent}else:")
            walk(node.right, indent + "  ")

        walk(self.root_, "")
        return "\n".join(lines)

    def __repr__(self) -> str:
        state = "fitted" if self.root_ is not None else "unfitted"
        return f"DecisionTreeClassifier({state}, max_depth={self.max_depth})"
