"""Random forest: bagged CART trees.

The heavier end of the paper's future-work spectrum ("more complex
anomaly detection algorithms"), used by the ablation benches to
quantify what CAD3 would gain — and what explainability it would lose
— by moving past the NB + single-DT design.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.base import check_fitted, check_X, check_Xy, class_column
from repro.ml.decision_tree import DecisionTreeClassifier


class RandomForestClassifier:
    """Bootstrap-aggregated decision trees with feature subsampling.

    Parameters
    ----------
    n_trees:
        Ensemble size.
    max_depth, min_samples_leaf, max_thresholds:
        Passed to each :class:`DecisionTreeClassifier`.
    max_features:
        Features sampled per tree ("sqrt" or an int); trees see a
        random feature subset, decorrelating the ensemble.
    seed:
        Seed for bootstrap and feature sampling.
    """

    def __init__(
        self,
        n_trees: int = 20,
        max_depth: int = 8,
        min_samples_leaf: int = 2,
        max_thresholds: int = 16,
        max_features="sqrt",
        seed: int = 0,
    ) -> None:
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_thresholds = max_thresholds
        self.max_features = max_features
        self.seed = seed
        self.classes_: Optional[np.ndarray] = None
        self.trees_: list = []
        self.feature_subsets_: list = []
        self.n_features_: int = 0

    def _n_subfeatures(self, n_features: int) -> int:
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        count = int(self.max_features)
        if not 1 <= count <= n_features:
            raise ValueError(
                f"max_features={count} out of range for {n_features} features"
            )
        return count

    def fit(self, X, y) -> "RandomForestClassifier":
        X, y = check_Xy(X, y)
        self.classes_ = np.unique(y)
        self.n_features_ = X.shape[1]
        n_sub = self._n_subfeatures(self.n_features_)
        rng = np.random.default_rng(self.seed)
        self.trees_ = []
        self.feature_subsets_ = []
        n = len(y)
        for _ in range(self.n_trees):
            rows = rng.integers(0, n, n)  # bootstrap sample
            features = np.sort(
                rng.choice(self.n_features_, size=n_sub, replace=False)
            )
            sample_y = y[rows]
            if len(np.unique(sample_y)) < 2:
                # Degenerate bootstrap: skip (prediction falls back to
                # the rest of the ensemble).
                continue
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_thresholds=self.max_thresholds,
            )
            tree.fit(X[np.ix_(rows, features)], sample_y)
            self.trees_.append(tree)
            self.feature_subsets_.append(features)
        if not self.trees_:
            raise ValueError("all bootstrap samples were single-class")
        return self

    def predict_proba(self, X) -> np.ndarray:
        check_fitted(self)
        X = check_X(X, self.n_features_)
        total = np.zeros((len(X), len(self.classes_)))
        for tree, features in zip(self.trees_, self.feature_subsets_):
            proba = tree.predict_proba(X[:, features])
            # Map tree-local class columns onto the forest's classes.
            for column, cls in enumerate(tree.classes_):
                target = int(np.searchsorted(self.classes_, cls))
                total[:, target] += proba[:, column]
        return total / len(self.trees_)

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def predict_and_proba(self, X, cls) -> tuple:
        """(classes, P(cls)) from one summed forest probability:
        :meth:`predict` and :meth:`proba_of` bit for bit."""
        check_fitted(self)
        column = class_column(self.classes_, cls)
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)], proba[:, column]

    def proba_of(self, X, cls) -> np.ndarray:
        check_fitted(self)
        return self.predict_proba(X)[:, class_column(self.classes_, cls)]

    def __repr__(self) -> str:
        state = "fitted" if self.trees_ else "unfitted"
        return f"RandomForestClassifier({state}, n_trees={self.n_trees})"
