"""Logistic regression (batch gradient descent).

The paper's future work: "we will implement complex anomaly detection
algorithms to operate within CAD3".  Logistic regression is the
natural first step up from Naive Bayes that *keeps the explainability
the paper insists on* — its coefficients are directly readable as
per-feature evidence weights.

Features are standardised internally (zero mean, unit variance) so the
unregularised optimum is reached quickly on the raw speed/accel/hour
scales.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.base import check_fitted, check_X, check_Xy, class_column


class LogisticRegression:
    """Binary logistic regression with L2 regularisation.

    Parameters
    ----------
    learning_rate:
        Gradient-descent step size (on standardised features).
    n_iterations:
        Full-batch gradient steps.
    l2:
        Ridge penalty on the weights (not the intercept).
    """

    def __init__(
        self,
        learning_rate: float = 0.5,
        n_iterations: int = 300,
        l2: float = 1e-4,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if l2 < 0:
            raise ValueError("l2 must be non-negative")
        self.learning_rate = learning_rate
        self.n_iterations = n_iterations
        self.l2 = l2
        self.classes_: Optional[np.ndarray] = None
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0
        self.n_features_: int = 0
        self._mean: Optional[np.ndarray] = None
        self._scale: Optional[np.ndarray] = None

    def fit(self, X, y) -> "LogisticRegression":
        X, y = check_Xy(X, y)
        self.classes_ = np.unique(y)
        if len(self.classes_) != 2:
            raise ValueError(
                f"logistic regression is binary; got {len(self.classes_)} "
                f"classes"
            )
        self.n_features_ = X.shape[1]
        # y mapped to {0, 1} by classes_ order.
        target = (y == self.classes_[1]).astype(float)

        self._mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0
        self._scale = scale
        Z = (X - self._mean) / self._scale

        weights = np.zeros(self.n_features_)
        bias = 0.0
        n = len(target)
        for _ in range(self.n_iterations):
            logits = Z @ weights + bias
            probs = 1.0 / (1.0 + np.exp(-logits))
            error = probs - target
            grad_w = Z.T @ error / n + self.l2 * weights
            grad_b = float(error.mean())
            weights -= self.learning_rate * grad_w
            bias -= self.learning_rate * grad_b
        self.coef_ = weights
        self.intercept_ = bias
        return self

    def _scores(self, X: np.ndarray) -> np.ndarray:
        Z = (X - self._mean) / self._scale
        return Z @ self.coef_ + self.intercept_

    @staticmethod
    def _proba(scores: np.ndarray) -> np.ndarray:
        p1 = 1.0 / (1.0 + np.exp(-scores))
        return np.column_stack([1.0 - p1, p1])

    def predict_proba(self, X) -> np.ndarray:
        check_fitted(self)
        return self._proba(self._scores(check_X(X, self.n_features_)))

    def predict(self, X) -> np.ndarray:
        check_fitted(self)
        X = check_X(X, self.n_features_)
        return self.classes_[(self._scores(X) >= 0.0).astype(int)]

    def predict_and_proba(self, X, cls) -> tuple:
        """(classes, P(cls)) from one evaluation of the scores:
        :meth:`predict` and :meth:`proba_of` bit for bit."""
        check_fitted(self)
        column = class_column(self.classes_, cls)
        scores = self._scores(check_X(X, self.n_features_))
        return (
            self.classes_[(scores >= 0.0).astype(int)],
            self._proba(scores)[:, column],
        )

    def proba_of(self, X, cls) -> np.ndarray:
        check_fitted(self)
        return self.predict_proba(X)[:, class_column(self.classes_, cls)]

    def explain(self, feature_names=None) -> str:
        """Per-feature evidence weights (standardised scale)."""
        check_fitted(self)
        names = feature_names or [f"x{i}" for i in range(self.n_features_)]
        if len(names) != self.n_features_:
            raise ValueError(
                f"feature_names has {len(names)} entries for "
                f"{self.n_features_} features"
            )
        parts = [
            f"{name}: {weight:+.3f}"
            for name, weight in zip(names, self.coef_)
        ]
        return (
            f"P({self.classes_[1]!r}) = sigmoid({' '.join(parts)} "
            f"{self.intercept_:+.3f})"
        )

    def __repr__(self) -> str:
        state = "fitted" if self.coef_ is not None else "unfitted"
        return f"LogisticRegression({state}, n_iterations={self.n_iterations})"
