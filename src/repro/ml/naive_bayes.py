"""Gaussian Naive Bayes.

The paper's AD3 detector: each RSU fits a Naive Bayes model on its
road type's data and classifies incoming records as normal/abnormal
(Sec. IV-C).  Features are continuous (speed, acceleration, hour), so
this is the Gaussian variant, matching Spark MLlib usage in the paper.

The model assumes feature independence given the class and a Gaussian
per (class, feature):

    p(y | x) ∝ p(y) * prod_j N(x_j; mu_{y,j}, sigma_{y,j}^2)

All arithmetic runs in log space for numerical stability.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.base import check_fitted, check_X, check_Xy, class_column


class GaussianNaiveBayes:
    """Gaussian Naive Bayes classifier.

    Parameters
    ----------
    var_smoothing:
        Fraction of the largest feature variance added to every
        variance, guarding against zero-variance features (e.g. Hour in
        a single-hour training batch).
    priors:
        Optional fixed class priors (in ``classes_`` order); learned
        from class frequencies when omitted.
    """

    def __init__(
        self,
        var_smoothing: float = 1e-9,
        priors: Optional[np.ndarray] = None,
    ) -> None:
        if var_smoothing < 0:
            raise ValueError("var_smoothing must be non-negative")
        self.var_smoothing = var_smoothing
        self.priors = None if priors is None else np.asarray(priors, dtype=float)
        self.classes_: Optional[np.ndarray] = None
        self.theta_: Optional[np.ndarray] = None  # (n_classes, n_features) means
        self.var_: Optional[np.ndarray] = None  # (n_classes, n_features) variances
        self.class_log_prior_: Optional[np.ndarray] = None
        self.n_features_: int = 0
        self._counts: Optional[np.ndarray] = None
        self._epsilon: float = 0.0

    def fit(self, X, y) -> "GaussianNaiveBayes":
        X, y = check_Xy(X, y)
        self.classes_, counts = np.unique(y, return_counts=True)
        if len(self.classes_) < 2:
            raise ValueError(
                "training data contains a single class; a classifier "
                "needs at least two"
            )
        n_classes = len(self.classes_)
        self.n_features_ = X.shape[1]
        self.theta_ = np.zeros((n_classes, self.n_features_))
        self.var_ = np.zeros((n_classes, self.n_features_))
        self._counts = counts.astype(float)
        for index, cls in enumerate(self.classes_):
            rows = X[y == cls]
            self.theta_[index] = rows.mean(axis=0)
            self.var_[index] = rows.var(axis=0)
        self._epsilon = self.var_smoothing * max(
            float(X.var(axis=0).max()), 1e-12
        )
        if self.priors is not None:
            if len(self.priors) != n_classes:
                raise ValueError(
                    f"priors has {len(self.priors)} entries for "
                    f"{n_classes} classes"
                )
            if not np.isclose(self.priors.sum(), 1.0):
                raise ValueError("priors must sum to 1")
            self.class_log_prior_ = np.log(self.priors)
        else:
            self.class_log_prior_ = np.log(counts / counts.sum())
        return self

    def partial_fit(self, X, y, classes=None) -> "GaussianNaiveBayes":
        """Incrementally update the model with a new batch.

        Gaussian NB is exactly incremental: per-(class, feature) mean
        and variance merge via Chan's parallel-variance formula, and
        priors follow the running class counts.  This is what lets an
        RSU keep "learning the normal behavior over time" (Sec. III-A)
        online instead of retraining from scratch.

        The first call must either see both classes or pass
        ``classes`` explicitly.
        """
        X, y = check_Xy(X, y)
        if self.classes_ is None:
            if classes is not None:
                self.classes_ = np.asarray(classes)
            else:
                self.classes_ = np.unique(y)
            if len(self.classes_) < 2:
                raise ValueError(
                    "first partial_fit needs both classes (or pass "
                    "classes= explicitly)"
                )
            n_classes = len(self.classes_)
            self.n_features_ = X.shape[1]
            self.theta_ = np.zeros((n_classes, self.n_features_))
            self.var_ = np.zeros((n_classes, self.n_features_))
            self._counts = np.zeros(n_classes)
        elif X.shape[1] != self.n_features_:
            raise ValueError(
                f"partial_fit with {X.shape[1]} features; model has "
                f"{self.n_features_}"
            )
        unknown = set(np.unique(y)) - set(self.classes_.tolist())
        if unknown:
            raise ValueError(f"unseen classes in partial_fit: {unknown}")

        for index, cls in enumerate(self.classes_):
            rows = X[y == cls]
            if len(rows) == 0:
                continue
            n_new = len(rows)
            n_old = self._counts[index]
            new_mean = rows.mean(axis=0)
            new_var = rows.var(axis=0)
            if n_old == 0:
                self.theta_[index] = new_mean
                self.var_[index] = new_var
            else:
                total = n_old + n_new
                delta = new_mean - self.theta_[index]
                merged_mean = self.theta_[index] + delta * n_new / total
                merged_var = (
                    n_old * self.var_[index]
                    + n_new * new_var
                    + n_old * n_new * delta**2 / total
                ) / total
                self.theta_[index] = merged_mean
                self.var_[index] = merged_var
            self._counts[index] = n_old + n_new
        if self.priors is not None:
            self.class_log_prior_ = np.log(self.priors)
        elif self._counts.sum() > 0 and np.all(self._counts > 0):
            self.class_log_prior_ = np.log(self._counts / self._counts.sum())
        # Refresh the smoothed-variance floor.
        self._epsilon = self.var_smoothing * max(float(self.var_.max()), 1e-12)
        return self

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        # log N(x; mu, var) summed over features, plus log prior —
        # broadcast over classes in one shot: (n, 1, f) against (c, f)
        # yields (n, c, f), reduced over the (contiguous) feature axis.
        # Bit-identical to the per-class loop it replaced: the same
        # elementary operations run per (row, class, feature) and the
        # innermost reduction order is unchanged.
        smoothed = self.var_ + getattr(self, "_epsilon", 0.0)
        diff = X[:, None, :] - self.theta_
        log_pdf = -0.5 * (
            np.log(2.0 * np.pi * smoothed) + diff**2 / smoothed
        ).sum(axis=2)
        return self.class_log_prior_ + log_pdf

    def predict_log_proba(self, X) -> np.ndarray:
        check_fitted(self)
        X = check_X(X, self.n_features_)
        jll = self._joint_log_likelihood(X)
        # log-softmax normalization
        max_jll = jll.max(axis=1, keepdims=True)
        log_norm = max_jll + np.log(
            np.exp(jll - max_jll).sum(axis=1, keepdims=True)
        )
        return jll - log_norm

    def predict_proba(self, X) -> np.ndarray:
        return np.exp(self.predict_log_proba(X))

    def predict(self, X) -> np.ndarray:
        check_fitted(self)
        X = check_X(X, self.n_features_)
        jll = self._joint_log_likelihood(X)
        return self.classes_[np.argmax(jll, axis=1)]

    def predict_and_proba(self, X, cls) -> "tuple":
        """(classes, P(cls)) from a single likelihood evaluation.

        ``predict(X)`` followed by ``proba_of(X, cls)`` computes the
        joint log-likelihood twice; the streaming hot path calls this
        instead.  Values are bit-identical to the two separate calls
        (same ``jll``, same argmax, same log-softmax).
        """
        check_fitted(self)
        X = check_X(X, self.n_features_)
        column = class_column(self.classes_, cls)
        jll = self._joint_log_likelihood(X)
        classes = self.classes_[np.argmax(jll, axis=1)]
        max_jll = jll.max(axis=1, keepdims=True)
        log_norm = max_jll + np.log(
            np.exp(jll - max_jll).sum(axis=1, keepdims=True)
        )
        return classes, np.exp(jll - log_norm)[:, column]

    def proba_of(self, X, cls) -> np.ndarray:
        """Posterior probability column for class ``cls``.

        CAD3's Eq. 1 fuses the NB probability of the *normal* class
        with the averaged history; this helper selects that column
        robustly against class ordering.
        """
        check_fitted(self)
        return self.predict_proba(X)[:, class_column(self.classes_, cls)]

    def __repr__(self) -> str:
        state = "fitted" if self.classes_ is not None else "unfitted"
        return f"GaussianNaiveBayes({state}, var_smoothing={self.var_smoothing})"
