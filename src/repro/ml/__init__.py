"""From-scratch ML substrate (the Spark MLlib substitute).

The paper deliberately uses two *lightweight, explainable* classifiers
from Spark MLlib: Gaussian Naive Bayes for per-road anomaly detection
and a Decision Tree for fusing collaborative context (Sec. VI-D).  This
package re-implements both on numpy, plus the metrics the evaluation
reports.

All estimators follow the same minimal contract:

- ``fit(X, y) -> self``
- ``predict(X) -> ndarray of class labels``
- ``predict_proba(X) -> (n, n_classes) ndarray`` with columns ordered
  by ``self.classes_``.
"""

from repro.ml.base import (
    Detector,
    EstimatorError,
    NotFittedError,
    check_Xy,
    check_fitted,
)
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.logistic import LogisticRegression
from repro.ml.metrics import (
    BinaryClassificationReport,
    accuracy_score,
    confusion_matrix,
    evaluate_binary,
    f1_score,
    precision_score,
    recall_score,
)
from repro.ml.naive_bayes import GaussianNaiveBayes

__all__ = [
    "BinaryClassificationReport",
    "DecisionTreeClassifier",
    "Detector",
    "EstimatorError",
    "GaussianNaiveBayes",
    "LogisticRegression",
    "NotFittedError",
    "RandomForestClassifier",
    "accuracy_score",
    "check_Xy",
    "check_fitted",
    "confusion_matrix",
    "evaluate_binary",
    "f1_score",
    "precision_score",
    "recall_score",
]
