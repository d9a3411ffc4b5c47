"""Every classifier a detector can hold scores a block in one evaluation.

``predict_and_proba(X, cls)`` is what the detectors call; it must equal
``predict(X)`` and ``proba_of(X, cls)`` bit for bit, and refuse a class
the model never saw, as ``proba_of`` does.
"""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeClassifier,
    GaussianNaiveBayes,
    LogisticRegression,
    RandomForestClassifier,
)

_MODELS = {
    "naive_bayes": lambda: GaussianNaiveBayes(),
    "tree": lambda: DecisionTreeClassifier(max_depth=6),
    "forest": lambda: RandomForestClassifier(n_trees=7, max_features=2, seed=3),
    "logistic": lambda: LogisticRegression(),
}


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(300, 3))
    y = ((X[:, 0] + 0.5 * X[:, 1] ** 2 + 0.3 * rng.normal(size=300)) > 0.4).astype(int)
    return X, y


@pytest.mark.parametrize("name", sorted(_MODELS))
@pytest.mark.parametrize("cls", [0, 1])
def test_one_evaluation_is_predict_and_proba_of_bit_for_bit(data, name, cls):
    X, y = data
    model = _MODELS[name]().fit(X, y)
    classes, proba = model.predict_and_proba(X, cls)
    assert classes.tobytes() == model.predict(X).tobytes()
    assert proba.tobytes() == model.proba_of(X, cls).tobytes()


@pytest.mark.parametrize("name", sorted(_MODELS))
def test_an_unseen_class_raises(data, name):
    X, y = data
    model = _MODELS[name]().fit(X, y)
    with pytest.raises(ValueError, match="not seen"):
        model.predict_and_proba(X, 7)
