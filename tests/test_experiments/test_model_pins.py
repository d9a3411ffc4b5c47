"""Exact pins of the model-quality experiments.

Each pin is the first 16 hex digits of the SHA-256 of the result's
``repr``: every accuracy, F1, rate, E(Lambda), per-point prediction and
flip count the experiment reports, to the last bit.  A refactor of the
detectors, the feature encoding or the experiments' data handling must
leave every one of them unchanged; a deliberate change of a model or a
dataset re-pins here by hand.
"""

import hashlib

import pytest

from repro.experiments.ablations import (
    ablate_detector_complexity,
    ablate_episode_persistence,
    ablate_history_weight,
)
from repro.experiments.drift import drift_adaptation
from repro.experiments.mesochain import mesoscopic_chain
from repro.experiments.models import fig7_table4_comparison, fig8_mesoscopic

PINS = [
    ("fig7_table4_comparison", fig7_table4_comparison, "6e29dd562b46b248"),
    ("fig8_mesoscopic", fig8_mesoscopic, "30a6d4bc8c67cc65"),
    ("mesoscopic_chain", mesoscopic_chain, "6e74ed2625c571df"),
    (
        "drift_adaptation",
        lambda: drift_adaptation(n_cars=60),
        "1413db206c1d4e84",
    ),
    ("ablate_history_weight", ablate_history_weight, "c5cdd250ddf9ed4d"),
    (
        "ablate_detector_complexity",
        ablate_detector_complexity,
        "42ab81eb0d9ad9c7",
    ),
    (
        "ablate_episode_persistence",
        lambda: ablate_episode_persistence((0.3, 0.85), n_cars=60),
        "f9502475ec764268",
    ),
]


def digest(result) -> str:
    return hashlib.sha256(repr(result).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "experiment, expected",
    [(run, pin) for _, run, pin in PINS],
    ids=[name for name, _, _ in PINS],
)
def test_experiment_result_is_pinned(experiment, expected):
    assert digest(experiment()) == expected
