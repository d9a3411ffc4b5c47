"""Tests for AD3, centralized, and CAD3 detectors — including the
paper's headline ordering (Fig. 7 / Table IV)."""

import numpy as np
import pytest

from repro.core import AD3Detector, CentralizedDetector, CollaborativeDetector
from repro.core.collaborative import NEUTRAL_PRIOR, summaries_from_upstream
from repro.dataset.schema import ABNORMAL, NORMAL, TelemetryBlock
from repro.geo import RoadType
from repro.ml import evaluate_binary


class TestAD3Detector:
    def test_rejects_wrong_road_type(self, link_blocks):
        train, _ = link_blocks
        detector = AD3Detector(RoadType.MOTORWAY)
        with pytest.raises(ValueError, match="received a"):
            detector.fit(train)

    def test_fit_predict_labels(self, link_blocks):
        train, test = link_blocks
        detector = AD3Detector(RoadType.MOTORWAY_LINK).fit(train)
        predictions, _ = detector.detect(test)
        assert set(np.unique(predictions)) <= {NORMAL, ABNORMAL}
        assert detector.fitted

    def test_better_than_chance(self, link_blocks):
        train, test = link_blocks
        detector = AD3Detector(RoadType.MOTORWAY_LINK).fit(train)
        y_true = test.label
        accuracy = np.mean(detector.detect(test)[0] == y_true)
        assert accuracy > 0.7

    def test_normal_proba_in_unit_interval(self, link_blocks):
        train, test = link_blocks
        detector = AD3Detector(RoadType.MOTORWAY_LINK).fit(train)
        _, probs = detector.detect(test)
        assert np.all((probs >= 0.0) & (probs <= 1.0))

    def test_detect_consistency(self, link_blocks):
        """The class and the probability column must agree: class is
        normal iff P(normal) >= 0.5 (binary NB)."""
        train, test = link_blocks
        detector = AD3Detector(RoadType.MOTORWAY_LINK).fit(train)
        classes, probs = detector.detect(test.take(slice(0, 500)))
        agree = (classes == NORMAL) == (probs >= 0.5)
        assert np.mean(agree) > 0.999

    def test_empty_input(self, link_blocks):
        train, _ = link_blocks
        detector = AD3Detector(RoadType.MOTORWAY_LINK).fit(train)
        classes, probs = detector.detect(TelemetryBlock.empty())
        assert classes.size == 0
        assert probs.size == 0

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            AD3Detector(RoadType.MOTORWAY).fit(TelemetryBlock.empty())


class TestCentralizedDetector:
    def test_onehot_encoding_does_not_rescue_it(self, split, link_blocks):
        """The centralized gap is structural, not an encoding artefact:
        one-hot road types perform about the same as ordinal codes, and
        both stay far below the per-road AD3 model."""
        train = split[0].block
        link_train, link_test = link_blocks
        y_true = link_test.label
        ordinal = CentralizedDetector(encoding="ordinal").fit(train)
        onehot = CentralizedDetector(encoding="onehot").fit(train)
        ad3 = AD3Detector(RoadType.MOTORWAY_LINK).fit(link_train)
        f1 = lambda model, *args: evaluate_binary(
            y_true, model.detect(link_test, *args)[0]
        ).f1
        assert abs(f1(ordinal) - f1(onehot)) < 0.08
        assert f1(ad3) > f1(onehot) + 0.08
        assert f1(ad3) > f1(ordinal) + 0.08

    def test_unknown_encoding_rejected(self, split):
        with pytest.raises(ValueError):
            CentralizedDetector(encoding="phrenology").fit(split[0].block)

    def test_fits_mixed_road_types(self, split):
        train, test = (part.block for part in split)
        detector = CentralizedDetector().fit(train)
        predictions, _ = detector.detect(test)
        assert len(predictions) == len(test)

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            CentralizedDetector().fit(TelemetryBlock.empty())

    def test_empty_predict(self, split):
        detector = CentralizedDetector().fit(split[0].block)
        assert detector.detect(TelemetryBlock.empty())[0].size == 0


class TestCollaborativeDetector:
    def test_eq1_fusion(self):
        p_nb = np.array([0.8, 0.2])
        p_prev = np.array([0.4, 0.6])
        fused = CollaborativeDetector.fuse(p_nb, p_prev)
        assert fused == pytest.approx([0.6, 0.4])

    def test_fit_and_predict(self, link_blocks, upstream_summaries):
        train, test = link_blocks
        train_summaries, test_summaries = upstream_summaries
        detector = CollaborativeDetector(RoadType.MOTORWAY_LINK).fit(
            train, train_summaries
        )
        predictions, _ = detector.detect(test, test_summaries)
        assert len(predictions) == len(test)
        assert detector.fitted

    def test_predict_before_fit_raises(self, link_blocks):
        _, test = link_blocks
        with pytest.raises(RuntimeError):
            CollaborativeDetector(RoadType.MOTORWAY_LINK).detect(test, {})

    def test_missing_history_uses_neutral_prior(self, link_blocks):
        train, test = link_blocks
        detector = CollaborativeDetector(RoadType.MOTORWAY_LINK)
        history = detector._history_vector(test.take(slice(0, 3)), {})
        assert history.tolist() == [NEUTRAL_PRIOR] * 3

    def test_explain_mentions_fusion_features(
        self, link_blocks, upstream_summaries
    ):
        train, _ = link_blocks
        train_summaries, _ = upstream_summaries
        detector = CollaborativeDetector(RoadType.MOTORWAY_LINK).fit(
            train, train_summaries
        )
        text = detector.explain()
        assert "P_X" in text or "Class_NB" in text or "Hour" in text


class TestSummariesFromUpstream:
    def test_one_summary_per_car(self, motorway_detector, motorway_blocks):
        _, test_mw = motorway_blocks
        summaries = summaries_from_upstream(motorway_detector, test_mw)
        cars = set(test_mw.car_id.tolist())
        assert set(summaries) == cars

    def test_mean_prob_in_unit_interval(
        self, motorway_detector, motorway_blocks
    ):
        _, test_mw = motorway_blocks
        for summary in summaries_from_upstream(
            motorway_detector, test_mw
        ).values():
            assert 0.0 <= summary.mean_normal_prob <= 1.0
            assert summary.n_predictions >= 1

    def test_empty_records(self, motorway_detector):
        assert (
            summaries_from_upstream(motorway_detector, TelemetryBlock.empty())
            == {}
        )


class TestPaperOrdering:
    """The headline result: CAD3 > AD3 > centralized (Fig. 7, Table IV)."""

    @pytest.fixture(scope="class")
    def reports(
        self, split, link_blocks, upstream_summaries, motorway_detector
    ):
        train = split[0].block
        link_train, link_test = link_blocks
        train_summaries, test_summaries = upstream_summaries

        centralized = CentralizedDetector().fit(train)
        ad3 = AD3Detector(RoadType.MOTORWAY_LINK).fit(link_train)
        cad3 = CollaborativeDetector(
            RoadType.MOTORWAY_LINK, nb=ad3
        ).fit(link_train, train_summaries, refit_nb=False)

        y_true = link_test.label
        return {
            "centralized": evaluate_binary(
                y_true, centralized.detect(link_test)[0]
            ),
            "ad3": evaluate_binary(y_true, ad3.detect(link_test)[0]),
            "cad3": evaluate_binary(
                y_true, cad3.detect(link_test, test_summaries)[0]
            ),
        }

    def test_f1_ordering(self, reports):
        assert reports["cad3"].f1 > reports["ad3"].f1 > reports["centralized"].f1

    def test_accuracy_ordering(self, reports):
        assert (
            reports["cad3"].accuracy
            > reports["ad3"].accuracy
            > reports["centralized"].accuracy
        )

    def test_fn_rate_ordering(self, reports):
        """Table IV: CAD3 has the fewest dangerous missed detections."""
        assert (
            reports["cad3"].fn_rate
            < reports["ad3"].fn_rate
            < reports["centralized"].fn_rate
        )

    def test_tp_rate_ordering(self, reports):
        assert reports["cad3"].tp_rate > reports["centralized"].tp_rate
