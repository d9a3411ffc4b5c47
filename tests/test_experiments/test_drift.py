"""Tests for the drift-adaptation harness (plumbing-level)."""

import pytest

from repro.experiments.drift import DriftResult, drift_adaptation, _regime_block


class TestRegimeRecords:
    def test_scaled_regime_is_slower(self):
        fast = _regime_block(1.0, n_cars=40, seed=3)
        slow = _regime_block(0.7, n_cars=40, seed=3)
        mean = lambda block: sum(block.speed_kmh.tolist()) / len(block)
        assert mean(slow) < 0.8 * mean(fast)

    def test_records_are_labelled(self):
        block = _regime_block(1.0, n_cars=20, seed=4)
        assert all(label in (0, 1) for label in block.label.tolist())

    def test_label_mixture_reasonable(self):
        block = _regime_block(0.7, n_cars=40, seed=5)
        labels = block.label.tolist()
        abnormal = sum(1 for label in labels if label == 0) / len(labels)
        # The sigma-cutoff is applied per regime: mixture stays ~1/3.
        assert 0.2 < abnormal < 0.55


class TestDriftAdaptation:
    @pytest.fixture(scope="class")
    def result(self):
        return drift_adaptation(n_cars=60, bucket_size=1500)

    def test_bucket_structure(self, result):
        assert result.buckets
        indices = [b.index for b in result.buckets]
        assert indices == sorted(indices)
        phases = [b.post_drift for b in result.buckets]
        # Once post-drift, always post-drift.
        assert phases == sorted(phases)

    def test_all_models_scored_after_warmup(self, result):
        late_buckets = result.buckets[2:]
        for bucket in late_buckets:
            assert set(bucket.accuracy) >= {"static", "cumulative", "window"}

    def test_static_degrades_after_drift(self, result):
        before = result.mean_accuracy("static", post_drift=False)
        after = result.mean_accuracy("static", post_drift=True)
        assert after < before - 0.2

    def test_window_recovers_best(self, result):
        window = result.mean_accuracy("window", post_drift=True)
        static = result.mean_accuracy("static", post_drift=True)
        assert window > static + 0.2

    def test_format_series(self, result):
        text = result.format_series()
        assert "static" in text
        assert "window" in text
        assert len(text.splitlines()) == len(result.buckets) + 1

    def test_empty_result_accuracy_zero(self):
        assert DriftResult().mean_accuracy("static", post_drift=True) == 0.0
