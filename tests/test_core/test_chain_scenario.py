"""Tests for the online chain topology (carried-on summaries, live)."""

import dataclasses
import hashlib
import json

import pytest

from repro.core import ScenarioSpec, TestbedScenario
from repro.core.system import default_training_dataset


@pytest.fixture(scope="module")
def training_dataset():
    return default_training_dataset(seed=11, n_cars=60)


@pytest.fixture(scope="module")
def chain_result(training_dataset):
    config = ScenarioSpec(n_vehicles=12, duration_s=6.0, seed=5)
    scenario = TestbedScenario.chain(config, hops=3, dataset=training_dataset)
    return scenario, scenario.run()


class TestChainScenario:
    def test_topology(self, chain_result):
        scenario, result = chain_result
        assert sorted(result.rsu_metrics) == [
            "rsu-hop-1", "rsu-hop-2", "rsu-hop-3",
        ]
        assert scenario.rsus["rsu-hop-1"].neighbor_names == ["rsu-hop-2"]
        assert scenario.rsus["rsu-hop-2"].neighbor_names == ["rsu-hop-3"]

    def test_every_hop_saw_traffic(self, chain_result):
        _, result = chain_result
        for metrics in result.rsu_metrics.values():
            assert metrics.n_events > 0

    def test_summaries_carried_through_both_handovers(self, chain_result):
        scenario, result = chain_result
        assert result.rsu_metrics["rsu-hop-1"].summaries_sent == 12
        assert result.rsu_metrics["rsu-hop-2"].summaries_received == 12
        assert result.rsu_metrics["rsu-hop-2"].summaries_sent == 12
        assert result.rsu_metrics["rsu-hop-3"].summaries_received == 12
        # Hop 3's summaries merge hop 1's and hop 2's histories.
        hop3 = scenario.rsus["rsu-hop-3"]
        sample = next(iter(hop3.summaries.values()))
        # ~10 Hz for ~2 s at hop 1 plus ~2 s at hop 2.
        assert sample.n_predictions >= 20

    def test_detection_quality_reported_per_hop(self, chain_result):
        _, result = chain_result
        for metrics in result.rsu_metrics.values():
            assert metrics.detection is not None
            assert 0.0 <= metrics.detection.accuracy <= 1.0

    def test_validation(self, training_dataset):
        with pytest.raises(ValueError):
            TestbedScenario.chain(
                ScenarioSpec(n_vehicles=2, duration_s=1.0),
                hops=1,
                dataset=training_dataset,
            )

    def test_result_serialises_to_json(self, chain_result):
        _, result = chain_result
        payload = json.dumps(result.to_dict())
        restored = json.loads(payload)
        assert restored["n_vehicles"] == 12
        assert set(restored["rsus"]) == set(result.rsu_metrics)
        assert restored["rsus"]["rsu-hop-3"]["detection"]["f1"] >= 0.0


#: ``chain(hops=3)`` at seed 7 (12 vehicles, 6 s): every vehicle's
#: stats, every RSU's metrics and the resilience accounting.  A
#: deliberate behaviour change re-pins it by hand.
CHAIN_SEED7_DIGEST = "40b2c9617dd0f8be49712b103505c6b57254f9ea7f84fbdf4558f9e003a23650"

#: ``RsuMetrics`` fields the pin was taken with and the metrics no
#: longer have: the CO-DATA plane's counters, 0 on every run without
#: that plane (this chain never had one).  Hashed as those zeros, in
#: their old place after ``detection``, the pin still covers every
#: remaining field bit for bit.
_RETIRED_RSU_FIELDS = {
    "co_bytes_sent": 0,
    "co_bytes_suppressed": 0,
    "co_msgs_gated": 0,
    "co_stale_dropped": 0,
}


def _chain_digest(result) -> str:
    vehicles = sorted(
        (car, dataclasses.asdict(stats))
        for car, stats in result.vehicle_stats.items()
    )
    rsus = sorted(
        (name, {**dataclasses.asdict(metrics), **_RETIRED_RSU_FIELDS})
        for name, metrics in result.rsu_metrics.items()
    )
    signature = (vehicles, rsus, result.resilience.to_dict())
    return hashlib.sha256(repr(signature).encode()).hexdigest()


def test_chain_behaviour_is_pinned(training_dataset):
    config = ScenarioSpec(n_vehicles=12, duration_s=6.0, seed=7)
    scenario = TestbedScenario.chain(config, hops=3, dataset=training_dataset)
    result = scenario.run()
    assert sum(m.warnings_issued for m in result.rsu_metrics.values()) > 0
    assert _chain_digest(result) == CHAIN_SEED7_DIGEST
