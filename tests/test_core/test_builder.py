"""The scenario builder and its presets.

The redesign contract: fault-free ``ScenarioBuilder`` runs are
bit-identical to direct ``ScenarioSpec`` construction, so fluent and
explicit callers share one code path.
"""

import pytest

from repro.core import (
    ScenarioBuilder,
    ScenarioSpec,
    TestbedScenario,
    paper_corridor,
    paper_single_rsu,
)
from repro.core.scenario import DEFAULT_UPSTREAM_TIMEOUT_S
from repro.core.system import default_training_dataset
from repro.faults import BurstLoss, FaultProfile
from repro.streaming.producer import RetryPolicy


@pytest.fixture(scope="module")
def training_dataset():
    return default_training_dataset(seed=11, n_cars=60)


def make_profile():
    return FaultProfile(
        "p", (BurstLoss("rsu-mw-1", at_s=1.0, duration_s=0.5),)
    )


class TestBuilder:
    def test_defaults_match_spec_defaults(self):
        assert TestbedScenario.builder().build() == ScenarioSpec()

    def test_setters_land_in_the_spec(self):
        spec = (
            ScenarioBuilder()
            .vehicles(32)
            .duration(5.0)
            .update_rate(20.0)
            .batch_interval(0.1)
            .poll_interval(0.02)
            .seed(13)
            .htb(False)
            .loss(0.05)
            .handover(0.5, at_s=2.5)
            .serde("struct")
            .build()
        )
        assert spec.n_vehicles == 32
        assert spec.duration_s == 5.0
        assert spec.update_rate_hz == 20.0
        assert spec.batch_interval_s == 0.1
        assert spec.poll_interval_s == 0.02
        assert spec.seed == 13
        assert spec.use_htb is False
        assert spec.loss_prob == 0.05
        assert spec.handover_fraction == 0.5
        assert spec.handover_at_s == 2.5
        assert spec.serde_profile == "struct"

    def test_spec_validation_fires_on_set(self):
        with pytest.raises(ValueError):
            ScenarioBuilder().vehicles(0)
        with pytest.raises(ValueError):
            ScenarioBuilder().serde("protobuf")
        with pytest.raises(ValueError):
            ScenarioBuilder().upstream_timeout(-1.0)

    def test_faults_enable_delivery_guarantees(self):
        spec = ScenarioBuilder().faults(make_profile()).build()
        assert spec.faults is not None
        assert spec.producer_retry == RetryPolicy()
        assert spec.upstream_timeout_s == DEFAULT_UPSTREAM_TIMEOUT_S

    def test_explicit_retry_wins_over_fault_default(self):
        spec = (
            ScenarioBuilder()
            .retry(None)
            .faults(make_profile())
            .build()
        )
        assert spec.producer_retry is None
        custom = RetryPolicy(max_buffered=16)
        spec = (
            ScenarioBuilder()
            .faults(make_profile())
            .retry(custom)
            .build()
        )
        assert spec.producer_retry == custom

    def test_explicit_timeout_wins_over_fault_default(self):
        spec = (
            ScenarioBuilder()
            .upstream_timeout(None)
            .faults(make_profile())
            .build()
        )
        assert spec.upstream_timeout_s is None

    def test_fault_free_spec_has_no_resilience_machinery(self):
        # The golden-equivalence precondition: building without
        # .faults() must leave every resilience knob at the seed
        # default, or fault-free runs would diverge from legacy ones.
        spec = ScenarioBuilder().vehicles(16).serde("struct").build()
        assert spec.faults is None
        assert spec.producer_retry is None
        assert spec.upstream_timeout_s is None


class TestPresets:
    def test_paper_single_rsu(self):
        spec = paper_single_rsu().build()
        assert spec.n_vehicles == 8
        assert spec.duration_s == 10.0

    def test_paper_corridor(self):
        spec = paper_corridor().build()
        assert spec.n_vehicles == 128
        assert spec.duration_s == 10.0
        assert spec.handover_fraction == 0.25


class TestGoldenEquivalence:
    """Fault-free builder runs replay explicit-spec runs bit for bit."""

    def test_single_rsu_run_is_bit_identical(self, training_dataset):
        config = ScenarioSpec(n_vehicles=4, duration_s=1.5)
        legacy = TestbedScenario.single_rsu(
            config, dataset=training_dataset
        ).run()
        modern = (
            TestbedScenario.builder()
            .vehicles(4)
            .duration(1.5)
            .single_rsu(dataset=training_dataset)
            .run()
        )
        assert modern.to_dict() == legacy.to_dict()
        for car_id, stats in legacy.vehicle_stats.items():
            assert (
                modern.vehicle_stats[car_id].e2e_latencies_s
                == stats.e2e_latencies_s
            )

    def test_corridor_run_is_bit_identical(self, training_dataset):
        config = ScenarioSpec(
            n_vehicles=4,
            duration_s=1.5,
            handover_fraction=0.5,
            serde_profile="struct",
        )
        legacy = TestbedScenario.corridor(
            config, motorways=2, dataset=training_dataset
        ).run()
        modern = (
            TestbedScenario.builder()
            .vehicles(4)
            .duration(1.5)
            .handover(0.5)
            .serde("struct")
            .corridor(motorways=2, dataset=training_dataset)
            .run()
        )
        assert modern.to_dict() == legacy.to_dict()
