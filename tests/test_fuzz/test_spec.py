"""FuzzSpec: validation, JSON round-trips, minimal serialization."""

import pytest
from hypothesis import given, settings

from repro.core.scenario import ScenarioSpec
from repro.fuzz.spec import (
    CHANNEL_PRESETS,
    GOLDEN_SCENARIO_SEED,
    FuzzSpec,
)
from repro.fuzz.strategies import fuzz_specs


class TestGoldenSeeds:
    def test_scenario_seed_single_sourced(self):
        """The canonical scenario seed is the ScenarioSpec default —
        golden suites and the fuzzer must agree on it forever."""
        assert GOLDEN_SCENARIO_SEED == ScenarioSpec().seed == FuzzSpec().seed

    def test_conftest_fixture_exposes_them(self, golden_seeds):
        assert golden_seeds["scenario"] == GOLDEN_SCENARIO_SEED


class TestSerialization:
    def test_default_spec_is_empty_payload(self):
        assert FuzzSpec().to_payload() == {}
        assert FuzzSpec.from_json(FuzzSpec().to_json()) == FuzzSpec()

    @given(spec=fuzz_specs())
    @settings(max_examples=80, deadline=None)
    def test_json_round_trip(self, spec):
        assert FuzzSpec.from_json(spec.to_json()) == spec

    @given(spec=fuzz_specs())
    @settings(max_examples=80, deadline=None)
    def test_minimal_payload_omits_defaults(self, spec):
        payload = spec.to_payload()
        defaults = FuzzSpec()
        for key in payload:
            assert getattr(spec, key) != getattr(defaults, key), key

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            FuzzSpec.from_payload({"bogus": 1})


class TestValidation:
    @given(spec=fuzz_specs())
    @settings(max_examples=60, deadline=None)
    def test_every_generated_spec_builds_a_scenario_spec(self, spec):
        scenario_spec = spec.scenario_spec()
        assert scenario_spec.seed == spec.seed
        assert scenario_spec.n_vehicles == spec.vehicles
        assert scenario_spec.loss_prob == CHANNEL_PRESETS[spec.channel].loss_prob

    def test_fault_target_must_exist_on_the_corridor(self):
        with pytest.raises(ValueError):
            FuzzSpec(
                motorways=1,
                faults=(
                    {
                        "kind": "burst_loss",
                        "rsu": "rsu-mw-2",
                        "at_s": 0.4,
                        "duration_s": 0.2,
                        "loss_prob": 0.5,
                    },
                ),
            )

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError):
            FuzzSpec(channel="noisy")
