"""The builder's city terminal."""

from repro.city.engine import CityEngine
from repro.city.model import CitySpec
from repro.core import ScenarioBuilder
from repro.core.scenario import paper_city


class TestBuilderCityTerminal:
    def test_shared_knobs_carry_over(self):
        engine = (
            ScenarioBuilder()
            .seed(13)
            .shards(2)
            .city(count_scale=0.01, duration_s=300.0)
        )
        assert isinstance(engine, CityEngine)
        assert engine.spec.seed == 13
        assert engine.spec.shards == 2
        assert engine.spec.count_scale == 0.01
        assert engine.spec.duration_s == 300.0

    def test_default_duration_is_city_default(self):
        engine = ScenarioBuilder().city(count_scale=0.01)
        # No explicit .duration() call: the CitySpec default (a full
        # day) wins over the corridor spec's much shorter default.
        assert engine.spec.duration_s == CitySpec().duration_s

    def test_explicit_duration_carries(self):
        engine = ScenarioBuilder().duration(600.0).city(count_scale=0.01)
        assert engine.spec.duration_s == 600.0

    def test_paper_city_preset(self):
        engine = paper_city().city(count_scale=0.01)
        assert isinstance(engine, CityEngine)
        assert engine.spec.duration_s == CitySpec().duration_s
