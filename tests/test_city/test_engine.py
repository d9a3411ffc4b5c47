"""City engine: conservation, determinism across shard counts, rebalance."""

import pytest

from repro.city.engine import CityEngine, run_city
from repro.city.model import FLAT_WAVE, CitySpec
from repro.city.topology import build_city_topology
from repro.parallel.plan import ShardPlanner

#: Small and fast: ~60 RSUs, 10 mesoscopic ticks.
BASE = CitySpec(
    seed=11,
    count_scale=0.01,
    duration_s=600.0,
    demand_wave=FLAT_WAVE,
)


def skewed_assignments(spec, moves=6):
    """The planner's balanced split with the heaviest RSUs of every
    non-zero shard piled onto shard 0 (mirrors the benchmark harness)."""
    topology = build_city_topology(spec)
    weight = topology.vehicle_load()
    plan = [
        list(shard)
        for shard in ShardPlanner().plan(topology, spec.shards).assignments
    ]
    for shard in range(1, spec.shards):
        plan[shard].sort(key=lambda name: (weight[name], name))
        for _ in range(moves):
            if len(plan[shard]) > 1:
                plan[0].append(plan[shard].pop())
    return tuple(tuple(shard) for shard in plan)


@pytest.fixture(scope="module")
def serial_result():
    return run_city(BASE)


class TestSerialRun:
    def test_audit_green(self, serial_result):
        assert serial_result.audit() == []

    def test_churn_happened(self, serial_result):
        result = serial_result
        assert result.spawned > 0
        assert result.retired > 0
        assert result.migrations_applied > 0
        assert result.peak_concurrent >= result.mean_concurrent > 0

    def test_deterministic(self, serial_result):
        again = run_city(BASE)
        assert again.digest_signature() == serial_result.digest_signature()
        assert again.warnings == serial_result.warnings
        assert again.spawned == serial_result.spawned

    def test_seed_changes_digest(self, serial_result):
        other = run_city(BASE.replace(seed=12))
        assert other.digest_signature() != serial_result.digest_signature()


class TestShardedEquivalence:
    def test_two_shards_bit_identical(self, serial_result):
        sharded = run_city(BASE.replace(shards=2))
        assert sharded.n_shards == 2
        assert sharded.audit() == []
        assert sharded.digest_signature() == serial_result.digest_signature()
        assert sharded.warnings == serial_result.warnings

    def test_rebalance_preserves_digests(self, serial_result):
        """A skewed start plus aggressive rebalancing must exercise at
        least one migration and still reproduce the serial digests."""
        spec = BASE.replace(shards=2)
        spec = spec.replace(
            rebalance_interval_ticks=3,
            rebalance_threshold=0.05,
            initial_assignments=skewed_assignments(spec),
        )
        sharded = run_city(spec)
        assert sharded.rebalance_events
        assert sharded.audit() == []
        assert sharded.digest_signature() == serial_result.digest_signature()
        assert sharded.warnings == serial_result.warnings
        # Ownership only ever changes on a rebalance-decision boundary,
        # never mid-window.
        for event in sharded.rebalance_events:
            assert event["tick"] % spec.rebalance_interval_ticks == 0

    def test_rsu_moved_twice_in_one_decision(self):
        """The planner may move one RSU 0 -> 2 and back 2 -> 0 in a
        single decision.  The workers must act on the net move (here
        none): shipping the state to the first destination while the
        shard map ends at the last crashed the next tick."""
        spec = CitySpec(
            seed=2066,
            count_scale=0.002,
            duration_s=3600.0,
            shards=3,
            rebalance_interval_ticks=10,
        )
        sharded = run_city(spec)
        moves = [(e["tick"], e["rsu"]) for e in sharded.rebalance_events]
        assert len(moves) > len(set(moves))  # the hazard occurred
        assert sharded.audit() == []
        serial = run_city(spec.replace(shards=1, rebalance_interval_ticks=0))
        assert sharded.digest_signature() == serial.digest_signature()


class TestEngineValidation:
    def test_assignment_override_must_cover_fleet(self):
        spec = BASE.replace(
            shards=2, initial_assignments=(("motorway-0000",), ())
        )
        with pytest.raises(ValueError):
            CityEngine(spec)
