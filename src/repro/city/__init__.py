"""City-scale workload: trip churn over the synthetic Shenzhen fleet.

The mesoscopic counterpart to the microscopic corridor testbed — see
``repro.city.engine`` for the execution model and the determinism
argument that pins shards=N bit-identical to shards=1.
"""

from repro.city.arena import SegmentArena
from repro.city.engine import CityEngine, CityResult, run_city
from repro.city.kernel import FusedShardState, build_shard_state
from repro.city.model import COMMUTE_WAVE, FLAT_WAVE, CitySpec, DemandWave
from repro.city.reference import RsuState, ShardState
from repro.city.topology import CityRsu, CityTopology, build_city_topology

__all__ = [
    "COMMUTE_WAVE",
    "FLAT_WAVE",
    "CityEngine",
    "CityResult",
    "CityRsu",
    "CitySpec",
    "CityTopology",
    "DemandWave",
    "FusedShardState",
    "RsuState",
    "SegmentArena",
    "ShardState",
    "build_shard_state",
    "build_city_topology",
    "run_city",
]
