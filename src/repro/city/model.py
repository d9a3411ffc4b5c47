"""City workload specification: demand waves and trip-churn parameters.

The city workload is *mesoscopic*: it tracks every vehicle's identity,
trip end time and per-RSU residence individually (so churn, migration
and abnormal-detection accounting are exact), but does not simulate the
telemetry data plane per vehicle — at ≥100k concurrent vehicles over a
simulated day that would be ~10^10 micro-batch events.  The corridor
scenarios remain the microscopic ground truth for the data plane; the
city layer exercises scale, churn, and shard rebalancing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple


@dataclass(frozen=True)
class DemandWave:
    """Hour-of-day demand multipliers (piecewise constant, 24 entries).

    ``multiplier(t)`` is a step function of the simulated clock — no
    interpolation, so the value at any instant is exactly reproducible
    regardless of tick size.
    """

    hourly: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.hourly) != 24:
            raise ValueError(
                f"demand wave needs 24 hourly multipliers, got {len(self.hourly)}"
            )
        if any(m < 0 for m in self.hourly):
            raise ValueError("demand multipliers must be >= 0")

    def multiplier(self, t_s: float) -> float:
        return self.hourly[int(t_s // 3600.0) % 24]

    @property
    def peak(self) -> float:
        return max(self.hourly)

    @property
    def mean(self) -> float:
        return sum(self.hourly) / 24.0


#: A commuter city's double peak: quiet small hours, AM rush cresting at
#: 08:00, a midday plateau, and a taller PM rush at 17:00–18:00.
COMMUTE_WAVE = DemandWave(
    (
        0.18, 0.12, 0.10, 0.10, 0.14, 0.32,  # 00:00 – 05:59
        0.75, 1.30, 1.45, 1.10, 0.95, 1.00,  # 06:00 – 11:59
        1.05, 1.00, 0.98, 1.05, 1.20, 1.50,  # 12:00 – 17:59
        1.40, 1.00, 0.75, 0.55, 0.40, 0.26,  # 18:00 – 23:59
    )
)

#: Flat demand — useful for tests that want stationary load.
FLAT_WAVE = DemandWave((1.0,) * 24)


@dataclass(frozen=True)
class CitySpec:
    """Everything that determines a city run, bit for bit.

    The same ``CitySpec`` (ignoring ``shards`` and the rebalance knobs)
    produces identical per-RSU warning digests at any shard count — see
    ``repro.city.engine`` for the determinism argument.
    """

    seed: int = 7
    #: Simulated horizon; default one full day.
    duration_s: float = 86400.0
    #: Mesoscopic tick — arrivals, expiries, moves and detection are
    #: resolved once per tick per RSU.
    tick_s: float = 60.0
    #: Scale on Table V per-road-type trunk counts (1.0 = full Shenzhen).
    count_scale: float = 0.05
    #: Base Poisson arrival rate per RSU at demand multiplier 1.0; each
    #: RSU's actual rate is this times its density-derived weight.
    arrivals_per_rsu_hour: float = 650.0
    #: Mean total trip duration (exponential).
    mean_trip_s: float = 1800.0
    #: Mean residence under one RSU before migrating (exponential).
    mean_residence_s: float = 900.0
    #: Per-vehicle-per-tick probability of an abnormal-driving flag.
    abnormal_prob: float = 2e-4
    demand_wave: DemandWave = COMMUTE_WAVE
    shards: int = 1
    #: Rebalance cadence in ticks; 0 disables dynamic rebalancing.
    rebalance_interval_ticks: int = 0
    #: Max/min shard-load imbalance (as a fraction of the mean shard
    #: load) tolerated before RSUs migrate between workers.
    rebalance_threshold: float = 0.25
    #: Fixed per-RSU tick cost in vehicle-equivalents, added to each
    #: RSU's measured vehicle count when shard loads are compared.  An
    #: RSU's tick burns CPU on a fixed slate of array ops regardless of
    #: occupancy, so a shard's real cost is ``vehicles + cost *
    #: n_rsus`` — balancing raw vehicle counts alone leaves shards with
    #: more RSUs systematically slower.
    rebalance_rsu_cost: float = 250.0
    observability: bool = False
    #: Record per-phase tick spans (arrivals / churn / moves / detect /
    #: digest) and attach the breakdown to ``CityResult.profile``.
    #: Sharded runs ship spans as folded histograms inside the obs
    #: snapshot, so ``profile`` with ``shards > 1`` requires
    #: ``observability``.
    profile: bool = False
    #: RSU placement knobs, forwarded to :class:`RsuPlacementPlanner`.
    rsu_spacing_m: float = 1000.0
    vehicles_per_rsu: int = 256
    #: Override the initial RSU→shard assignment (tuple of name tuples).
    #: ``None`` uses the greedy-LPT :class:`ShardPlanner`.  A skewed
    #: override is how the benchmark forces a rebalance event without
    #: waiting for organic drift.
    initial_assignments: Optional[Tuple[Tuple[str, ...], ...]] = None

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.tick_s <= 0:
            raise ValueError("tick_s must be positive")
        if self.count_scale <= 0:
            raise ValueError("count_scale must be positive")
        if self.arrivals_per_rsu_hour < 0:
            raise ValueError("arrivals_per_rsu_hour must be >= 0")
        if self.mean_trip_s <= 0 or self.mean_residence_s <= 0:
            raise ValueError("trip and residence means must be positive")
        if not 0.0 <= self.abnormal_prob <= 1.0:
            raise ValueError("abnormal_prob must be in [0, 1]")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.rebalance_interval_ticks < 0:
            raise ValueError("rebalance_interval_ticks must be >= 0")
        if self.rebalance_threshold < 0:
            raise ValueError("rebalance_threshold must be >= 0")
        if self.rebalance_rsu_cost < 0:
            raise ValueError("rebalance_rsu_cost must be >= 0")
        if self.profile and self.shards > 1 and not self.observability:
            raise ValueError(
                "profile with shards > 1 requires observability=True "
                "(worker spans travel inside the obs snapshot)"
            )

    @property
    def n_ticks(self) -> int:
        return int(round(self.duration_s / self.tick_s))

    def replace(self, **overrides) -> "CitySpec":
        return replace(self, **overrides)
