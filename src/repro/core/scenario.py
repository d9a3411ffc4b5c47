"""The scenario specification and its fluent builder.

:class:`ScenarioSpec` is the full set of testbed knobs, including the
resilience controls (fault profile, producer retry policy,
upstream-silence timeout).

:class:`ScenarioBuilder` is the preferred way to assemble one::

    scenario = (
        TestbedScenario.builder()
        .vehicles(128)
        .serde("struct")
        .columnar()
        .faults(profile("chaos"))
        .corridor()
    )
    result = scenario.run()

Builder terminals (:meth:`~ScenarioBuilder.single_rsu`,
:meth:`~ScenarioBuilder.corridor`, ...) hand the finished spec to the
matching :class:`~repro.core.workload.Workload` dataclass; a
fault-free builder run is bit-identical to constructing the spec
directly — the golden-equivalence tests pin this.

:func:`paper_single_rsu` and :func:`paper_corridor` are presets
pre-loaded with the paper's evaluation settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.collab import CollabConfig
from repro.core.wire import SERDE_PROFILES
from repro.faults.events import FaultProfile
from repro.microbatch.context import ProcessingModel
from repro.net.dsrc import McsScheme, PAPER_MCS_8
from repro.streaming.producer import RetryPolicy

#: CO-DATA silence before a fault-enabled scenario's collaborating
#: RSUs degrade to road-only detection.
DEFAULT_UPSTREAM_TIMEOUT_S = 1.0


@dataclass
class ScenarioSpec:
    """Testbed knobs, defaulting to the paper's settings."""

    n_vehicles: int = 8  # per RSU
    duration_s: float = 10.0
    update_rate_hz: float = 10.0
    batch_interval_s: float = 0.050
    poll_interval_s: float = 0.010
    seed: int = 7
    use_htb: bool = True
    htb_floor_bps: float = 100_000.0  # netem assured rate per producer
    mcs: McsScheme = field(default_factory=lambda: PAPER_MCS_8)
    #: Broadcast-frame loss probability on the DSRC channel.
    loss_prob: float = 0.0
    handover_fraction: float = 0.0
    handover_at_s: Optional[float] = None
    processing_model: ProcessingModel = field(default_factory=ProcessingModel)
    #: Wire format for the three topics: ``"json"`` (compact JSON, the
    #: seed behaviour) or ``"struct"`` (fixed-layout binary: telemetry
    #: packets shrink to less than half and decode an order of
    #: magnitude faster).
    serde_profile: str = "json"
    #: Vehicle warning consumption: ``"poll"`` (paper: every 10 ms) or
    #: ``"notify"`` (wake on produce; not real-Kafka-faithful).
    dissemination: str = "poll"
    #: Columnar micro-batch pipeline at the RSUs (bit-identical
    #: results; ``False`` forces the original per-record loop).
    columnar: bool = True
    #: Fault profile to inject during the run (``None`` = fault-free).
    faults: Optional[FaultProfile] = None
    #: Retry policy for vehicle telemetry produce.  ``None`` (the seed
    #: behaviour) drops records refused by a down broker; a policy
    #: buffers them with backoff and idempotent sequence numbers.
    producer_retry: Optional[RetryPolicy] = None
    #: Seconds of CO-DATA silence before collaborating RSUs degrade to
    #: road-only detection (``None`` disables degradation).
    upstream_timeout_s: Optional[float] = None
    #: Bandwidth-adaptive CO-DATA plane (utility gating, delta
    #: encoding, priority bands).  ``None`` — or a default, disabled
    #: :class:`~repro.core.collab.CollabConfig` — keeps the seed
    #: handover-only collaboration bit-identical.
    collab: Optional[CollabConfig] = None
    #: Collect pipeline metrics and spans during the run
    #: (:mod:`repro.obs`).  Off by default: instrumentation sites are
    #: no-ops without an active registry, and the observer-effect
    #: golden test pins that enabling it never changes results.
    observability: bool = False
    #: Worker processes the corridor's RSUs are partitioned across.
    #: ``1`` (the seed behaviour) runs single-process; ``> 1`` makes
    #: the :meth:`~ScenarioBuilder.corridor` terminal return a
    #: :class:`~repro.parallel.engine.ShardedScenario`.  Shard count
    #: never changes results: per-actor RNG streams are seeded by name
    #: and the barrier protocol preserves event ordering.
    shards: int = 1

    def __post_init__(self) -> None:
        if self.n_vehicles < 1:
            raise ValueError("need at least one vehicle")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if not 0.0 <= self.handover_fraction <= 1.0:
            raise ValueError("handover_fraction must be in [0, 1]")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError("loss_prob must be in [0, 1)")
        if self.serde_profile not in SERDE_PROFILES:
            raise ValueError(
                f"unknown serde_profile: {self.serde_profile!r}; "
                f"choose from {SERDE_PROFILES}"
            )
        if self.dissemination not in ("poll", "notify"):
            raise ValueError(
                f"unknown dissemination mode: {self.dissemination!r}"
            )
        if self.upstream_timeout_s is not None and self.upstream_timeout_s <= 0:
            raise ValueError("upstream_timeout_s must be positive")
        if self.collab is not None and self.collab.enabled:
            if self.faults is not None:
                raise ValueError(
                    "the collaboration plane requires a fault-free run "
                    "(delta baselines are not crash-consistent)"
                )
            if self.collab.priority and not self.use_htb:
                raise ValueError(
                    "collab priority scheduling requires use_htb"
                )


class ScenarioBuilder:
    """Fluent assembly of a :class:`ScenarioSpec`.

    Every setter returns the builder; finish with :meth:`build` (the
    bare spec) or a topology terminal (:meth:`single_rsu`,
    :meth:`corridor`, :meth:`single_rsu_cloud`, :meth:`chain`) which
    returns a wired :class:`~repro.core.system.TestbedScenario`.

    Enabling :meth:`faults` switches on the delivery guarantees the
    fault profile needs — producer retry with idempotence and the
    upstream-silence degradation timeout — unless those were set
    explicitly.
    """

    def __init__(self, spec: Optional[ScenarioSpec] = None) -> None:
        self._spec = spec if spec is not None else ScenarioSpec()
        self._retry_explicit = False
        self._timeout_explicit = False
        self._duration_explicit = False

    def _set(self, **changes) -> "ScenarioBuilder":
        self._spec = replace(self._spec, **changes)
        return self

    # ------------------------------------------------------------------
    # Workload
    # ------------------------------------------------------------------
    def vehicles(self, count: int) -> "ScenarioBuilder":
        """Vehicles per RSU."""
        return self._set(n_vehicles=count)

    def duration(self, seconds: float) -> "ScenarioBuilder":
        self._duration_explicit = True
        return self._set(duration_s=seconds)

    def update_rate(self, hz: float) -> "ScenarioBuilder":
        return self._set(update_rate_hz=hz)

    def batch_interval(self, seconds: float) -> "ScenarioBuilder":
        return self._set(batch_interval_s=seconds)

    def poll_interval(self, seconds: float) -> "ScenarioBuilder":
        return self._set(poll_interval_s=seconds)

    def seed(self, seed: int) -> "ScenarioBuilder":
        return self._set(seed=seed)

    def processing(self, model: ProcessingModel) -> "ScenarioBuilder":
        return self._set(processing_model=model)

    # ------------------------------------------------------------------
    # Network
    # ------------------------------------------------------------------
    def htb(
        self, enabled: bool = True, floor_bps: Optional[float] = None
    ) -> "ScenarioBuilder":
        changes = {"use_htb": enabled}
        if floor_bps is not None:
            changes["htb_floor_bps"] = floor_bps
        return self._set(**changes)

    def mcs(self, scheme: McsScheme) -> "ScenarioBuilder":
        return self._set(mcs=scheme)

    def loss(self, probability: float) -> "ScenarioBuilder":
        """Baseline DSRC frame-loss probability."""
        return self._set(loss_prob=probability)

    def handover(
        self, fraction: float, at_s: Optional[float] = None
    ) -> "ScenarioBuilder":
        return self._set(handover_fraction=fraction, handover_at_s=at_s)

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def serde(self, profile: str) -> "ScenarioBuilder":
        """Wire format: ``"json"`` or ``"struct"``."""
        return self._set(serde_profile=profile)

    def dissemination(self, mode: str) -> "ScenarioBuilder":
        """Warning delivery: ``"poll"`` or ``"notify"``."""
        return self._set(dissemination=mode)

    def columnar(self, enabled: bool = True) -> "ScenarioBuilder":
        return self._set(columnar=enabled)

    def observe(self, enabled: bool = True) -> "ScenarioBuilder":
        """Collect metrics + spans during the run (:mod:`repro.obs`).

        The run result gains an ``obs`` registry snapshot; results stay
        bit-identical to an unobserved run (the observer-effect test
        pins this).  Works under sharding too: each worker keeps its
        own registry and the engine merges the snapshots.
        """
        return self._set(observability=enabled)

    def shards(self, count: int) -> "ScenarioBuilder":
        """Partition the corridor across ``count`` worker processes.

        With ``count > 1`` the :meth:`corridor` terminal returns a
        :class:`~repro.parallel.engine.ShardedScenario` (same ``run()``
        surface, warning-for-warning identical results); the other
        topologies reject sharding.
        """
        return self._set(shards=count)

    # ------------------------------------------------------------------
    # Resilience
    # ------------------------------------------------------------------
    def faults(self, profile: FaultProfile) -> "ScenarioBuilder":
        """Inject ``profile`` during the run.

        Also enables the delivery guarantees a faulty run needs —
        producer retry/idempotence and the degradation timeout —
        unless :meth:`retry` / :meth:`upstream_timeout` already set
        them explicitly.
        """
        self._set(faults=profile)
        if not self._retry_explicit and self._spec.producer_retry is None:
            self._spec = replace(self._spec, producer_retry=RetryPolicy())
        if not self._timeout_explicit and self._spec.upstream_timeout_s is None:
            self._spec = replace(
                self._spec, upstream_timeout_s=DEFAULT_UPSTREAM_TIMEOUT_S
            )
        return self

    def retry(self, policy: Optional[RetryPolicy]) -> "ScenarioBuilder":
        """Telemetry produce retry policy (``None`` = seed behaviour:
        refused records are dropped)."""
        self._retry_explicit = True
        return self._set(producer_retry=policy)

    def upstream_timeout(self, seconds: Optional[float]) -> "ScenarioBuilder":
        """CO-DATA silence before degradation (``None`` disables)."""
        self._timeout_explicit = True
        return self._set(upstream_timeout_s=seconds)

    def collab(
        self, config: Optional[CollabConfig] = None, **overrides
    ) -> "ScenarioBuilder":
        """Bandwidth-adaptive CO-DATA: gating, deltas, priority bands.

        Pass a full :class:`~repro.core.collab.CollabConfig`, field
        overrides (``mode="refresh"``, ``gate_threshold=0.5``,
        ``delta_encoding=True``, ``priority=True`` ...), or both (the
        overrides are applied on top of the config).
        """
        base = (
            config
            if config is not None
            else (self._spec.collab or CollabConfig())
        )
        if overrides:
            base = replace(base, **overrides)
        return self._set(collab=base)

    # ------------------------------------------------------------------
    # Terminals
    # ------------------------------------------------------------------
    def build(self) -> ScenarioSpec:
        """The finished spec (for code that wires its own topology)."""
        return self._spec

    def _require_single_process(self, topology: str) -> None:
        if self._spec.shards > 1:
            raise ValueError(
                f"the {topology} topology does not support sharding; "
                "only corridor() runs with shards > 1"
            )

    def single_rsu(self, dataset=None):
        from repro.core.workload import SingleRsuWorkload

        self._require_single_process("single_rsu")
        return SingleRsuWorkload(self._spec, dataset=dataset).build()

    def single_rsu_cloud(self, dataset=None, cloud=None):
        from repro.core.workload import SingleRsuCloudWorkload

        self._require_single_process("single_rsu_cloud")
        return SingleRsuCloudWorkload(
            self._spec, dataset=dataset, cloud=cloud
        ).build()

    def corridor(
        self,
        motorways: int = 4,
        dataset=None,
        link_detector_kind: str = "cad3",
    ):
        from repro.core.workload import CorridorWorkload

        return CorridorWorkload(
            self._spec,
            motorways=motorways,
            dataset=dataset,
            link_detector_kind=link_detector_kind,
        ).build()

    def chain(self, hops: int = 3, dataset=None):
        from repro.core.workload import ChainWorkload

        self._require_single_process("chain")
        return ChainWorkload(self._spec, hops=hops, dataset=dataset).build()

    def city(self, **overrides):
        """City-scale trip churn over the Table V fleet.

        The shared knobs — seed, shards, observability, and (when set
        explicitly via :meth:`duration`) the horizon — carry over from
        the builder; everything city-specific (tick size, demand wave,
        churn rates, rebalance cadence) is a
        :class:`~repro.city.model.CitySpec` field passed as a keyword
        override.  Returns a :class:`~repro.city.engine.CityEngine`.
        """
        from repro.city.model import CitySpec
        from repro.core.workload import CityWorkload

        kwargs = {
            "seed": self._spec.seed,
            "shards": self._spec.shards,
            "observability": self._spec.observability,
        }
        if self._duration_explicit:
            kwargs["duration_s"] = self._spec.duration_s
        kwargs.update(overrides)
        return CityWorkload(CitySpec(**kwargs)).build()


# ----------------------------------------------------------------------
# Presets: the paper's evaluation scenarios
# ----------------------------------------------------------------------
def paper_single_rsu() -> ScenarioBuilder:
    """Fig. 6a/6c baseline: one motorway RSU, 8 vehicles, 10 s."""
    return ScenarioBuilder().vehicles(8).duration(10.0)


def paper_corridor() -> ScenarioBuilder:
    """Fig. 6b/6d corridor: 128 vehicles per RSU, 10 s, a quarter of
    each motorway's vehicles handing over to the link RSU mid-run."""
    return (
        ScenarioBuilder()
        .vehicles(128)
        .duration(10.0)
        .handover(0.25)
    )


def paper_city() -> ScenarioBuilder:
    """Table V city: a full demand-wave day of trip churn over the
    Shenzhen-calibrated RSU fleet.  Finish with
    :meth:`~ScenarioBuilder.city` — the city-specific knobs (tick size,
    churn rates, rebalance cadence) take their defaults from
    :class:`~repro.city.model.CitySpec` unless overridden there."""
    return ScenarioBuilder()
