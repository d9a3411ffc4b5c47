"""The frozen, JSON-serializable scenario description the fuzzer draws.

A :class:`FuzzSpec` is one point in the composed scenario space: a
corridor topology, a demand shape (vehicles, duration, handover wave),
a channel-quality preset, an optional fault schedule, the CO-DATA
collaboration knobs, the data-plane mode, and the shard count.  It is
deliberately *not* a :class:`~repro.core.scenario.ScenarioSpec` — it is
smaller (only the axes the fuzzer explores), always valid by
construction (its ``__post_init__`` mirrors every cross-field rule the
builder enforces, so generation never trips a ``ValueError`` mid-run),
and round-trips through JSON so a shrunk failure can be committed to
``tests/fuzz_corpus/`` and replayed forever.

``to_json()`` serializes only the fields that differ from the defaults:
a minimal shrunk repro is a handful of lines, not a wall of knobs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple

#: Canonical RNG seeds, single-sourced so the golden suites, the
#: fuzzer's defaults, and committed repro specs can never silently
#: diverge.  ``GOLDEN_SCENARIO_SEED`` matches ``ScenarioSpec().seed``
#: (pinned by a test); ``GOLDEN_DATASET_SEED`` is the labelled-dataset
#: generator seed the golden fixtures use.
GOLDEN_SCENARIO_SEED = 7
GOLDEN_DATASET_SEED = 3

#: Training-dataset size for fuzz runs: big enough to fit real
#: detectors, small enough that one cached build costs ~0.1 s.
FUZZ_DATASET_CARS = 40


@dataclass(frozen=True)
class ChannelPreset:
    """A named channel-quality shape (the SPE-runner pattern): a
    baseline DSRC loss probability plus, for ``unstable``, an
    interference burst injected through the fault machinery."""

    loss_prob: float
    #: ``(at_frac, duration_frac, burst_loss_prob)`` of the run length,
    #: or ``None`` for a steady channel.
    burst: Optional[Tuple[float, float, float]] = None


CHANNEL_PRESETS: Dict[str, ChannelPreset] = {
    "stable": ChannelPreset(loss_prob=0.0),
    "lossy": ChannelPreset(loss_prob=0.08),
    "unstable": ChannelPreset(loss_prob=0.03, burst=(0.4, 0.25, 0.25)),
}

#: Fault-schedule entry kinds and their required keys (beyond "kind").
FAULT_KINDS: Dict[str, Tuple[str, ...]] = {
    "broker_crash": ("rsu", "at_s", "restart_after_s", "ack_loss_s"),
    "rsu_kill": ("rsu", "at_s", "failover_to"),
    "link_partition": ("src", "dst", "at_s", "duration_s"),
    "burst_loss": ("rsu", "at_s", "duration_s", "loss_prob"),
}

#: City-workload knobs a FuzzSpec may carry (all optional but
#: ``count_scale``/``duration_s`` which default to the cheapest valid
#: run).  Bounds keep a generated city point replayable in seconds.
CITY_KNOBS = ("count_scale", "duration_s", "shards", "rebalance_interval_ticks")
CITY_MAX_COUNT_SCALE = 0.02
CITY_MAX_DURATION_S = 14_400.0
CITY_MAX_SHARDS = 4


@dataclass(frozen=True)
class FuzzSpec:
    """One generated scenario, frozen and JSON-round-trippable.

    Defaults are the cheapest valid corridor — the shrinker moves
    every axis toward them, so a minimal repro serializes to only the
    fields that matter.
    """

    seed: int = GOLDEN_SCENARIO_SEED
    motorways: int = 1
    vehicles: int = 2
    duration_s: float = 1.0
    handover_fraction: float = 0.0
    channel: str = "stable"
    serde_profile: str = "json"
    columnar: bool = True
    shards: int = 1
    #: CollabConfig field overrides (``None`` = no collaboration plane,
    #: the seed handover-only path).
    collab: Optional[Mapping[str, Any]] = None
    #: Scheduled fault events (tuples of plain dicts, see FAULT_KINDS).
    faults: Tuple[Mapping[str, Any], ...] = ()
    #: Training-dataset parameters (fixed by default so every replay
    #: trains byte-identical detectors).
    dataset_seed: int = GOLDEN_DATASET_SEED
    dataset_cars: int = FUZZ_DATASET_CARS
    #: City-workload knobs (see CITY_KNOBS) — ``None`` keeps the spec a
    #: corridor scenario.  A city spec swaps the whole oracle stack: the
    #: corridor axes must stay at their defaults, and the differential
    #: oracles become fused-vs-reference kernel equivalence plus
    #: shard-count invariance of the digest rollup.
    city: Optional[Mapping[str, Any]] = None

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "faults",
            tuple(dict(event) for event in self.faults),
        )
        if self.collab is not None:
            object.__setattr__(self, "collab", dict(self.collab))
        if self.city is not None:
            object.__setattr__(self, "city", dict(self.city))
            self._validate_city(self.city)
        if self.motorways < 1:
            raise ValueError("motorways must be >= 1")
        if self.vehicles < 1:
            raise ValueError("vehicles must be >= 1")
        if not 0.0 < self.duration_s <= 30.0:
            raise ValueError("duration_s must be in (0, 30]")
        if not 0.0 <= self.handover_fraction <= 1.0:
            raise ValueError("handover_fraction must be in [0, 1]")
        if self.channel not in CHANNEL_PRESETS:
            raise ValueError(
                f"unknown channel preset {self.channel!r}; "
                f"choose from {sorted(CHANNEL_PRESETS)}"
            )
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.dataset_cars < 10:
            raise ValueError("dataset_cars must be >= 10 to train detectors")
        # The cross-feature rules the scenario layer enforces, mirrored
        # here so every constructed FuzzSpec maps to a valid run.
        if self.has_faults:
            if self.shards > 1:
                raise ValueError("fault schedules run single-process")
            if self.collab_enabled:
                raise ValueError(
                    "an enabled collaboration plane requires a fault-free run"
                )
        for event in self.faults:
            self._validate_fault(event)
        if self.collab is not None:
            # Constructing the config runs its own validation.
            self.collab_config()

    def _validate_city(self, knobs: Mapping[str, Any]) -> None:
        unknown = sorted(set(knobs) - set(CITY_KNOBS))
        if unknown:
            raise ValueError(
                f"unknown city knobs {unknown}; known: {list(CITY_KNOBS)}"
            )
        scale = float(knobs.get("count_scale", 0.002))
        if not 0.0 < scale <= CITY_MAX_COUNT_SCALE:
            raise ValueError(
                f"city count_scale must be in (0, {CITY_MAX_COUNT_SCALE}]"
            )
        duration = float(knobs.get("duration_s", 600.0))
        if not 60.0 <= duration <= CITY_MAX_DURATION_S:
            raise ValueError(
                f"city duration_s must be in [60, {CITY_MAX_DURATION_S}]"
            )
        shards = int(knobs.get("shards", 1))
        if not 1 <= shards <= CITY_MAX_SHARDS:
            raise ValueError(f"city shards must be in [1, {CITY_MAX_SHARDS}]")
        interval = int(knobs.get("rebalance_interval_ticks", 0))
        if interval < 0:
            raise ValueError("city rebalance_interval_ticks must be >= 0")
        # A city spec replaces the corridor scenario wholesale, so the
        # corridor-only axes must stay inert.
        if self.faults or self.collab is not None:
            raise ValueError("a city spec carries no faults or collab plane")
        if self.shards != 1:
            raise ValueError(
                "a city spec keeps the corridor shards at their default; "
                "shard count lives inside the city knobs"
            )

    def _validate_fault(self, event: Mapping[str, Any]) -> None:
        kind = event.get("kind")
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; known: {sorted(FAULT_KINDS)}"
            )
        missing = [key for key in FAULT_KINDS[kind] if key not in event]
        if missing:
            raise ValueError(f"fault {kind!r} missing keys {missing}")
        names = set(self.rsu_names())
        for key in ("rsu", "src", "dst", "failover_to"):
            if key in event and event[key] not in names:
                raise ValueError(
                    f"fault {kind!r} targets unknown RSU {event[key]!r} "
                    f"(corridor has {sorted(names)})"
                )
        at = float(event["at_s"])
        if not 0.0 < at < self.duration_s:
            raise ValueError(
                f"fault {kind!r} at_s={at} outside (0, {self.duration_s})"
            )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def rsu_names(self) -> Tuple[str, ...]:
        """The corridor's RSU names for this motorway count."""
        return tuple(
            f"rsu-mw-{index + 1}" for index in range(self.motorways)
        ) + ("rsu-mw-link",)

    @property
    def collab_enabled(self) -> bool:
        if self.collab is None:
            return False
        return self.collab_config().enabled

    def collab_config(self):
        """The :class:`~repro.core.collab.CollabConfig` (or ``None``)."""
        if self.collab is None:
            return None
        from repro.core.collab import CollabConfig

        return CollabConfig(**self.collab)

    @property
    def has_faults(self) -> bool:
        """Whether the run injects faults — scheduled events or the
        ``unstable`` channel's interference burst."""
        return bool(self.faults) or (
            CHANNEL_PRESETS[self.channel].burst is not None
        )

    def fault_profile(self):
        """The combined :class:`~repro.faults.events.FaultProfile`
        (scheduled events plus the channel preset's burst), or ``None``."""
        from repro.faults.events import (
            BrokerCrash,
            BurstLoss,
            FaultProfile,
            LinkPartition,
            RsuKill,
        )

        events = []
        for event in self.faults:
            kind = event["kind"]
            if kind == "broker_crash":
                events.append(
                    BrokerCrash(
                        event["rsu"],
                        at_s=float(event["at_s"]),
                        restart_after_s=float(event["restart_after_s"]),
                        ack_loss_s=float(event["ack_loss_s"]),
                    )
                )
            elif kind == "rsu_kill":
                events.append(
                    RsuKill(
                        event["rsu"],
                        at_s=float(event["at_s"]),
                        failover_to=event["failover_to"],
                    )
                )
            elif kind == "link_partition":
                events.append(
                    LinkPartition(
                        event["src"],
                        event["dst"],
                        at_s=float(event["at_s"]),
                        duration_s=float(event["duration_s"]),
                    )
                )
            elif kind == "burst_loss":
                events.append(
                    BurstLoss(
                        event["rsu"],
                        at_s=float(event["at_s"]),
                        duration_s=float(event["duration_s"]),
                        loss_prob=float(event["loss_prob"]),
                    )
                )
        burst = CHANNEL_PRESETS[self.channel].burst
        if burst is not None:
            at_frac, duration_frac, loss = burst
            events.append(
                BurstLoss(
                    "rsu-mw-1",
                    at_s=self.duration_s * at_frac,
                    duration_s=self.duration_s * duration_frac,
                    loss_prob=loss,
                )
            )
        if not events:
            return None
        return FaultProfile("fuzz", tuple(events))

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def scenario_spec(self, **overrides):
        """The full :class:`~repro.core.scenario.ScenarioSpec`.

        ``overrides`` lets the oracle stack build comparator variants
        (``shards=1``, ``observability=True``, ``collab=None``) of the
        same generated point.
        """
        from repro.core.scenario import DEFAULT_UPSTREAM_TIMEOUT_S, ScenarioSpec
        from repro.streaming.producer import RetryPolicy

        profile = self.fault_profile()
        kwargs: Dict[str, Any] = {
            "n_vehicles": self.vehicles,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "handover_fraction": self.handover_fraction,
            "loss_prob": CHANNEL_PRESETS[self.channel].loss_prob,
            "serde_profile": self.serde_profile,
            "columnar": self.columnar,
            "shards": self.shards,
            "collab": self.collab_config(),
            "faults": profile,
        }
        if profile is not None:
            # The delivery guarantees a faulty run needs, exactly as
            # ScenarioBuilder.faults() would switch on.
            kwargs["producer_retry"] = RetryPolicy()
            kwargs["upstream_timeout_s"] = DEFAULT_UPSTREAM_TIMEOUT_S
        kwargs.update(overrides)
        return ScenarioSpec(**kwargs)

    def city_spec(self, **overrides):
        """The :class:`~repro.city.model.CitySpec` for a city fuzz
        point; ``overrides`` builds the oracle comparators (``shards=1``,
        ``kernel="reference"``) of the same generated workload."""
        if self.city is None:
            raise ValueError("not a city spec")
        from repro.city import CitySpec

        kwargs: Dict[str, Any] = {
            "seed": self.seed,
            "count_scale": float(self.city.get("count_scale", 0.002)),
            "duration_s": float(self.city.get("duration_s", 600.0)),
            "shards": int(self.city.get("shards", 1)),
            "rebalance_interval_ticks": int(
                self.city.get("rebalance_interval_ticks", 0)
            ),
        }
        kwargs.update(overrides)
        return CitySpec(**kwargs)

    def build(self, dataset, **overrides):
        """A runnable engine for this spec (spec overrides applied)."""
        from repro.core.workload import CorridorWorkload

        return CorridorWorkload(
            self.scenario_spec(**overrides),
            motorways=self.motorways,
            dataset=dataset,
        ).build()

    # ------------------------------------------------------------------
    # JSON codec
    # ------------------------------------------------------------------
    def to_payload(self, minimal: bool = True) -> Dict[str, Any]:
        """A JSON-ready dict; ``minimal`` omits default-valued fields."""
        payload: Dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if minimal and value == self._field_default(spec_field):
                continue
            if spec_field.name == "faults":
                value = [dict(event) for event in value]
            elif spec_field.name == "collab" and value is not None:
                value = dict(value)
            payload[spec_field.name] = value
        return payload

    @staticmethod
    def _field_default(spec_field) -> Any:
        return spec_field.default

    def to_json(self, minimal: bool = True) -> str:
        return json.dumps(
            self.to_payload(minimal=minimal), sort_keys=True, indent=1
        )

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "FuzzSpec":
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown FuzzSpec fields: {unknown}")
        kwargs = dict(payload)
        if "faults" in kwargs:
            kwargs["faults"] = tuple(dict(e) for e in kwargs["faults"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "FuzzSpec":
        return cls.from_payload(json.loads(text))

    def replace(self, **overrides) -> "FuzzSpec":
        return replace(self, **overrides)
