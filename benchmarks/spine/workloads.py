"""The five named workloads: how each is built, what one repetition's
work is, and what is read off its result.

Construction is tolerant on purpose.  Later issues remove knobs
(``dataplane``, ``columnar``, ``kernel``) from the very specs these
workloads set; a knob that no longer exists is dropped and listed in
the ``effective_spec``, so the measuring stick survives the changes it
measures.

Imported only inside a probe: this module needs ``repro``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, NamedTuple, Optional

import numpy as np

from harness import usable_cpus

LINK_RSU = "rsu-mw-link"


class Workload(NamedTuple):
    name: str
    family: str  # "corridor" | "city"
    sharded: bool
    #: Unit of one piece of work, for ``throughput_per_s``.
    work_unit: str
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "corridor_paper", "corridor", False, "records",
            "Fault-free batched block path (paper Fig. 6b/6d): MAC flush, lazy HTB, "
            "slab fetch, vectorised detect do the work; faults, retry and IPC none.",
        ),
        Workload(
            "corridor_chaos", "corridor", False, "records",
            "Same layers the other way round: per-frame MAC events, producer retry, "
            "broker outage, offset restore, degradation fallback.",
        ),
        Workload(
            "corridor_sharded", "corridor", True, "records",
            "Only workload where repro.parallel (planner, barriers, frame routing) "
            "and streaming.shm rings work; results must equal the serial run.",
        ),
        Workload(
            "city_day", "city", False, "vehicle-ticks",
            "city.kernel and city.arena do everything: no telemetry data plane, "
            "no IPC; a kernel change shows here and nowhere on the corridor.",
        ),
        Workload(
            "city_sharded", "city", True, "vehicle-ticks",
            "Puts city.engine's tick protocol, frame staging, RSU detach/adopt and "
            "city.worker on the blocking path; sharding costs wall on a small host.",
        ),
    )
}


def shard_count() -> int:
    return min(2, usable_cpus())


# ----------------------------------------------------------------------
# Tolerant construction
# ----------------------------------------------------------------------
def _existing_fields(cls, wanted: dict, dropped: list) -> dict:
    known = {f.name for f in dataclasses.fields(cls)}
    for name in wanted:
        if name not in known:
            dropped.append(name)
    return {k: v for k, v in wanted.items() if k in known}


def _plain(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return getattr(value, "name", None) or type(value).__name__


def _spec_dict(spec, dropped: list) -> dict:
    out = {f.name: _plain(getattr(spec, f.name)) for f in dataclasses.fields(spec)}
    out["dropped_knobs"] = sorted(dropped)
    return out


def build_corridor(name: str, seed: int, smoke: bool, traced: bool, shards: int):
    """``(engine, effective_spec)`` for a corridor workload.

    ``seed`` generates the input — the labelled dataset the detectors
    train on and the vehicles replay — which the harness hands to the
    terminal.  The scenario's own RNG seed stays the preset's: at
    128 vehicles per RSU roughly two scenario seeds in five crash the
    program (a frame still HTB-delayed at the handover instant reaches
    the link RSU, whose detector raises on a motorway record), and a
    workload must be one on which no operation fails.  With the struct
    serde every frame is 71 bytes whatever it carries, so the radio
    and shaper timeline is the preset seed's for every dataset.
    """
    from repro.core.scenario import ScenarioBuilder, ScenarioSpec, paper_corridor
    from repro.core.system import default_training_dataset
    from repro.faults import profile

    paper = name == "corridor_paper"
    duration_s = 2.0 if smoke else 10.0
    wanted = {
        "n_vehicles": 13 if smoke else (128 if paper else 64),
        "duration_s": duration_s,
        "serde_profile": "struct",
        "columnar": True,
        "dataplane": "batched" if paper else "event",
        # The traced repetition also switches the program's own metrics
        # on: the layer counts and the conservation audit read them.
        "observability": traced,
    }
    dropped: list = []
    spec = dataclasses.replace(
        paper_corridor().build(), **_existing_fields(ScenarioSpec, wanted, dropped)
    )
    builder = ScenarioBuilder(spec)
    if name == "corridor_chaos":
        # Through the builder, so the default retry policy and upstream
        # timeout a faulty run needs come with it.
        builder = builder.faults(profile("chaos", duration_s))
    if name == "corridor_sharded":
        builder = builder.shards(shards)
    dataset = default_training_dataset(seed)
    engine = builder.corridor(dataset=dataset)
    return engine, _spec_dict(builder.build(), dropped)


def build_city(name: str, seed: int, smoke: bool, traced: bool, shards: int):
    """``(engine, effective_spec)`` for a city workload.

    ``seed`` draws the day's traffic (arrivals, trips, churn,
    detections).  The map — the road network the RSU fleet is placed
    on — is the default spec's whatever the seed: a seeded map changes
    the size of the fleet, and with it the work of one repetition by
    2.4x, which would make ``cpu_s`` and ``peak_rss_mb`` measure the
    seed.
    """
    from repro.city.engine import CityEngine
    from repro.city.model import CitySpec
    from repro.city.topology import build_city_topology

    wanted = {"seed": seed, "count_scale": 0.01 if smoke else 0.05, "kernel": "fused"}
    if smoke:
        wanted["duration_s"] = 1800.0
    if name == "city_sharded":
        wanted.update(
            shards=shards,
            rebalance_interval_ticks=15,
            rebalance_threshold=0.05,
        )
    if traced:
        wanted["profile"] = True
        if name == "city_sharded" and shards > 1:
            wanted["observability"] = True
    dropped: list = []
    spec = CitySpec(**_existing_fields(CitySpec, wanted, dropped))
    city_map = build_city_topology(dataclasses.replace(spec, seed=CitySpec().seed))
    effective = _spec_dict(spec, dropped)
    effective["map_seed"] = CitySpec().seed
    return CityEngine(spec, topology=city_map), effective


def build(name: str, seed: int, smoke: bool, traced: bool, shards: int):
    family = WORKLOADS[name].family
    return (build_corridor if family == "corridor" else build_city)(
        name, seed, smoke, traced, shards
    )


# ----------------------------------------------------------------------
# Reading a result
# ----------------------------------------------------------------------
def corridor_digest(result) -> str:
    """Exact-behaviour digest: every per-vehicle counter and latency at
    full float repr, per-RSU warning / event / summary counts, and the
    fault accounting.  Identical trajectories, identical digest."""
    vehicles = tuple(
        (
            car,
            stats.records_sent,
            stats.bytes_sent,
            stats.warnings_received,
            stats.records_lost,
            stats.poll_failures,
            tuple(stats.e2e_latencies_s),
            tuple(stats.dissemination_latencies_s),
        )
        for car, stats in sorted(result.vehicle_stats.items())
    )
    rsus = tuple(
        (
            rsu,
            metrics.warnings_issued,
            metrics.n_events,
            metrics.summaries_sent,
            metrics.summaries_received,
        )
        for rsu, metrics in sorted(result.rsu_metrics.items())
    )
    r = result.resilience
    faults = (
        r.records_lost, r.records_retried, r.records_dropped, r.records_abandoned,
        r.poll_failures, r.duplicates_rejected, r.broker_crashes, r.summaries_lost,
        tuple(sorted((k, tuple(v)) for k, v in r.degradation_events.items())),
    )
    return hashlib.sha256(repr((vehicles, rsus, faults)).encode()).hexdigest()


def summarize_corridor(result) -> dict:
    """Work done, digest, exact metrics and accounting of one run."""
    stats = list(result.vehicle_stats.values())
    sent = sum(s.records_sent for s in stats)
    received = sum(s.warnings_received for s in stats)
    issued = sum(m.warnings_issued for m in result.rsu_metrics.values())
    latencies = result.e2e_latencies_ms
    r = result.resilience
    failed = r.records_lost + r.records_dropped + r.records_abandoned
    detection = getattr(result.rsu_metrics.get(LINK_RSU), "detection", None)
    return {
        "work": sent,
        "digest": corridor_digest(result),
        "exact": {
            "sim_e2e_p50_ms": float(np.percentile(latencies, 50)),
            "sim_e2e_p99_ms": float(np.percentile(latencies, 99)),
            "sim_vehicle_kbps": result.per_vehicle_bandwidth_bps() / 1e3,
            "warning_delivery_ratio": received / issued,
            "detect_f1": None if detection is None else float(detection.f1),
            "failed_ops_ratio": failed / sent,
        },
        "facts": {
            "e2e_samples": int(latencies.size),
            "warnings_received": received,
            "warnings_issued": issued,
            "records_failed": failed,
            "records_retried": r.records_retried,
            "broker_crashes": r.broker_crashes,
            "poll_failures": r.poll_failures,
            "duplicates_rejected": r.duplicates_rejected,
            "degradations": sum(len(v) for v in r.degradation_events.values()),
        },
    }


def summarize_city(result) -> dict:
    residual = abs(
        result.spawned - result.retired - result.final_active - result.in_flight
    )
    exact: Dict[str, Optional[float]] = {
        "sim_e2e_p50_ms": None,
        "sim_e2e_p99_ms": None,
        "sim_vehicle_kbps": None,
        "warning_delivery_ratio": None,
        "detect_f1": None,
        "failed_ops_ratio": residual / result.spawned,
    }
    return {
        # Vehicle-ticks: concurrent vehicles summed over the ticks.
        "work": int(round(result.mean_concurrent * result.n_ticks)),
        "digest": result.digest_signature(),
        "exact": exact,
        "facts": {
            "rsus": result.n_rsus,
            "ticks": result.n_ticks,
            "peak_concurrent": result.peak_concurrent,
            "warnings": result.warnings_total,
            "rebalance_moves": len(result.rebalance_events),
            "audit": list(result.audit()),
        },
    }


def summarize(name: str, result) -> dict:
    if WORKLOADS[name].family == "corridor":
        return summarize_corridor(result)
    return summarize_city(result)
