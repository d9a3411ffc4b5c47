"""The per-layer table: what is wrapped, and how each named layer
metric is read.

A layer is a module path under ``repro``.  On the single-process
workloads the harness wraps each layer's public callables
(:mod:`spans`) and reads counts at the same boundaries or from the
program's public outputs (``ScenarioResult``, the ``observability=True``
snapshot, ``CityResult.profile``).  On the sharded workloads nothing is
wrapped — the work happens in forked workers — and the table is read
from the engine's public timing attributes and the merged snapshot.

A metric whose source cannot be resolved (a renamed method, a removed
attribute) is ``None``, never 0: a layer must not look free because the
stick lost sight of it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from spans import Target, Tracer

# ----------------------------------------------------------------------
# Module -> layer
# ----------------------------------------------------------------------
#: Longest prefix wins.  ``streaming.serde`` covers the generic serdes
#: and the telemetry / summary wire codecs; ``core.detector`` covers
#: the AD3 and collaborative detectors and the ``repro.ml`` estimators
#: under them; ``core.collab`` covers the collaboration plane and the
#: wired link that carries nothing but CO-DATA.
MODULE_LAYERS = (
    ("repro.simkernel", "simkernel"),
    ("repro.core.vehicle", "core.vehicle"),
    ("repro.streaming.producer", "streaming.producer"),
    ("repro.net.htb", "net.htb"),
    ("repro.net.dsrc", "net.dsrc"),
    ("repro.streaming.serde", "streaming.serde"),
    ("repro.core.wire", "streaming.serde"),
    ("repro.streaming.broker", "streaming.broker"),
    ("repro.streaming.topic", "streaming.broker"),
    ("repro.streaming.consumer", "streaming.consumer"),
    ("repro.microbatch", "microbatch"),
    ("repro.core.detector", "core.detector"),
    ("repro.core.collaborative", "core.detector"),
    ("repro.ml", "core.detector"),
    ("repro.core.rsu", "core.rsu"),
    ("repro.core.collab", "core.collab"),
    ("repro.net.link", "core.collab"),
    ("repro.faults", "faults"),
    ("repro.city.kernel", "city.kernel"),
    ("repro.city.arena", "city.arena"),
    ("repro.city.engine", "city.engine"),
)


def layer_of_module(module: Optional[str]) -> Optional[str]:
    if not module:
        return None
    best = None
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    return best[1] if best else None


# ----------------------------------------------------------------------
# Wrap targets
# ----------------------------------------------------------------------
def _methods(path: str, layer: str, *names: str, **options) -> List[Target]:
    return [Target(f"{path}.{name}", layer, **options) for name in names]


def _encoded(args, result) -> int:
    return len(result)


def _decoded(args, result) -> int:
    return len(args[1])


def _nonempty(args, result) -> int:
    return 1 if result else 0


def _link_bytes(args, result) -> int:
    return 0 if result is None else int(args[1])


_SERDE_CLASSES = (
    "repro.streaming.serde.JsonSerde",
    "repro.streaming.serde.FlatStructSerde",
    "repro.streaming.serde.RawSerde",
    "repro.core.wire.TelemetryStructSerde",
    "repro.core.wire.SummaryFrameSerde",
)

CORRIDOR_TARGETS: Tuple[Target, ...] = tuple(
    # The registration points hand every callback on in a span named by
    # the module that defines it; run_* is the kernel's own loop.
    _methods(
        "repro.simkernel.simulator.Simulator", "simkernel",
        "at", "after", "every", "every_group", callbacks=True,
    )
    + _methods(
        "repro.simkernel.simulator.Simulator", "simkernel",
        "run", "run_until", "run_before",
    )
    + _methods(
        "repro.core.vehicle.VehicleNode", "core.vehicle",
        "start", "stop", "migrate", "retire", "set_records",
    )
    + _methods(
        "repro.streaming.producer.Producer", "streaming.producer",
        "send", "rebind", "close",
    )
    + _methods(
        "repro.net.htb.HtbShaper", "net.htb",
        "send", "send_deferred", "send_prioritized",
    )
    + _methods(
        "repro.net.dsrc.DsrcChannel", "net.dsrc",
        "transmit", "enqueue", callbacks=True,
    )
    + _methods("repro.net.dsrc.DsrcChannel", "net.dsrc", "flush", "take_pending")
    + [
        Target(f"{path}.serialize", "streaming.serde", measure=_encoded)
        for path in _SERDE_CLASSES
    ]
    + [
        Target(f"{path}.deserialize", "streaming.serde", measure=_decoded)
        for path in _SERDE_CLASSES
    ]
    + _methods("repro.streaming.serde.FlatStructSerde", "streaming.serde", "decode_batch")
    + _methods(
        "repro.core.wire", "streaming.serde",
        "decode_telemetry_block", "decode_telemetry_segments",
        "encode_summary_full", "encode_summary_delta", "decode_summary_frame",
    )
    + _methods(
        "repro.streaming.broker.Broker", "streaming.broker",
        "produce", "fetch", "fetch_block", "commit", "committed", "end_offset",
        "shutdown", "restart", "drop_acks_until",
    )
    # Broker.subscribe_notify's callbacks stay bare: a warning append
    # calls every subscribed vehicle's handler (millions of sub-
    # microsecond calls on corridor_paper), and a span around each
    # would cost more than the handler.  Their time is the broker's.
    + _methods(
        "repro.streaming.consumer.Consumer", "streaming.consumer",
        "poll", "poll_block", measure=_nonempty,
    )
    + _methods(
        "repro.streaming.consumer.Consumer", "streaming.consumer",
        "subscribe", "commit", "close", "seek", "seek_to_end", "lag",
    )
    + _methods(
        "repro.microbatch.context.StreamingContext", "microbatch", "start", "stop"
    )
    + _methods("repro.microbatch.dstream.DStream", "microbatch", "process")
    + _methods(
        "repro.microbatch.dstream.DStream", "microbatch",
        "foreach_batch", "foreach_window", callbacks=True,
    )
    + [
        Target(f"{path}.{name}", "core.detector")
        for path in (
            "repro.core.detector.AD3Detector",
            "repro.core.collaborative.CollaborativeDetector",
            "repro.ml.base._DetectorAdapter",
        )
        for name in ("detect", "detect_block", "observe", "observe_block")
    ]
    + _methods(
        "repro.ml.naive_bayes.GaussianNaiveBayes", "core.detector",
        "predict", "predict_proba", "predict_log_proba", "predict_and_proba",
        "proba_of", "partial_fit",
    )
    + _methods(
        "repro.core.rsu.RsuNode", "core.rsu",
        "start", "stop", "handover", "build_summary", "fail", "crash", "restart",
    )
    + _methods(
        "repro.core.collab.CollabPlane", "core.collab",
        "prepare", "mark_lost", "forget_car",
    )
    + _methods("repro.core.collab.SummaryRxCache", "core.collab", "resolve")
    + [
        Target(
            "repro.net.link.WiredLink.send", "core.collab",
            callbacks=True, measure=_link_bytes,
        )
    ]
    + _methods("repro.net.link.WiredLink", "core.collab", "set_down", "set_up")
    + _methods("repro.faults.injector.FaultInjector", "faults", "install")
)

_ARENA_METHODS = (
    "alloc", "free", "reserve", "compact_segment", "append", "kill_rows",
    "rows", "extract", "compact", "live_rows", "stats", "check",
)
CITY_TARGETS: Tuple[Target, ...] = tuple(
    _methods("repro.city.kernel.FusedShardState", "city.kernel", "tick")
    + _methods("repro.city.arena.SegmentArena", "city.arena", *_ARENA_METHODS)
)

#: Span names of ``CityResult.profile`` (``repro.city.engine.
#: PROFILE_PHASES``) and the metric each is reported under.
CITY_PHASES = (
    ("city.arrivals", "city.kernel.arrivals_s"),
    ("city.churn", "city.kernel.churn_s"),
    ("city.moves", "city.kernel.moves_s"),
    ("city.detect", "city.kernel.detect_s"),
    ("city.digest", "city.kernel.digest_s"),
)

# ----------------------------------------------------------------------
# Catalogue: every per-layer metric, by workload family
# ----------------------------------------------------------------------
_S, _N, _R = "s", "count", "ratio"
CORRIDOR_SERIAL_METRICS = (
    ("simkernel.events", _N), ("simkernel.self_s", _S),
    ("simkernel.queue_depth_peak", _N),
    ("core.vehicle.produce_calls", _N), ("core.vehicle.poll_calls", _N),
    ("core.vehicle.self_s", _S),
    ("streaming.producer.sends", _N), ("streaming.producer.retries", _N),
    ("streaming.producer.evictions", _N), ("streaming.producer.self_s", _S),
    ("net.htb.sends", _N), ("net.htb.self_s", _S),
    ("net.dsrc.frames", _N), ("net.dsrc.flushes", _N),
    ("net.dsrc.frames_lost", _N), ("net.dsrc.self_s", _S),
    ("streaming.serde.encode_calls", _N), ("streaming.serde.decode_calls", _N),
    ("streaming.serde.bytes", "B"), ("streaming.serde.self_s", _S),
    ("streaming.broker.produce_calls", _N), ("streaming.broker.fetch_calls", _N),
    ("streaming.broker.records_out", _N), ("streaming.broker.refused", _N),
    ("streaming.broker.self_s", _S),
    ("streaming.consumer.polls", _N), ("streaming.consumer.useful_poll_ratio", _R),
    ("streaming.consumer.self_s", _S),
    ("microbatch.batches", _N), ("microbatch.empty_batches", _N),
    ("microbatch.records", _N), ("microbatch.self_s", _S),
    ("core.detector.calls", _N), ("core.detector.rows", _N),
    ("core.detector.self_s", _S),
    ("core.rsu.warnings_emitted", _N), ("core.rsu.handovers", _N),
    ("core.rsu.self_s", _S),
    ("core.collab.summaries_sent", _N), ("core.collab.bytes_sent", "B"),
    ("core.collab.self_s", _S),
    ("faults.events_injected", _N), ("faults.self_s", _S),
)
CORRIDOR_SHARDED_METRICS = (
    ("parallel.barriers", _N), ("parallel.barrier_wait_s", _S),
    ("parallel.build_cpu_s", "cpu_s"), ("parallel.worker_cpu_s.max", "cpu_s"),
    ("parallel.worker_cpu_s.sum", "cpu_s"), ("parallel.engine_cpu_s", "cpu_s"),
    ("parallel.critical_path_cpu_s", "cpu_s"), ("parallel.shard_skew", _R),
    ("parallel.undelivered_frames", _N), ("parallel.wall_over_critical_path", _R),
)
_CITY_PHASE_METRICS = tuple((metric, _S) for _, metric in CITY_PHASES)
CITY_SERIAL_METRICS = (
    (("city.kernel.ticks", _N), ("city.kernel.tick_s", _S))
    + _CITY_PHASE_METRICS
    + (
        ("city.arena.appends", _N), ("city.arena.reserves", _N),
        ("city.arena.compactions", _N), ("city.arena.self_s", _S),
        ("city.engine.self_s", _S),
    )
)
CITY_SHARDED_METRICS = (
    ("city.engine.barriers", _N), ("city.engine.barrier_wait_s", _S),
    ("city.engine.engine_cpu_s", "cpu_s"), ("city.engine.rebalance_events", _N),
    ("city.engine.rsus_moved", _N), ("city.worker.cpu_s.max", "cpu_s"),
    ("city.worker.cpu_s.sum", "cpu_s"), ("city.worker.build_cpu_s", "cpu_s"),
    ("city.engine.critical_path_cpu_s", "cpu_s"),
    ("city.engine.wall_over_critical_path", _R),
)
COMMON_METRICS = (("unattributed_s", _S), ("trace_overhead_ratio", _R))

#: Where a higher reading is the better one; every other layer metric
#: is work, time or waste.
HIGHER_IS_BETTER = ("streaming.consumer.useful_poll_ratio",)


def catalogue() -> List[Tuple[str, str]]:
    """Every per-layer metric once, in table order."""
    seen: Dict[str, str] = {}
    for group in (
        CORRIDOR_SERIAL_METRICS, CORRIDOR_SHARDED_METRICS, CITY_SERIAL_METRICS,
        CITY_SHARDED_METRICS, COMMON_METRICS,
    ):
        for name, unit in group:
            seen.setdefault(name, unit)
    return list(seen.items())


# ----------------------------------------------------------------------
# Reading the program's public outputs
# ----------------------------------------------------------------------
def _get(obj, *path):
    """Attribute chain, ``None`` as soon as a link is missing."""
    for name in path:
        obj = getattr(obj, name, None)
        if obj is None:
            return None
    return obj


def _sum_attr(objects, attr: str):
    """Sum of ``attr`` over ``objects``; ``None`` if any lacks it."""
    values = [getattr(obj, attr, None) for obj in objects]
    if not values or any(value is None for value in values):
        return None
    return sum(values)


def _counter_total(obs, name: str):
    """A snapshot counter summed over its label sets."""
    if obs is None:
        return None
    values = [v for (key, _labels), v in obs.counters.items() if key == name]
    return sum(values) if values else None


def _histograms(obs, name: str):
    if obs is None:
        return []
    return [h for (key, _labels), h in obs.histograms.items() if key == name]


def _finish(values: Dict[str, object], group) -> Dict[str, dict]:
    """Every metric of ``group`` with its unit; unread ones ``None``."""
    return {
        name: {"value": values.get(name), "unit": unit}
        for name, unit in group + COMMON_METRICS
    }


# ----------------------------------------------------------------------
# Table builders
# ----------------------------------------------------------------------
def corridor_serial_table(tracer: Tracer, scenario, result, traced_wall_s: float):
    """Layer table of a traced single-process corridor repetition."""
    layers = sorted({name.rsplit(".", 1)[0] for name, unit in CORRIDOR_SERIAL_METRICS})
    seen = {
        layer: tracer.layer_resolved(layer, CORRIDOR_TARGETS) for layer in layers
    }
    values: Dict[str, object] = {}
    for layer in layers:
        values[f"{layer}.self_s"] = tracer.self_s(layer) if seen[layer] else None

    def calls(layer, *names):
        return tracer.calls(layer, *names) if seen[layer] else None

    obs = result.obs
    resilience = result.resilience
    values["simkernel.events"] = _get(scenario, "sim", "events_fired")
    values["simkernel.queue_depth_peak"] = _get(scenario, "sim", "queue", "depth_peak")
    values["core.vehicle.produce_calls"] = calls("core.vehicle", "produce")
    values["core.vehicle.poll_calls"] = calls("core.vehicle", "poll", "wakeup")
    values["streaming.producer.sends"] = calls("streaming.producer", "send")
    values["streaming.producer.retries"] = _get(resilience, "records_retried")
    values["streaming.producer.evictions"] = _get(resilience, "records_dropped")
    values["net.htb.sends"] = calls(
        "net.htb", "send", "send_deferred", "send_prioritized"
    )
    values["net.dsrc.frames"] = calls("net.dsrc", "transmit", "enqueue")
    values["net.dsrc.flushes"] = calls("net.dsrc", "flush")
    values["net.dsrc.frames_lost"] = _sum_attr(
        (_get(scenario, "channels") or {}).values(), "frames_lost"
    )
    values["streaming.serde.encode_calls"] = calls(
        "streaming.serde", "serialize", "encode_summary_full", "encode_summary_delta"
    )
    values["streaming.serde.decode_calls"] = calls(
        "streaming.serde", "deserialize", "decode_batch", "decode_telemetry_block",
        "decode_telemetry_segments", "decode_summary_frame",
    )
    if seen["streaming.serde"]:
        values["streaming.serde.bytes"] = tracer.measured("streaming.serde")
    values["streaming.broker.produce_calls"] = calls("streaming.broker", "produce")
    values["streaming.broker.fetch_calls"] = calls(
        "streaming.broker", "fetch", "fetch_block"
    )
    values["streaming.broker.records_out"] = _counter_total(obs, "broker.records_out")
    if seen["streaming.broker"]:
        values["streaming.broker.refused"] = tracer.raised("streaming.broker")
    polls = calls("streaming.consumer", "poll", "poll_block")
    values["streaming.consumer.polls"] = polls
    if polls:
        values["streaming.consumer.useful_poll_ratio"] = (
            tracer.measured("streaming.consumer") / polls
        )
    sizes = _histograms(obs, "microbatch.batch_size")
    if sizes:
        # Bucket 0 is ``size <= 0``: ticks that cut an empty batch.
        values["microbatch.batches"] = sum(h[3] for h in sizes)
        values["microbatch.empty_batches"] = sum(h[1][0] for h in sizes)
        values["microbatch.records"] = int(sum(h[2] for h in sizes))
    values["core.detector.calls"] = calls("core.detector", "detect", "detect_block")
    values["core.detector.rows"] = _counter_total(obs, "rsu.records_detected")
    values["core.rsu.warnings_emitted"] = _counter_total(obs, "rsu.warnings_emitted")
    values["core.rsu.handovers"] = calls("core.rsu", "handover")
    rsus = list((_get(result, "rsu_metrics") or {}).values())
    values["core.collab.summaries_sent"] = _sum_attr(rsus, "summaries_sent")
    if seen["core.collab"]:
        values["core.collab.bytes_sent"] = tracer.measured("core.collab")
    fault_log = _get(resilience, "fault_log")
    values["faults.events_injected"] = None if fault_log is None else len(fault_log)
    named = sum(v for k, v in values.items() if k.endswith(".self_s") and v is not None)
    values["unattributed_s"] = traced_wall_s - named
    return _finish(values, CORRIDOR_SERIAL_METRICS)


def _window_metrics(prefix: Dict[str, str], build_cpu_s, window_timings, wall_s):
    """The barrier-window accounting both sharded engines expose."""
    values: Dict[str, object] = {}
    if window_timings is None or build_cpu_s is None:
        return values
    per_worker = [
        sum(column) for column in zip(*(w.worker_cpu_s for w in window_timings))
    ]
    engine = sum(w.engine_cpu_s for w in window_timings)
    critical = (max(build_cpu_s) if build_cpu_s else 0.0) + sum(
        max(w.worker_cpu_s) + w.engine_cpu_s for w in window_timings
    )
    values[prefix["barriers"]] = len(window_timings)
    values[prefix["build"]] = sum(build_cpu_s)
    values[prefix["engine"]] = engine
    values[prefix["critical"]] = critical
    if per_worker:
        values[prefix["worker_max"]] = max(per_worker)
        values[prefix["worker_sum"]] = sum(per_worker)
    if wall_s is not None and critical > 0:
        values[prefix["over"]] = wall_s / critical
    return values


def corridor_sharded_table(engine, result, run_wall_s: float):
    """Layer table of an ``observability=True`` sharded corridor run,
    from ``ShardedScenario``'s public attributes and the merged
    snapshot; ``barrier_wait_s`` is the time workers spent blocked on
    the engine, summed over shards."""
    values = _window_metrics(
        {
            "barriers": "parallel.barriers", "build": "parallel.build_cpu_s",
            "engine": "parallel.engine_cpu_s",
            "critical": "parallel.critical_path_cpu_s",
            "worker_max": "parallel.worker_cpu_s.max",
            "worker_sum": "parallel.worker_cpu_s.sum",
            "over": "parallel.wall_over_critical_path",
        },
        _get(engine, "build_cpu_s"), _get(engine, "window_timings"), run_wall_s,
    )
    waits = _histograms(result.obs, "shard.barrier_wait_ms")
    if waits:
        values["parallel.barrier_wait_s"] = sum(h[2] for h in waits) / 1e3
    worker_max = values.get("parallel.worker_cpu_s.max")
    worker_sum = values.get("parallel.worker_cpu_s.sum")
    n_shards = _get(engine, "n_shards")
    if worker_max is not None and worker_sum and n_shards:
        values["parallel.shard_skew"] = worker_max / (worker_sum / n_shards)
    values["parallel.undelivered_frames"] = _get(engine, "undelivered_frames")
    return _finish(values, CORRIDOR_SHARDED_METRICS)


def _phase_seconds(profile) -> Dict[str, object]:
    values: Dict[str, object] = {}
    for phase, metric in CITY_PHASES:
        entry = (profile or {}).get(phase)
        values[metric] = None if entry is None else entry["total_ms"] / 1e3
    return values


def city_serial_table(tracer: Tracer, result, traced_wall_s: float):
    """Layer table of a traced single-process city repetition: wrapped
    ``tick`` and arena calls, plus the kernel's own phase profile."""
    kernel = tracer.layer_resolved("city.kernel", CITY_TARGETS)
    arena = tracer.layer_resolved("city.arena", CITY_TARGETS)
    values = _phase_seconds(_get(result, "profile"))
    values["city.kernel.ticks"] = tracer.calls("city.kernel", "tick") if kernel else None
    values["city.kernel.tick_s"] = tracer.self_s("city.kernel") if kernel else None
    if arena:
        values["city.arena.appends"] = tracer.calls("city.arena", "append")
        values["city.arena.reserves"] = tracer.calls("city.arena", "reserve")
        values["city.arena.compactions"] = tracer.calls(
            "city.arena", "compact", "compact_segment"
        )
        values["city.arena.self_s"] = tracer.self_s("city.arena")
    values["city.engine.self_s"] = tracer.self_s("city.engine")
    named = (
        (values["city.kernel.tick_s"] or 0.0)
        + (values.get("city.arena.self_s") or 0.0)
        + values["city.engine.self_s"]
    )
    values["unattributed_s"] = traced_wall_s - named
    return _finish(values, CITY_SERIAL_METRICS)


def city_sharded_table(result):
    """Layer table of an ``observability=True, profile=True`` sharded
    city run, from ``CityResult``; ``barrier_wait_s`` is the wall the
    CPU critical path does not account for (waiting, IPC, contention)."""
    wall_s = _get(result, "wall_s")
    values = _window_metrics(
        {
            "barriers": "city.engine.barriers", "build": "city.worker.build_cpu_s",
            "engine": "city.engine.engine_cpu_s",
            "critical": "city.engine.critical_path_cpu_s",
            "worker_max": "city.worker.cpu_s.max",
            "worker_sum": "city.worker.cpu_s.sum",
            "over": "city.engine.wall_over_critical_path",
        },
        _get(result, "build_cpu_s"), _get(result, "window_timings"), wall_s,
    )
    critical = values.get("city.engine.critical_path_cpu_s")
    if wall_s is not None and critical is not None:
        values["city.engine.barrier_wait_s"] = wall_s - critical
    events = _get(result, "rebalance_events")
    if events is not None:
        values["city.engine.rebalance_events"] = len({e["tick"] for e in events})
        values["city.engine.rsus_moved"] = len(events)
    values.update(_phase_seconds(_get(result, "profile")))
    return _finish(values, CITY_SHARDED_METRICS + _CITY_PHASE_METRICS)
