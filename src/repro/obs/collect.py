"""End-of-run folding of scenario state into the metrics registry.

The hot path records only what must be observed as it happens (batch
sizes, latencies, fault events).  Everything that can be read off the
finished scenario for free — vehicle stat totals, broker byte/record
counters — is folded in here, once, after the simulation stops, so it
costs the run nothing.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanRecorder


def finalize_scenario(
    scenario,
    registry: MetricsRegistry,
    recorder: SpanRecorder = None,
) -> None:
    """Fold a finished scenario's totals into ``registry``.

    Works on a full serial scenario or one shard's slice (the sharded
    engine merges the per-worker snapshots afterwards; every counter
    here is additive across shards).  Callers must pass the vehicles
    the scenario *owns* at run end — the shard worker filters detached
    vehicles first, so a transferred vehicle's cumulative stats are
    folded exactly once, on its final shard.
    """
    sim = getattr(scenario, "sim", None)
    if sim is not None:
        # Kernel introspection: high-water marks, merged across shards
        # by max.
        queue = sim.queue
        registry.gauge("sim_queue_depth").set(queue.depth_peak)
        registry.gauge("sim_queue_cancelled").set(queue.cancelled_peak)
    for vehicle in scenario.vehicles:
        stats = vehicle.stats
        registry.counter("vehicle.records_sent").inc(stats.records_sent)
        registry.counter("vehicle.bytes_sent").inc(stats.bytes_sent)
        registry.counter("vehicle.warnings_received").inc(
            stats.warnings_received
        )
        registry.counter("vehicle.records_lost").inc(stats.records_lost)
        registry.counter("vehicle.poll_failures").inc(stats.poll_failures)
    for name, rsu in scenario.rsus.items():
        # Warning/summary accounting is kept as plain attributes on the
        # node (the hot path must not pay a registry lookup per
        # warning); fold the totals here instead.
        registry.counter("rsu.warnings_emitted", rsu=name).inc(
            rsu.warnings_issued + rsu.warnings_ack_lost
        )
        registry.counter("rsu.warnings_ack_lost", rsu=name).inc(
            rsu.warnings_ack_lost
        )
        registry.counter("rsu.summaries_sent", rsu=name).inc(
            rsu.summaries_sent
        )
        registry.counter("rsu.summaries_lost", rsu=name).inc(
            rsu.summaries_lost
        )
        registry.counter("rsu.summaries_received", rsu=name).inc(
            rsu.summaries_received
        )
        registry.counter("rsu.records_dead_on_crash", rsu=name).inc(
            rsu.records_dead_on_crash
        )
        broker = getattr(rsu, "broker", None)
        if broker is None:
            continue
        registry.counter("broker.records_in", rsu=name).inc(broker.records_in)
        registry.counter("broker.records_out", rsu=name).inc(
            broker.records_out
        )
        registry.counter("broker.bytes_in", rsu=name).inc(broker.bytes_in)
        registry.counter("broker.bytes_out", rsu=name).inc(broker.bytes_out)
        registry.counter("broker.duplicates_rejected", rsu=name).inc(
            broker.duplicates_rejected
        )
        registry.counter("broker.crashes", rsu=name).inc(broker.crashes)
    if recorder is not None:
        recorder.fold_into(registry)
