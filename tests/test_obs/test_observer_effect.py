"""Observer-effect golden test: instrumentation must never change results.

Every metric site reads simulation state; none may mutate it, consume
a record, or draw from a seeded RNG stream.  The proof: the same
seeded corridor with observability on and off produces bit-identical
warnings, events, and latency samples.
"""

from repro.core.features import IN_DATA, record_to_payload
from repro.core.rsu import RsuConfig, RsuNode
from repro.core.scenario import paper_corridor
from repro.core.wire import topic_serdes
from repro.obs.metrics import MetricsRegistry, disable, enable
from repro.simkernel import Simulator


def _run(labeled_dataset, observe):
    builder = paper_corridor().vehicles(6).duration(2.0).serde("struct")
    if observe:
        builder = builder.observe()
    scenario = builder.corridor(motorways=2, dataset=labeled_dataset)
    result = scenario.run()
    return scenario, result


def _signature(scenario, result):
    return {
        "warnings": {
            name: rsu.warning_log() for name, rsu in scenario.rsus.items()
        },
        "events": {
            name: [
                (e.car_id, e.generated_at, e.arrived_at, e.detected_at, e.abnormal)
                for e in rsu.events
            ]
            for name, rsu in scenario.rsus.items()
        },
        "vehicles": {
            car: (
                stats.records_sent,
                stats.bytes_sent,
                stats.warnings_received,
                stats.e2e_latencies_s,
                stats.dissemination_latencies_s,
            )
            for car, stats in result.vehicle_stats.items()
        },
    }


def test_observability_is_bit_identical_to_off(labeled_dataset):
    plain_scenario, plain_result = _run(labeled_dataset, observe=False)
    observed_scenario, observed_result = _run(labeled_dataset, observe=True)
    assert _signature(plain_scenario, plain_result) == _signature(
        observed_scenario, observed_result
    )
    # And the observed run actually observed something.
    snap = observed_result.obs
    assert snap is not None
    assert snap.counter_total("rsu.records_detected") > 0
    assert plain_result.obs is None


def test_observability_disabled_after_run(labeled_dataset):
    from repro.obs.metrics import active
    from repro.obs.trace import active_recorder

    _run(labeled_dataset, observe=True)
    # run() must tear the module globals down even though it enabled them.
    assert active() is None
    assert active_recorder() is None


class _CountingRegistry(MetricsRegistry):
    """Counts every instrument access an observed run makes."""

    def __init__(self):
        super().__init__()
        self.ops = 0

    def counter(self, name, **labels):
        self.ops += 1
        return super().counter(name, **labels)

    def gauge(self, name, agg="max", **labels):
        self.ops += 1
        return super().gauge(name, agg=agg, **labels)

    def histogram(self, name, edges, **labels):
        self.ops += 1
        return super().histogram(name, edges, **labels)


#: Registry accesses one micro-batch may cost: queue depth, batch size
#: and processing time on every tick, plus detected / abnormal /
#: batch latency when the batch carried records.
_REGISTRY_OPS_PER_BATCH = 6


def _observed_rsu_ops(detector, records, records_per_batch, n_batches=10):
    """Feed a struct RSU ``records_per_batch`` records ahead of
    each of ``n_batches`` micro-batch ticks; count registry accesses."""
    sim = Simulator()
    rsu = RsuNode(
        sim, "obs", detector, RsuConfig(serdes=topic_serdes("struct"))
    )
    serde = rsu._serde_for(IN_DATA)
    interval = rsu.config.batch_interval_s
    wire = [
        serde.serialize({**record_to_payload(record), "gen": 0.0, "arr": 0.0})
        for record in records[:records_per_batch]
    ]

    def produce():
        for value in wire:
            rsu.broker.produce(IN_DATA, value, timestamp=sim.now)

    for tick in range(n_batches):
        sim.at((tick + 0.5) * interval, produce)
    rsu.start(until=(n_batches + 0.5) * interval)
    registry = enable(_CountingRegistry())
    try:
        sim.run()
    finally:
        disable()
    assert len(rsu.events) == n_batches * records_per_batch
    assert rsu.context.batches_processed == n_batches
    return registry.ops


def test_registry_operations_scale_with_batches_not_records(
    motorway_detector, motorway_records
):
    """What observing costs the hot path is a count, not a wall-clock
    ratio: a fixed number of registry accesses per micro-batch, however
    many records the batch carries."""
    _, records = motorway_records
    small = _observed_rsu_ops(motorway_detector, records, 40)
    large = _observed_rsu_ops(motorway_detector, records, 400)
    assert small == large
    assert 0 < large <= _REGISTRY_OPS_PER_BATCH * 10
