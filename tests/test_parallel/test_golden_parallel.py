"""Golden equivalence: the sharded engine vs the single-process engine.

The parallel corridor must be *deterministic* and *warning-for-warning
identical* to ``shards=1`` — same warning tuples in the same order at
every RSU, same latency samples, same summary counts.  These tests run
the ``paper_corridor()`` preset (reduced sizes) both ways and compare
exactly, plus the gating rules for configurations sharding cannot
honour.
"""

import pytest

from repro.core.scenario import ScenarioBuilder, paper_corridor
from repro.parallel.engine import ParallelExecutionError, ShardedScenario


def _builder(dataset_seed_free=True):
    # paper_corridor() at test scale: enough vehicles that a quarter of
    # each motorway hands over mid-run, short enough to stay fast.
    return paper_corridor().vehicles(8).duration(2.0).serde("struct")


def _vehicle_signature(result):
    return {
        car: (
            stats.records_sent,
            stats.bytes_sent,
            stats.warnings_received,
            stats.e2e_latencies_s,
            stats.dissemination_latencies_s,
        )
        for car, stats in result.vehicle_stats.items()
    }


@pytest.fixture(scope="module")
def serial_run(labeled_dataset, audit_invariants):
    scenario = _builder().corridor(motorways=2, dataset=labeled_dataset)
    result = scenario.run()
    # The comparator itself must conserve records/warnings, or the
    # bit-identical assertions below prove equivalence to a broken run.
    audit_invariants(scenario)
    warnings = {name: rsu.warning_log() for name, rsu in scenario.rsus.items()}
    return result, warnings


@pytest.fixture(scope="module")
def parallel_run(labeled_dataset):
    scenario = _builder().shards(4).corridor(
        motorways=2, dataset=labeled_dataset
    )
    assert isinstance(scenario, ShardedScenario)
    result = scenario.run()
    return result, scenario


class TestGoldenParallel:
    def test_warnings_bit_identical(self, serial_run, parallel_run):
        _, serial_warnings = serial_run
        _, scenario = parallel_run
        assert scenario.warning_logs == serial_warnings
        assert sum(len(w) for w in serial_warnings.values()) > 0

    def test_vehicle_stats_identical(self, serial_run, parallel_run):
        serial_result, _ = serial_run
        parallel_result, _ = parallel_run
        assert _vehicle_signature(parallel_result) == _vehicle_signature(
            serial_result
        )

    def test_rsu_metrics_identical(self, serial_run, parallel_run):
        serial_result, _ = serial_run
        parallel_result, _ = parallel_run
        assert set(parallel_result.rsu_metrics) == set(
            serial_result.rsu_metrics
        )
        for name, serial_m in serial_result.rsu_metrics.items():
            parallel_m = parallel_result.rsu_metrics[name]
            assert parallel_m.n_events == serial_m.n_events
            assert parallel_m.warnings_issued == serial_m.warnings_issued
            assert parallel_m.summaries_sent == serial_m.summaries_sent
            assert (
                parallel_m.summaries_received == serial_m.summaries_received
            )
            assert parallel_m.mean_tx_ms == serial_m.mean_tx_ms
            assert parallel_m.mean_queuing_ms == serial_m.mean_queuing_ms
            assert parallel_m.bandwidth_in_bps == serial_m.bandwidth_in_bps

    def test_aggregate_latencies_identical(self, serial_run, parallel_run):
        serial_result, _ = serial_run
        parallel_result, _ = parallel_run
        assert parallel_result.mean_e2e_ms() == serial_result.mean_e2e_ms()
        assert (
            parallel_result.mean_dissemination_ms()
            == serial_result.mean_dissemination_ms()
        )

    def test_no_frames_lost(self, parallel_run):
        _, scenario = parallel_run
        assert scenario.undelivered_frames == 0
        assert len(scenario.window_timings) > 0
        assert scenario.critical_path_cpu_s() > 0

    def test_handover_actually_crossed_shards(self, parallel_run):
        """The run must exercise the cross-shard path, or this golden
        test proves nothing: the link RSU and at least one motorway
        must sit in different shards, and summaries must have moved."""
        result, scenario = parallel_run
        assert scenario.plan.cross_edges(scenario.topology)
        link = result.rsu_metrics["rsu-mw-link"]
        assert link.summaries_received > 0

    def test_half_handover_bit_identical(self, labeled_dataset):
        """Half of each motorway's vehicles hand over: twice the
        fixtures' cross-shard CO-DATA, the same exact equality."""
        serial = _builder().handover(0.5).corridor(
            motorways=2, dataset=labeled_dataset
        )
        serial_result = serial.run()
        sharded = _builder().handover(0.5).shards(4).corridor(
            motorways=2, dataset=labeled_dataset
        )
        sharded_result = sharded.run()
        serial_warnings = {
            name: rsu.warning_log() for name, rsu in serial.rsus.items()
        }
        assert sharded.warning_logs == serial_warnings
        assert sum(len(w) for w in serial_warnings.values()) > 0
        assert _vehicle_signature(sharded_result) == _vehicle_signature(
            serial_result
        )
        link = sharded_result.rsu_metrics["rsu-mw-link"]
        assert link.summaries_received > 0


class TestShardedObservability:
    def test_merged_snapshot_matches_serial_totals(self, labeled_dataset):
        """Per-shard registries merged at collect must total exactly
        what one serial registry sees: the merge is the whole story of
        cross-shard metrics, so every additive counter must agree."""
        serial = (
            _builder().observe().corridor(motorways=2, dataset=labeled_dataset)
        )
        serial_snap = serial.run().obs
        sharded = (
            _builder()
            .observe()
            .shards(4)
            .corridor(motorways=2, dataset=labeled_dataset)
        )
        merged = sharded.run().obs
        assert merged is not None
        for name in (
            "vehicle.records_sent",
            "vehicle.warnings_received",
            "rsu.records_detected",
            "rsu.warnings_emitted",
            "rsu.summaries_sent",
            "rsu.summaries_received",
            "broker.records_in",
        ):
            assert merged.counter_total(name) == serial_snap.counter_total(
                name
            ), name
        # Per-shard live snapshots flowed over the rings during the run.
        assert len(sharded.shard_snapshots) == sharded.n_shards


class TestShardingGates:
    def test_faults_rejected(self):
        from repro.faults.events import profile

        builder = _builder().shards(2).faults(profile("broker_crash"))
        with pytest.raises(ValueError, match="fault injection"):
            builder.corridor()

    def test_retry_rejected(self):
        from repro.streaming.producer import RetryPolicy

        builder = _builder().shards(2).retry(RetryPolicy())
        with pytest.raises(ValueError, match="retry"):
            builder.corridor()

    def test_non_corridor_topologies_rejected(self, labeled_dataset):
        with pytest.raises(ValueError, match="single_rsu"):
            ScenarioBuilder().shards(2).single_rsu(dataset=labeled_dataset)
        with pytest.raises(ValueError, match="chain"):
            ScenarioBuilder().shards(2).chain(dataset=labeled_dataset)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            ScenarioBuilder().shards(0)

    def test_worker_failure_surfaces_traceback(self, labeled_dataset):
        scenario = _builder().shards(2).corridor(
            motorways=2, dataset=labeled_dataset
        )
        # Sabotage the bundle so every worker build blows up.
        scenario.bundle.detectors.clear()
        with pytest.raises(ParallelExecutionError, match="Traceback"):
            scenario.run()
