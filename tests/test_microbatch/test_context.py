"""Tests for the streaming context and processing model."""

import json

import numpy as np
import pytest

from repro.microbatch import ProcessingModel, StreamingContext
from repro.simkernel import Simulator
from repro.streaming import Broker, Consumer, Producer


def build_pipeline(interval_s=0.050, model=None):
    """A context whose batches, with their completion times, land in
    ``context.completed``."""
    sim = Simulator()
    broker = Broker("rsu", clock=lambda: sim.now)
    broker.create_topic("IN-DATA", 1)
    consumer = Consumer(broker, group="pipeline")
    consumer.subscribe(["IN-DATA"])
    completed = []
    context = StreamingContext(
        sim,
        consumer,
        lambda batch, t: completed.append((batch, t)),
        interval_s=interval_s,
        processing_model=model,
    )
    context.completed = completed
    producer = Producer(broker)
    return sim, context, producer


class TestProcessingModel:
    def test_paper_calibration(self):
        """Fig. 6a: ~7.3 ms at 8 vehicles (4 records / 50 ms batch),
        ~11.7 ms at 256 vehicles (128 records)."""
        model = ProcessingModel()
        assert model.duration(4) * 1e3 == pytest.approx(7.3, abs=0.5)
        assert model.duration(128) * 1e3 == pytest.approx(11.7, abs=0.7)

    def test_monotonic_in_records(self):
        model = ProcessingModel()
        durations = [model.duration(n) for n in (0, 10, 100, 1000)]
        assert durations == sorted(durations)

    def test_jitter_scales(self):
        model = ProcessingModel(jitter_fraction=0.1)
        base = model.duration(10)
        assert model.duration(10, jitter=1.0) == pytest.approx(base * 1.1)
        assert model.duration(10, jitter=-1.0) == pytest.approx(base * 0.9)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ProcessingModel().duration(-1)


class TestStreamingContext:
    def test_ticks_at_interval(self):
        sim, context, producer = build_pipeline()
        context.start(until=0.20)
        sim.run()
        # Ticks at 0.05, 0.10, 0.15 (until is exclusive of 0.20).
        assert context.batches_processed == 3

    def test_records_flow_to_sink(self):
        sim, context, producer = build_pipeline()
        sim.at(0.01, lambda: producer.send("IN-DATA", json.dumps({"n": 1}).encode()))
        sim.at(0.06, lambda: producer.send("IN-DATA", json.dumps({"n": 2}).encode()))
        context.start(until=0.15)
        sim.run()
        seen = [
            json.loads(value)["n"]
            for batch, _ in context.completed
            for value in batch.collect()
        ]
        assert seen == [1, 2]

    def test_batch_boundary_respected(self):
        """A record produced at t=0.06 is not in the t=0.05 batch."""
        sim, context, producer = build_pipeline()
        sim.at(0.06, lambda: producer.send("IN-DATA", json.dumps({"n": 1}).encode()))
        context.start(until=0.15)
        sim.run()
        sizes = dict(
            (round(batch.batch_time, 3), len(batch))
            for batch, _ in context.completed
        )
        assert sizes.get(0.05, 0) == 0
        assert sizes[0.1] == 1

    def test_completion_time_after_batch_time(self):
        sim, context, producer = build_pipeline()
        sim.at(0.01, lambda: producer.send("IN-DATA", json.dumps({"n": 1}).encode()))
        context.start(until=0.10)
        sim.run()
        assert context.completed
        for batch, completion in context.completed:
            assert completion > batch.batch_time

    def test_processing_latency_model_applied(self):
        model = ProcessingModel(base_s=0.005, per_record_s=0.0, jitter_fraction=0.0)
        sim, context, producer = build_pipeline(model=model)
        sim.at(0.01, lambda: producer.send("IN-DATA", json.dumps({"n": 1}).encode()))
        context.start(until=0.10)
        sim.run()
        assert context.completed[0][1] == pytest.approx(0.055)

    def test_busy_pipeline_queues_batches(self):
        """If processing exceeds the interval, batches serialize."""
        model = ProcessingModel(base_s=0.120, per_record_s=0.0, jitter_fraction=0.0)
        sim, context, producer = build_pipeline(model=model)
        for t in (0.01, 0.06, 0.11):
            sim.at(t, lambda: producer.send("IN-DATA", json.dumps({"n": 0}).encode()))
        context.start(until=0.20)
        sim.run()
        # Batch 1 completes at 0.05+0.12=0.17; batch 2 starts at 0.17,
        # completes 0.29; batch 3 at 0.41.
        completions = [t for _, t in context.completed]
        assert completions == pytest.approx([0.17, 0.29, 0.41])

    def test_completions_fire_in_batch_order(self):
        """The callback runs at each batch's completion instant, in
        batch order, even when jitter makes a later batch cheaper."""
        rng = np.random.default_rng(3)
        model = ProcessingModel(base_s=0.040, jitter_fraction=0.5)
        sim, context, producer = build_pipeline(model=model)
        context.jitter_source = lambda: float(rng.uniform(-1, 1))
        seen = []
        context.on_batch = lambda batch, t: seen.append(
            (batch.batch_time, t, sim.now)
        )
        for k in range(12):
            sim.at(0.01 + 0.02 * k, lambda: producer.send("IN-DATA", json.dumps({"n": 0}).encode()))
        context.start(until=0.30)
        sim.run()
        expected = [(m.batch_time, m.completion_time) for m in context.metrics]
        assert [(bt, t) for bt, t, _ in seen] == expected
        assert all(now == t for _, t, now in seen)
        completions = [t for _, t, _ in seen]
        assert completions == sorted(completions)

    def test_mean_processing_skips_empty_batches(self):
        sim, context, producer = build_pipeline()
        sim.at(0.01, lambda: producer.send("IN-DATA", json.dumps({"n": 1}).encode()))
        context.start(until=0.30)
        sim.run()
        non_empty = [m for m in context.metrics if m.n_records > 0]
        assert len(non_empty) == 1
        assert context.mean_processing_ms() == pytest.approx(
            non_empty[0].processing_ms
        )

    def test_double_start_rejected(self):
        sim, context, _ = build_pipeline()
        context.start(until=0.1)
        with pytest.raises(RuntimeError):
            context.start()

    def test_stop_halts_ticks(self):
        sim, context, _ = build_pipeline()
        context.start()
        sim.at(0.12, context.stop)
        sim.run_until(0.5)
        assert context.batches_processed == 2

    def test_invalid_interval(self):
        sim, context, _ = build_pipeline()
        with pytest.raises(ValueError):
            StreamingContext(
                sim, context.consumer, context.on_batch, interval_s=0.0
            )

    def test_jitter_source_used(self):
        rng = np.random.default_rng(0)
        sim = Simulator()
        broker = Broker("b", clock=lambda: sim.now)
        broker.create_topic("IN-DATA", 1)
        consumer = Consumer(broker, group="g")
        consumer.subscribe(["IN-DATA"])
        context = StreamingContext(
            sim,
            consumer,
            lambda batch, t: None,
            processing_model=ProcessingModel(jitter_fraction=0.5),
            jitter_source=lambda: float(rng.uniform(-1, 1)),
        )
        producer = Producer(broker)
        for t in (0.01, 0.06, 0.11, 0.16):
            sim.at(t, lambda: producer.send("IN-DATA", json.dumps({"n": 0}).encode()))
        context.start(until=0.25)
        sim.run()
        durations = {m.processing_s for m in context.metrics if m.n_records}
        assert len(durations) > 1  # jitter produced distinct durations

