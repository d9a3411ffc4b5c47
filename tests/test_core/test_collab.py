"""Unit tests for the bandwidth-adaptive CO-DATA plane.

Covers the three layers in isolation — gating decisions against the
last-sent baseline, the quantized delta codec (bit-exact round trips,
epoch discipline, stale drops), and priority banding — plus a small
refresh-mode corridor run exercising them together.
"""

import math

import pytest

from repro.core.collab import (
    BAND_REFRESH,
    BAND_URGENT,
    CollabConfig,
    CollabPlane,
    SummaryRxCache,
)
from repro.core.collaborative import prior_logit_shift
from repro.core.features import PredictionSummary
from repro.core.wire import (
    SUMMARY_DELTA,
    SUMMARY_FULL,
    SUMMARY_FRAME_MAGIC,
    SummaryFrameSerde,
    decode_summary_frame,
    encode_summary_delta,
    encode_summary_full,
    quantize_summary,
    apply_summary_delta,
    summary_frame_car,
    summary_payload_from_units,
    summary_struct_serde,
)
from repro.dataset.schema import ABNORMAL, NORMAL
from repro.streaming.serde import SerdeError


def summary(car=5, p=0.9, n=4, cls=NORMAL, rd=3, ts=1.25):
    return PredictionSummary(
        car_id=car,
        mean_normal_prob=p,
        n_predictions=n,
        last_class=cls,
        from_road_id=rd,
        timestamp=ts,
    )


class TestCollabConfig:
    def test_default_is_disabled(self):
        assert not CollabConfig().enabled

    @pytest.mark.parametrize(
        "overrides",
        [
            {"mode": "refresh"},
            {"gate_threshold": 0.2},
            {"delta_encoding": True},
            {"priority": True},
        ],
    )
    def test_any_adaptive_feature_enables(self, overrides):
        assert CollabConfig(**overrides).enabled

    @pytest.mark.parametrize(
        "overrides",
        [
            {"mode": "broadcast"},
            {"refresh_interval_s": 0.0},
            {"gate_threshold": -0.1},
            {"max_silence_s": 0.0},
            {"urgent_rate_bps": 0.0},
            {"refresh_rate_bps": -1.0},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            CollabConfig(**overrides)

    def test_max_silence_resolution_ladder(self):
        explicit = CollabConfig(max_silence_s=3.0)
        assert explicit.resolved_max_silence_s(10.0) == 3.0
        derived = CollabConfig(refresh_interval_s=0.5)
        assert derived.resolved_max_silence_s(10.0) == pytest.approx(8.0)
        assert derived.resolved_max_silence_s(None) == pytest.approx(2.0)


class TestPriorLogitShift:
    def test_zero_at_no_movement(self):
        assert prior_logit_shift(0.7, 0.7) == 0.0

    def test_symmetric_and_positive(self):
        up = prior_logit_shift(0.5, 0.9)
        down = prior_logit_shift(0.9, 0.5)
        assert up == pytest.approx(down)
        assert up > 0.0

    def test_scales_with_history_weight(self):
        full = prior_logit_shift(0.4, 0.8, history_weight=1.0)
        half = prior_logit_shift(0.4, 0.8, history_weight=0.5)
        assert half == pytest.approx(full / 2.0)

    def test_extreme_probabilities_finite(self):
        assert math.isfinite(prior_logit_shift(0.0, 1.0))


class TestDeltaCodec:
    def test_quantized_round_trip_is_exact(self):
        payload = summary(p=0.123457, ts=98.765).to_payload()
        units = quantize_summary(payload)
        assert summary_payload_from_units(units) == payload

    def test_delta_reconstructs_bit_exactly(self):
        old = summary(p=0.911111, n=4, ts=1.0).to_payload()
        new = summary(p=0.122222, n=9, cls=ABNORMAL, rd=8, ts=2.5).to_payload()
        frame = decode_summary_frame(
            encode_summary_delta(3, quantize_summary(old), quantize_summary(new))
        )
        assert frame.kind == SUMMARY_DELTA
        assert frame.epoch == 3
        assert frame.car == new["car"]
        rebuilt = apply_summary_delta(quantize_summary(old), frame.deltas)
        assert summary_payload_from_units(rebuilt) == new

    def test_negative_deltas_survive(self):
        old = summary(p=0.9, rd=100, ts=50.0).to_payload()
        new = summary(p=0.1, rd=2, ts=0.001).to_payload()
        frame = decode_summary_frame(
            encode_summary_delta(0, quantize_summary(old), quantize_summary(new))
        )
        rebuilt = apply_summary_delta(quantize_summary(old), frame.deltas)
        assert summary_payload_from_units(rebuilt) == new

    def test_unchanged_summary_is_header_plus_car_only(self):
        units = quantize_summary(summary().to_payload())
        payload = encode_summary_delta(0, units, units)
        frame = decode_summary_frame(payload)
        assert all(delta is None for delta in frame.deltas)
        # header (4) + car i64 (8) + empty bitmap (1)
        assert len(payload) == 13

    def test_delta_smaller_than_full(self):
        serde = summary_struct_serde()
        old = summary(p=0.5, ts=1.0).to_payload()
        new = summary(p=0.52, ts=1.5).to_payload()
        delta = encode_summary_delta(
            0, quantize_summary(old), quantize_summary(new)
        )
        full = encode_summary_full(serde.serialize(new), 0)
        assert len(delta) < len(full)

    def test_car_mismatch_rejected(self):
        with pytest.raises(ValueError):
            encode_summary_delta(
                0,
                quantize_summary(summary(car=1).to_payload()),
                quantize_summary(summary(car=2).to_payload()),
            )

    def test_truncated_frame_raises_serde_error(self):
        units = quantize_summary(summary(p=0.2).to_payload())
        changed = quantize_summary(summary(p=0.8).to_payload())
        payload = encode_summary_delta(0, units, changed)
        with pytest.raises(SerdeError):
            decode_summary_frame(payload[:-1])

    def test_frame_serde_passes_raw_payloads_through(self):
        serde = SummaryFrameSerde(summary_struct_serde())
        payload_dict = summary().to_payload()
        raw = summary_struct_serde().serialize(payload_dict)
        assert raw[0] != SUMMARY_FRAME_MAGIC
        assert serde.deserialize(raw) == payload_dict
        framed = encode_summary_full(raw, 7)
        frame = serde.deserialize(framed)
        assert frame.kind == SUMMARY_FULL
        assert frame.epoch == 7

    def test_summary_frame_car_all_wire_forms(self):
        serde = summary_struct_serde()
        payload_dict = summary(car=42).to_payload()
        raw = serde.serialize(payload_dict)
        framed_full = encode_summary_full(raw, 0)
        units = quantize_summary(payload_dict)
        changed = quantize_summary(summary(car=42, p=0.1).to_payload())
        framed_delta = encode_summary_delta(0, units, changed)
        for wire in (raw, framed_full, framed_delta):
            assert summary_frame_car(wire, serde) == 42


def make_plane(**overrides):
    defaults = dict(mode="refresh", gate_threshold=0.3, delta_encoding=True)
    defaults.update(overrides)
    return CollabPlane(
        CollabConfig(**defaults), summary_struct_serde(), history_weight=0.5
    )


class TestGating:
    def test_first_contact_always_sends_full(self):
        plane = make_plane()
        plan = plane.prepare("peer", summary(), now=0.0)
        assert plan is not None
        assert plan.kind == "full"

    def test_small_move_is_gated(self):
        plane = make_plane()
        plane.prepare("peer", summary(p=0.9), now=0.0)
        plan = plane.prepare("peer", summary(p=0.901), now=0.5)
        assert plan is None
        assert plane.msgs_gated == 1
        assert plane.bytes_suppressed > 0

    def test_large_move_sends_delta_as_urgent(self):
        plane = make_plane()
        plane.prepare("peer", summary(p=0.9), now=0.0)
        plan = plane.prepare("peer", summary(p=0.2), now=0.5)
        assert plan is not None
        assert plan.kind == "delta"
        assert plan.band == BAND_URGENT

    def test_class_flip_bypasses_threshold(self):
        plane = make_plane(gate_threshold=1e9)
        plane.prepare("peer", summary(cls=NORMAL), now=0.0)
        plan = plane.prepare("peer", summary(cls=ABNORMAL), now=0.5)
        assert plan is not None
        assert plan.band == BAND_URGENT

    def test_staleness_override_sends_refresh_band(self):
        plane = make_plane(max_silence_s=2.0)
        plane.prepare("peer", summary(p=0.9), now=0.0)
        assert plane.prepare("peer", summary(p=0.9), now=1.0) is None
        plan = plane.prepare("peer", summary(p=0.9), now=2.5)
        assert plan is not None
        assert plan.band == BAND_REFRESH

    def test_zero_threshold_sends_everything(self):
        plane = make_plane(gate_threshold=0.0)
        plane.prepare("peer", summary(p=0.9), now=0.0)
        assert plane.prepare("peer", summary(p=0.9000001), now=0.1) is not None
        assert plane.msgs_gated == 0

    def test_handover_never_gated_and_resyncs(self):
        plane = make_plane(gate_threshold=1e9)
        plane.prepare("peer", summary(p=0.9), now=0.0)
        plan = plane.prepare("peer", summary(p=0.9), now=0.1, handover=True)
        assert plan is not None
        assert plan.kind == "full"
        assert plan.band == BAND_URGENT

    def test_mark_lost_forces_full_resync(self):
        plane = make_plane(gate_threshold=0.0)
        plane.prepare("peer", summary(p=0.9), now=0.0)
        plane.mark_lost("peer", 5)
        plan = plane.prepare("peer", summary(p=0.8), now=0.5)
        assert plan.kind == "full"
        follow_up = plane.prepare("peer", summary(p=0.7), now=1.0)
        assert follow_up.kind == "delta"

    def test_forget_car_restarts_the_stream(self):
        plane = make_plane(gate_threshold=0.0)
        plane.prepare("peer", summary(), now=0.0)
        plane.forget_car(5)
        plan = plane.prepare("peer", summary(), now=0.5)
        assert plan.kind == "full"

    def test_streams_are_per_peer(self):
        plane = make_plane(gate_threshold=1e9)
        plane.prepare("a", summary(p=0.9), now=0.0)
        # Peer b has no baseline yet: first contact sends despite the
        # absurd threshold.
        assert plane.prepare("b", summary(p=0.9), now=0.0) is not None

    def test_gating_only_config_stays_unframed(self):
        plane = make_plane(delta_encoding=False)
        plan = plane.prepare("peer", summary(), now=0.0)
        assert plan.kind == "raw"
        assert plan.payload[0] != SUMMARY_FRAME_MAGIC

    def test_byte_accounting(self):
        plane = make_plane(gate_threshold=0.0)
        first = plane.prepare("peer", summary(p=0.9), now=0.0)
        second = plane.prepare("peer", summary(p=0.5), now=0.5)
        assert plane.bytes_sent == len(first.payload) + len(second.payload)
        assert plane.msgs_sent_total == 2
        assert plane.fulls_sent == 1
        assert plane.deltas_sent == 1
        assert sum(plane.frame_size_counts.values()) == 2


class TestSummaryRxCache:
    def _frames(self, plane, *plans):
        serde = SummaryFrameSerde(summary_struct_serde())
        return [decode_summary_frame(plan.payload) for plan in plans]

    def test_full_then_delta_resolves(self):
        plane = make_plane(gate_threshold=0.0)
        cache = SummaryRxCache(summary_struct_serde())
        full = plane.prepare("peer", summary(p=0.9, ts=1.0), now=0.0)
        delta = plane.prepare("peer", summary(p=0.5, ts=2.0), now=0.5)
        assert cache.resolve(decode_summary_frame(full.payload)) is not None
        resolved = cache.resolve(decode_summary_frame(delta.payload))
        assert resolved is not None
        assert resolved.mean_normal_prob == 0.5
        assert resolved.timestamp == 2.0

    def test_delta_without_baseline_is_stale(self):
        plane = make_plane(gate_threshold=0.0)
        cache = SummaryRxCache(summary_struct_serde())
        plane.prepare("peer", summary(p=0.9), now=0.0)
        delta = plane.prepare("peer", summary(p=0.5), now=0.5)
        assert cache.resolve(decode_summary_frame(delta.payload)) is None

    def test_epoch_mismatch_is_stale_until_resync(self):
        plane = make_plane(gate_threshold=0.0)
        cache = SummaryRxCache(summary_struct_serde())
        full = plane.prepare("peer", summary(p=0.9), now=0.0)
        cache.resolve(decode_summary_frame(full.payload))
        # Loss bumps the sender to a new epoch full; an old-epoch delta
        # hand-built against the stale baseline must not apply after it.
        plane.mark_lost("peer", 5)
        resync = plane.prepare("peer", summary(p=0.8), now=0.5)
        assert resync.kind == "full"
        new_epoch = decode_summary_frame(resync.payload).epoch
        cache.resolve(decode_summary_frame(resync.payload))
        old_units = quantize_summary(summary(p=0.8).to_payload())
        new_units = quantize_summary(summary(p=0.3).to_payload())
        wrong_epoch = (new_epoch + 1) % 256
        stale = decode_summary_frame(
            encode_summary_delta(wrong_epoch, old_units, new_units)
        )
        assert cache.resolve(stale) is None
        good = decode_summary_frame(
            encode_summary_delta(new_epoch, old_units, new_units)
        )
        assert cache.resolve(good) is not None


class TestRefreshCorridor:
    @pytest.fixture(scope="class")
    def refresh_run(self, labeled_dataset):
        from repro.core.scenario import ScenarioBuilder

        scenario = (
            ScenarioBuilder()
            .vehicles(6)
            .duration(3.0)
            .seed(7)
            .handover(0.25)
            .serde("struct")
            .observe()
            .collab(
                CollabConfig(
                    mode="refresh",
                    gate_threshold=0.3,
                    delta_encoding=True,
                    priority=True,
                )
            )
            .corridor(motorways=2, dataset=labeled_dataset)
        )
        result = scenario.run()
        return result, scenario

    def test_link_receives_refresh_summaries(self, refresh_run, audit_invariants):
        result, scenario = refresh_run
        audit_invariants(scenario)
        link = result.rsu_metrics["rsu-mw-link"]
        assert link.summaries_received > 0

    def test_plane_metered(self, refresh_run):
        result, scenario = refresh_run
        total_sent = sum(
            m.co_bytes_sent for m in result.rsu_metrics.values()
        )
        total_gated = sum(
            m.co_msgs_gated for m in result.rsu_metrics.values()
        )
        assert total_sent > 0
        assert total_gated > 0

    def test_both_priority_bands_used(self, refresh_run):
        _, scenario = refresh_run
        bands = {BAND_URGENT: 0, BAND_REFRESH: 0}
        for rsu in scenario.rsus.values():
            if rsu.collab is not None:
                for band, count in rsu.collab.msgs_sent.items():
                    bands[band] += count
        assert bands[BAND_URGENT] > 0
        assert bands[BAND_REFRESH] > 0

    def test_co_shaper_attached_to_motorways(self, refresh_run):
        _, scenario = refresh_run
        for name, rsu in scenario.rsus.items():
            if name == "rsu-mw-link":
                continue
            assert rsu.co_shaper is not None

    def test_obs_counters_folded(self, refresh_run):
        result, _ = refresh_run
        snapshot = result.obs
        assert snapshot is not None
        # Snapshot keys are (name, ((label, value), ...)) tuples.
        assert any(
            key[0] == "rsu.co_bytes_sent" and value > 0
            for key, value in snapshot.counters.items()
        )
        assert any(
            key[0] == "rsu.co_msgs_gated" and value > 0
            for key, value in snapshot.counters.items()
        )
        assert any(
            key[0] == "rsu.co_frame_bytes" for key in snapshot.histograms
        )

    def test_budget_sweep_knee_holds_the_smoke_floor(self):
        """The comm-budget frontier on a six-second corridor: the knee
        spends at least 2.5x fewer CO-DATA bytes per detected frame
        than send-everything at no more than 1 pp of link accuracy,
        over five gated points, every audit green.  The run is
        deterministic (3.446x at +0.00 pp), so the floor carries no
        noise margin."""
        from repro.core.system import default_training_dataset
        from repro.experiments.collab_budget import collab_budget_sweep

        sweep = collab_budget_sweep(
            n_vehicles_per_rsu=12,
            duration_s=6.0,
            seed=7,
            budgets=(
                ("tau=0.15", 0.15, None),
                ("tau=0.30", 0.30, None),
                ("tau=0.30/silence=3s", 0.30, 3.0),
                ("tau=0.60/silence=3s", 0.60, 3.0),
                ("tau=1.00/silence=4s", 1.00, 4.0),
            ),
            accuracy_budget_pp=1.0,
            dataset=default_training_dataset(seed=11, n_cars=40),
        )
        assert sweep.audits_ok
        assert len(sweep.points) - 1 >= 5
        assert sweep.knee_accuracy_loss_pp <= 1.0
        assert sweep.knee_byte_reduction >= 2.5
