"""Barrier grid and frame codec invariants."""

import pytest

from repro.parallel.barrier import (
    FRAME_SUMMARY,
    batch_barriers,
    decode_summary,
    decode_transfer,
    encode_summary,
    encode_transfer,
    frame_target,
    sync_schedule,
)
from repro.simkernel.simulator import Simulator


class TestBatchBarriers:
    def test_matches_simulator_tick_accumulation(self):
        """The whole determinism story rests on this: barriers must sit
        exactly ON the (float-drifted) tick instants of every RSU."""
        sim = Simulator()
        ticks = []
        sim.every(0.05, lambda: ticks.append(sim.now), until=10.0)
        sim.run()
        grid = batch_barriers(0.05, 10.0)
        assert grid == ticks
        # And they are NOT the naive multiples — the drift is real.
        naive = [(k + 1) * 0.05 for k in range(len(grid))]
        assert grid != naive

    def test_strictly_inside_duration(self):
        grid = batch_barriers(0.05, 1.0)
        assert all(0 < t < 1.0 for t in grid)
        assert grid == sorted(grid)

    def test_sync_schedule_unions_handovers_and_drain(self):
        schedule = sync_schedule(0.05, 1.0, [0.5, 0.123])
        assert schedule[-1] == 1.5  # final drain barrier
        assert 0.123 in schedule
        assert 0.5 in schedule
        assert schedule == sorted(set(schedule))

    def test_sync_schedule_ignores_late_handovers(self):
        schedule = sync_schedule(0.05, 1.0, [2.0])
        assert 2.0 not in schedule


class TestFrameCodec:
    def test_summary_round_trip(self):
        buf = encode_summary("rsu-mw-link", 1.25, b"\xc3payload")
        assert frame_target(buf) == "rsu-mw-link"
        assert decode_summary(buf) == ("rsu-mw-link", 1.25, b"\xc3payload")

    def test_transfer_round_trip(self):
        state = {"car_id": 7, "stats": [1.0, 2.0], "pool": "link"}
        buf = encode_transfer("rsu-mw-link", state)
        assert frame_target(buf) == "rsu-mw-link"
        target, decoded = decode_transfer(buf)
        assert target == "rsu-mw-link"
        assert decoded == state

    def test_target_peek_needs_no_body_decode(self):
        # The engine routes on the header prefix alone — same accessor
        # for both kinds.
        for buf in (
            encode_summary("a", 0.0, b""),
            encode_transfer("ccc", {}),
        ):
            assert frame_target(buf) in ("a", "ccc")

    def test_overlong_rsu_name_rejected(self):
        with pytest.raises(ValueError):
            encode_summary("x" * 256, 0.0, b"")

    def test_kind_constant_is_stable(self):
        assert FRAME_SUMMARY == 1  # wire-compat: do not renumber
