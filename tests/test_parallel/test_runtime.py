"""The shard runtime on its own: ShardPool + serve with a toy worker.

No simulator here — the worker echoes what it received and emits what
it is told to, so each test reads one rule of the round protocol
straight off the replies.
"""

from functools import partial

import pytest

from repro.parallel import runtime
from repro.parallel.runtime import ParallelExecutionError, ShardPool, serve

KIND = 9


class _ToyWorker:
    """``("echo", emit)``: push ``emit[my_index]`` (a list of
    ``(target_shard, body)``) to the outbox, reply with the inbox."""

    def __init__(self, payload, channel, registry, recorder):
        if payload == "fail-build":
            raise ValueError("toy build failure")
        self.channel = channel
        self.handlers = {
            "echo": self._echo,
            "boom": self._boom,
            "collect": self._collect,
        }

    def _echo(self, frames, emit):
        for target, body in emit.get(self.channel.index, ()):
            self.channel.outbox.push(KIND, bytes([target]) + body)
        return "echoed", [bytes(view) for _, view in frames]

    def _boom(self, frames):
        raise ValueError("toy round failure")

    def _collect(self, frames):
        return "result", [bytes(view) for _, view in frames]


def toy_worker_main(channel, payload):
    serve(channel, partial(_ToyWorker, payload), observing=False)


def by_header(_source, _kind, buf):
    """Frames name their target shard in byte 0; 255 = the engine."""
    return None if buf[0] == 255 else buf[0]


def payloads(replies):
    return [reply[2] for reply in replies]


def toy_pool(n_workers=2, **kwargs):
    return ShardPool(toy_worker_main, [None] * n_workers, **kwargs)


class TestRound:
    def test_frames_arrive_with_the_next_round_not_before(self):
        with toy_pool() as pool:
            # Shard 0 runs first and emits for shard 1, which must not
            # see the frame in the same round under either drive order.
            first = pool.round(("echo", {0: [(1, b"hello")]}), "echoed", by_header)
            assert payloads(first) == [[], []]
            assert pool.staged_frames == 1
            second = pool.round(("echo", {}), "echoed", by_header)
            assert payloads(second) == [[], [b"\x01hello"]]
            assert pool.staged_frames == 0
            assert pool.collect(deliver=True) == [[], []]

    def test_route_none_keeps_the_frame_engine_side(self):
        kept = []

        def route(source, kind, buf):
            target = by_header(source, kind, buf)
            if target is None:
                kept.append((source, kind, buf))
            return target

        with toy_pool() as pool:
            pool.round(("echo", {1: [(255, b"metrics")]}), "echoed", route)
            assert kept == [(1, KIND, b"\xffmetrics")]
            assert pool.staged_frames == 0
            assert payloads(pool.round(("echo", {}), "echoed", route)) == [[], []]

    def test_deliver_false_leaves_staging_untouched(self):
        with toy_pool() as pool:
            pool.round(("echo", {0: [(1, b"a")]}), "echoed", by_header, barrier_s=7.0)
            held = pool.round(
                ("echo", {0: [(1, b"b")]}), "echoed", by_header, deliver=False
            )
            assert payloads(held) == [[], []]
            assert pool.staged_frames == 2
            # The second phase extends the window the first one opened.
            assert [t.barrier_s for t in pool.window_timings] == [7.0]
            assert len(pool.window_timings[0].worker_cpu_s) == 2
            delivered = pool.round(("echo", {}), "echoed", by_header)
            assert payloads(delivered) == [[], [b"\x01a", b"\x01b"]]
            assert len(pool.window_timings) == 2

    def test_collect_without_deliver_counts_what_is_left(self):
        with toy_pool() as pool:
            pool.round(("echo", {0: [(1, b"late")]}), "echoed", by_header)
            assert pool.collect(deliver=False) == [[], []]
            assert pool.staged_frames == 1

    @pytest.mark.parametrize("cores", [1, 64])
    def test_drive_order_does_not_change_replies(self, monkeypatch, cores):
        """Worker-at-a-time (fewer cores than workers) and broadcast
        must be indistinguishable from the replies."""
        monkeypatch.setattr(runtime.os, "cpu_count", lambda: cores)
        script = [
            {0: [(1, b"a"), (2, b"b")], 2: [(0, b"c")]},
            {1: [(0, b"d"), (1, b"self")]},
            {},
        ]
        with toy_pool(3) as pool:
            assert pool._oversubscribed == (cores < 3)
            seen = [
                payloads(pool.round(("echo", emit), "echoed", by_header))
                for emit in script
            ]
            assert pool.build_cpu_s and len(pool.build_cpu_s) == 3
        assert seen == [
            [[], [], []],
            [[b"\x00c"], [b"\x01a"], [b"\x02b"]],
            [[b"\x00d"], [b"\x01self"], []],
        ]


class TestFailures:
    def test_build_failure_surfaces_traceback(self):
        pool = ShardPool(toy_worker_main, [None, "fail-build"])
        with pytest.raises(ParallelExecutionError) as raised:
            pool.__enter__()
        message = str(raised.value)
        assert "shard 1" in message and "'ready'" in message
        assert "Traceback" in message and "toy build failure" in message

    def test_round_failure_surfaces_traceback(self):
        with toy_pool() as pool:
            with pytest.raises(ParallelExecutionError) as raised:
                pool.round(("boom",), "never", by_header)
        message = str(raised.value)
        assert "shard 0" in message and "'never'" in message
        assert "Traceback" in message and "toy round failure" in message

    def test_unexpected_reply_tag_is_an_error(self):
        with toy_pool() as pool:
            with pytest.raises(ParallelExecutionError, match="expected 'ticked'"):
                pool.round(("echo", {}), "ticked", by_header)

    def test_frame_count_mismatch_raises_in_the_worker(self):
        with toy_pool() as pool:
            # A frame the protocol did not announce: pushed behind the
            # pool's back, so the next message says 0 and the drain
            # finds 1.
            pool._workers[1].inbox.push(KIND, b"stray")
            with pytest.raises(ParallelExecutionError) as raised:
                pool.round(("echo", {}), "echoed", by_header)
        message = str(raised.value)
        assert "shard 1" in message and "Traceback" in message
        assert "announced 0 inbox frames, drained 1" in message

    def test_ring_full_on_delivery_names_the_shard(self):
        body = b"x" * 40  # 46 bytes framed: one fits a 64-byte ring, two don't
        with toy_pool(ring_capacity=64) as pool:
            pool.round(("echo", {0: [(1, body)]}), "echoed", by_header)
            pool.round(
                ("echo", {0: [(1, body)]}), "echoed", by_header, deliver=False
            )
            with pytest.raises(
                ParallelExecutionError, match="shard 1: inbox ring full"
            ):
                pool.round(("echo", {}), "echoed", by_header)
