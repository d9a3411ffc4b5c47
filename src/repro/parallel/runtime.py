"""The shard runtime: worker processes, rounds, failure handling.

The one barrier-synchronous mechanism under both sharded engines
(:class:`~repro.parallel.engine.ShardedScenario`, :class:`~repro.city.
engine.CityEngine`): :class:`ShardPool` on the engine side,
:func:`serve` in each worker (docs/ARCHITECTURE.md, "Shard runtime").

A :meth:`~ShardPool.round` is *deliver → step → drain → route*: the
frames staged for a worker are pushed into its inbox immediately before
its Pipe message — the engine holds the worker's previous reply then,
so the worker is provably idle and the push cannot race its exact-count
drain — and every frame the workers emit is filed through the caller's
``route`` into the *next* round's staging.

Failure handling lives here and nowhere else: every receive is bounded
by :data:`RECV_TIMEOUT_S`; a worker that raised, died or went silent
surfaces as :class:`ParallelExecutionError` naming the shard and the
reply awaited; and leaving the pool, by any path, stops every process
and unlinks every shared-memory segment.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import socket
import struct
import time
import traceback
from dataclasses import dataclass
from functools import reduce
from typing import Callable, List, Optional, Sequence, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs.trace import SpanRecorder, enable_tracing
from repro.streaming.shm import RingFull, ShmRing

logger = logging.getLogger(__name__)

#: Per-direction shared-memory ring size.  One round's worth of
#: cross-shard traffic must fit; transfers dominate (a pickled vehicle
#: state with its latency lists is a few tens of KB late in a run).
DEFAULT_RING_CAPACITY = 1 << 22

#: Longest the engine waits for any one reply.  Rounds answer in
#: milliseconds; this only has to outlast the slowest build or result
#: on a loaded host.
RECV_TIMEOUT_S = 120.0

#: Grace for a worker to exit: after its result, after SIGTERM, and
#: again after SIGKILL.
JOIN_TIMEOUT_S = 5.0

#: ``route(source_shard, kind, buf)`` → destination shard, or ``None``
#: for a frame addressed to the engine itself (the caller keeps it).
Route = Callable[[int, int, bytes], Optional[int]]
#: ``handler(frames, *message_args)`` → ``(reply_tag, *payload)``.
Handler = Callable[..., tuple]


class ParallelExecutionError(RuntimeError):
    """A shard worker raised, died, went silent or overflowed a ring;
    the message names the shard and carries the worker's traceback when
    there is one."""


@dataclass(frozen=True)
class WindowTiming:
    """One barrier window's cost accounting."""

    barrier_s: float
    #: Per-shard CPU seconds spent inside the window's step(s).
    worker_cpu_s: Tuple[float, ...]
    #: Engine-side CPU spent delivering, collecting and routing.
    engine_cpu_s: float


def critical_path_cpu_s(
    build_cpu_s: Sequence[float], window_timings: Sequence[WindowTiming]
) -> float:
    """A sharded run's CPU critical path: slowest shard's build plus,
    per window, the slowest shard's step plus the engine's routing
    work.  On a host with at least ``n_shards`` free cores this is what
    the wall clock converges to; on a smaller host it is the honest
    speedup numerator (workers time-share cores, so measured wall
    degenerates to the CPU *sum*)."""
    total = max(build_cpu_s) if build_cpu_s else 0.0
    for timing in window_timings:
        total += max(timing.worker_cpu_s) + timing.engine_cpu_s
    return total


def total_worker_cpu_s(
    build_cpu_s: Sequence[float], window_timings: Sequence[WindowTiming]
) -> float:
    """CPU summed over every shard's build and windows (the
    work-inflation check)."""
    return sum(build_cpu_s) + sum(
        sum(timing.worker_cpu_s) for timing in window_timings
    )


@dataclass
class WorkerChannel:
    """A worker's three transports.  The engine keeps the mirror (the
    Pipe's other end, the same two rings) with ``process`` attached."""

    index: int
    conn: object  # multiprocessing.connection.Connection
    inbox: ShmRing
    outbox: ShmRing
    process: object = None


# ----------------------------------------------------------------------
# Engine side
# ----------------------------------------------------------------------
def _bound_reads(conn, seconds: float) -> None:
    """Make a blocked read on ``conn`` fail with ``BlockingIOError``
    after ``seconds``.  A duplex Pipe is a Unix socketpair, so the bound
    can be the kernel's own and a receive stays the single blocking
    ``read`` it was — a ``poll()`` per receive measured 10 % off
    ``city_sharded`` throughput (docs/ARCHITECTURE.md, "Shard runtime")."""
    whole, fraction = divmod(seconds, 1.0)
    with socket.socket(fileno=os.dup(conn.fileno())) as sock:
        sock.setsockopt(
            socket.SOL_SOCKET,
            socket.SO_RCVTIMEO,
            struct.pack("ll", int(whole), int(fraction * 1e6)),
        )


class ShardPool:
    """Worker processes plus the round protocol, as a context manager.

    ``target(channel, payload)`` is the worker entry point — a
    module-level function that calls :func:`serve` — with one picklable
    payload per worker.  Entering spawns the workers and waits for every
    ``ready``; leaving stops them and releases the rings.
    """

    def __init__(
        self,
        target: Callable[[WorkerChannel, object], None],
        payloads: Sequence[object],
        ring_capacity: int = DEFAULT_RING_CAPACITY,
    ) -> None:
        self._target = target
        self._payloads = list(payloads)
        self._ring_capacity = ring_capacity
        self._workers: List[WorkerChannel] = []
        self._rings: List[ShmRing] = []
        self._staged: List[List[Tuple[int, bytes]]] = [
            [] for _ in self._payloads
        ]
        # With a core per worker a round is broadcast.  On a smaller
        # host concurrency is pure oversubscription (time-slicing cache
        # thrash inflates per-worker CPU), so the same round is driven
        # worker-at-a-time: identical work and frames, and the CPU
        # critical path stays faithfully measured.
        self._oversubscribed = (os.cpu_count() or 1) < len(self._payloads)
        self._window_cpu_start = 0.0
        self.build_cpu_s: Tuple[float, ...] = ()
        self.window_timings: List[WindowTiming] = []
        #: Every worker's final metrics snapshot, merged (observing runs).
        self.obs: Optional[obs_metrics.RegistrySnapshot] = None

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "ShardPool":
        mp_ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        try:
            for index, payload in enumerate(self._payloads):
                parent_conn, child_conn = mp_ctx.Pipe()
                # Registered one at a time, so a failure creating the
                # second still releases the first.
                self._rings.append(ShmRing(self._ring_capacity))
                self._rings.append(ShmRing(self._ring_capacity))
                inbox, outbox = self._rings[-2:]
                process = mp_ctx.Process(
                    target=self._target,
                    args=(
                        WorkerChannel(index, child_conn, inbox, outbox),
                        payload,
                    ),
                    name=f"repro-shard-{index}",
                    daemon=True,
                )
                process.start()
                # The worker holds its own copy now.  Keeping ours open
                # would keep the Pipe writable after the worker dies, so
                # its death would never read as EOF here.
                child_conn.close()
                _bound_reads(parent_conn, RECV_TIMEOUT_S)
                self._workers.append(
                    WorkerChannel(index, parent_conn, inbox, outbox, process)
                )
            self.build_cpu_s = tuple(
                self._recv(worker, "ready")[1] for worker in self._workers
            )
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        """Stop every worker and unlink every segment; idempotent."""
        for worker in self._workers:
            worker.process.terminate()
        for worker in self._workers:
            worker.process.join(JOIN_TIMEOUT_S)
            if worker.process.is_alive():
                # SIGTERM stays pending on a stopped process; SIGKILL
                # does not.
                worker.process.kill()
                worker.process.join(JOIN_TIMEOUT_S)
            worker.conn.close()
        self._workers = []
        for ring in self._rings:
            name = ring.name
            try:
                ring.close()
                ring.unlink()
            except (BufferError, OSError):
                logger.exception("could not release shm segment %s", name)
        self._rings = []

    # -- protocol ------------------------------------------------------
    @property
    def staged_frames(self) -> int:
        """Frames routed but not yet delivered."""
        return sum(len(frames) for frames in self._staged)

    def round(
        self,
        message: tuple,
        expect: str,
        route: Route,
        deliver: bool = True,
        barrier_s: float = 0.0,
    ) -> List[tuple]:
        """Run one step on every worker; returns the replies by shard,
        each ``(expect, cpu_s, *payload)``.

        ``deliver=False`` is a second phase of the window the previous
        round opened: staging is not delivered (what the workers emit
        still joins it) and the cost — with the engine CPU the caller
        spent in between — extends that window's :class:`WindowTiming`.
        """
        if deliver:
            self._window_cpu_start = time.process_time()
            self.window_timings.append(
                WindowTiming(barrier_s, (0.0,) * len(self._workers), 0.0)
            )
        replies = self._exchange(message, expect, route, deliver)
        opened = self.window_timings[-1]
        self.window_timings[-1] = WindowTiming(
            opened.barrier_s,
            tuple(
                cpu + reply[1]
                for cpu, reply in zip(opened.worker_cpu_s, replies)
            ),
            time.process_time() - self._window_cpu_start,
        )
        return replies

    def collect(self, deliver: bool) -> List[object]:
        """Send ``collect``, return each worker's result, let them exit.
        With ``deliver`` the frames still staged ride along; without,
        they stay counted in :attr:`staged_frames`."""
        replies = self._exchange(("collect",), "result", None, deliver)
        for worker in self._workers:
            worker.process.join(JOIN_TIMEOUT_S)
        snapshots = [reply[3] for reply in replies if reply[3] is not None]
        if snapshots:
            self.obs = reduce(obs_metrics.RegistrySnapshot.merge, snapshots)
        return [reply[2] for reply in replies]

    def _exchange(
        self, message: tuple, expect: str, route: Optional[Route], deliver: bool
    ) -> List[tuple]:
        if deliver:
            # Swapped out before any worker runs: what this round emits
            # is applied next round whatever the drive order.
            inbound = self._staged
            self._staged = [[] for _ in self._workers]
        else:
            inbound = [()] * len(self._workers)
        replies: List[tuple] = []
        step = 1 if self._oversubscribed else len(self._workers)
        for start in range(0, len(self._workers), step):
            batch = self._workers[start : start + step]
            for worker in batch:
                self._send(worker, message, expect, inbound[worker.index])
            for worker in batch:
                replies.append(self._recv(worker, expect))
                if route is None:
                    continue
                # The worker flushed before replying, so its outbox is
                # complete the moment the reply lands.
                for kind, buf in worker.outbox.drain():
                    shard = route(worker.index, kind, buf)
                    if shard is not None:
                        self._staged[shard].append((kind, buf))
        return replies

    def _send(
        self, worker: WorkerChannel, message: tuple, expect: str, frames
    ) -> None:
        try:
            for kind, buf in frames:
                worker.inbox.push(kind, buf)
        except RingFull as exc:
            raise ParallelExecutionError(
                f"shard {worker.index}: inbox ring full delivering "
                f"{len(frames)} frames ahead of {message[0]!r} ({exc})"
            ) from exc
        try:
            worker.conn.send((*message, len(frames)))
        except OSError:
            raise self._lost(worker, expect, silent=False) from None

    def _recv(self, worker: WorkerChannel, expect: str) -> tuple:
        try:
            reply = worker.conn.recv()
        except (EOFError, OSError) as exc:
            # BlockingIOError: the read outlasted RECV_TIMEOUT_S.
            silent = isinstance(exc, BlockingIOError)
            raise self._lost(worker, expect, silent) from None
        if reply[0] == "error":
            raise ParallelExecutionError(
                f"shard {worker.index} failed awaiting {expect!r}:\n{reply[1]}"
            )
        if reply[0] != expect:
            raise ParallelExecutionError(
                f"shard {worker.index}: expected {expect!r}, got {reply[0]!r}"
            )
        return reply

    def _lost(
        self, worker: WorkerChannel, awaiting: str, silent: bool
    ) -> ParallelExecutionError:
        if silent and worker.process.is_alive():
            state = f"is alive but silent for {RECV_TIMEOUT_S:g} s"
        else:
            # EOF can beat the exit status by a moment; reap it.
            worker.process.join(JOIN_TIMEOUT_S)
            state = f"died (exitcode={worker.process.exitcode})"
        return ParallelExecutionError(
            f"shard {worker.index} {state}, awaiting {awaiting!r}"
        )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def enable_worker_observability(observing: bool):
    """Install a fresh metrics registry + span recorder.  Each worker
    is its own process, so the module-global active registry is
    per-shard.  Returns ``(registry, recorder)``, both ``None`` when not
    observing."""
    if not observing:
        return None, None
    registry = obs_metrics.MetricsRegistry()
    recorder = SpanRecorder()
    obs_metrics.enable(registry)
    enable_tracing(recorder)
    return registry, recorder


def serve(
    channel: WorkerChannel,
    build: Callable[[WorkerChannel, object, object], object],
    observing: bool,
) -> None:
    """A worker process's whole life: build, announce, serve rounds.

    ``build(channel, registry, recorder)`` constructs the shard; its
    ``handlers`` attribute maps each message op to a :data:`Handler`,
    called ``handler(frames, *args)``, whose ``(tag, *payload)`` goes
    back as ``(tag, cpu_s, *payload)``.  ``frames`` are borrowed
    zero-copy inbox views: the engine pushes strictly before the message
    and not again until after the reply, so they stay intact for the
    call — the handler decodes what it keeps into owned storage.
    ``collect`` is the last op; its reply also carries the registry's
    final snapshot.  Anything raised is shipped as ``("error",
    traceback)`` before the process dies of it.
    """
    try:
        build_start = time.process_time()
        registry, recorder = enable_worker_observability(observing)
        handlers = build(channel, registry, recorder).handlers
        channel.conn.send(("ready", time.process_time() - build_start))
        shard = str(channel.index)
        op = None
        while op != "collect":
            wait_start = time.perf_counter()
            op, *args, n_frames = channel.conn.recv()
            if registry is not None:
                registry.histogram(
                    "shard.barrier_wait_ms",
                    obs_metrics.WAIT_MS_EDGES,
                    shard=shard,
                ).observe((time.perf_counter() - wait_start) * 1e3)
            cpu_start = time.process_time()
            frames = channel.inbox.drain_views()
            try:
                # The engine pushes every frame before the message that
                # announces them, so one drain must account for all.
                if len(frames) != n_frames:
                    raise RuntimeError(
                        f"shard {channel.index}: {op!r} announced "
                        f"{n_frames} inbox frames, drained {len(frames)}"
                    )
                tag, *payload = handlers[op](frames, *args)
            finally:
                for _, view in frames:
                    view.release()
            if op == "collect":
                payload.append(
                    None if registry is None else registry.snapshot()
                )
            channel.conn.send((tag, time.process_time() - cpu_start, *payload))
        channel.inbox.close()
        channel.outbox.close()
    except BaseException:
        try:
            channel.conn.send(("error", traceback.format_exc()))
        except OSError:
            pass  # the engine is already gone
        raise
