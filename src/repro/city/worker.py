"""City shard worker: the per-process side of the sharded city engine.

Handlers for :func:`repro.parallel.runtime.serve`, which runs the loop
(it hands each handler the round's inbox frames, times it — the
``cpu_s`` below — and ships any error back as a traceback):

- ``("tick", index, now, inline)`` — install the frames (RSU-state
  frames first, then move bundles), run the tick over owned RSUs.  With
  ``inline`` true (every tick that cannot change ownership — the shard
  map is fixed, so moves can be routed immediately), also partition and
  push the produced moves before replying ``("ticked", cpu_s,
  concurrent)`` — one Pipe round trip per tick carrying one scalar.
  With ``inline`` false (a rebalance-decision tick, i.e. the window
  boundary) the moves are *held* for the flush phase and the reply is
  ``("ticked", cpu_s, concurrent, indices, window_counts)``: the
  per-RSU loads summed worker-side over the closing window, which is
  exactly what the rebalancer consumes.  Ownership is constant within
  a window, so the local accumulate is well-defined.
- ``("flush", reassignments)`` — rebalance-decision ticks only: apply
  RSU→shard reassignments (the loser packs the RSU, RNG state
  included, into a FRAME_RSU_STATE addressed to the new owner), then
  partition the held moves by destination shard under the *updated*
  map and push one FRAME_MIGRATION per destination.  Reply
  ``("flushed", cpu_s)``.  Splitting tick and flush on these ticks is
  what makes a rebalance atomic: ownership changes are decided from
  the tick's loads and applied before any of that tick's moves are
  routed, so no frame is ever addressed to a stale owner and no RSU
  migrates mid-tick.
- ``("collect",)`` — count (not apply) the leftover frames' rows as
  in-flight, reply ``("result", cpu_s, payload)``.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Tuple

import numpy as np

from repro.city.kernel import FusedShardState, MoveBundle
from repro.city.model import CitySpec
from repro.obs.trace import SpanRecorder, enable_tracing
from repro.city.topology import CityTopology
from repro.parallel.barrier import (
    FRAME_MIGRATION,
    FRAME_RSU_STATE,
    decode_shard_payload,
    encode_shard_payload,
)
from repro.parallel.runtime import Handler, WorkerChannel, serve


@dataclass
class CityWorkerContext:
    n_shards: int
    spec: CitySpec
    topology: CityTopology
    #: Global RSU indices this shard owns at start.
    owned: Tuple[int, ...]
    #: Initial RSU index → shard map (identical in every worker).
    shard_of: Tuple[int, ...]


def city_worker_main(channel: WorkerChannel, ctx: CityWorkerContext) -> None:
    # Same policy as the serial engine loop: the tick path allocates
    # heavily but cycle-free, so cyclic GC is pure pause time — and a
    # pause in any one worker lands on the tick's critical path.
    gc.disable()
    serve(channel, partial(_CityWorker, ctx), ctx.spec.observability)


class _CityWorker:
    def __init__(
        self, ctx: CityWorkerContext, channel: WorkerChannel, registry, recorder
    ) -> None:
        self.channel = channel
        self.handlers: Dict[str, Handler] = {
            "tick": self._tick,
            "flush": self._flush,
            "collect": self._collect,
        }
        self.ctx = ctx
        self.index = channel.index
        self.obs_registry, self.obs_recorder = registry, recorder
        if ctx.spec.profile and self.obs_recorder is not None:
            # The default span ring is sized for corridor runs; a city
            # profile needs every phase span of every tick (up to 8) to
            # survive until the end-of-run fold.
            self.obs_recorder = enable_tracing(
                SpanRecorder(capacity=8 * ctx.spec.n_ticks + 8)
            )
        self.shard = FusedShardState(ctx.spec, ctx.topology, ctx.owned)
        self.shard_of = np.asarray(ctx.shard_of, dtype=np.int64)
        #: Bundles destined to RSUs we own, buffered across the tick
        #: boundary (the intra-shard analogue of a migration frame).
        self.pending_local: List[MoveBundle] = []
        #: The last tick's moves, held between "tick" and "flush".
        self.held_moves: List[MoveBundle] = []
        #: Per-RSU load sums over the current rebalance window (reset at
        #: every decision tick, right after they are shipped).
        self.win_indices = None
        self.win_counts = None
        self.moves_produced = 0

    # ------------------------------------------------------------------
    def _tick(self, frames, tick_index: int, now: float, inline: bool) -> tuple:
        inbound = self.pending_local
        self.pending_local = []
        # Install adopted RSUs before admitting any moves: a frame in
        # the same batch may carry vehicles bound for the new arrival.
        bundles: List[MoveBundle] = []
        for kind, buf in frames:
            _, payload = decode_shard_payload(buf)
            if kind == FRAME_RSU_STATE:
                self.shard.adopt(payload)
            elif kind == FRAME_MIGRATION:
                bundles.append(payload)
            else:  # pragma: no cover - protocol error
                raise RuntimeError(f"unexpected frame kind {kind}")
        inbound = inbound + bundles
        moves, (indices, counts) = self.shard.tick(tick_index, now, inbound)
        self.held_moves = moves
        self.moves_produced += sum(int(bundle[0].size) for bundle in moves)
        concurrent = int(counts.sum())
        # Ownership only changes across a window boundary, so within a
        # window the index vector is the *same cached array object*
        # (FusedShardState rebuilds it only on adopt/detach) and the loads
        # accumulate with one vector add.
        if indices is not self.win_indices:
            self.win_indices = indices
            self.win_counts = counts.copy()
        else:
            self.win_counts += counts
        if inline:
            # No ownership change possible this tick: route immediately
            # and fold the whole tick into one scalar-carrying reply.
            self._route_held([])
            return "ticked", concurrent
        window_indices, window_counts = self.win_indices, self.win_counts
        self.win_indices = None
        self.win_counts = None
        return "ticked", concurrent, window_indices, window_counts

    def _flush(self, _frames, reassignments: List[Tuple[int, int]]) -> tuple:
        self._route_held(reassignments)
        return ("flushed",)

    def _route_held(self, reassignments: List[Tuple[int, int]]) -> None:
        for rsu_index, to_shard in reassignments:
            if (
                self.shard_of[rsu_index] == self.index
                and rsu_index in self.shard.rsus
            ):
                packed = self.shard.detach(rsu_index)
                self.channel.outbox.push(
                    FRAME_RSU_STATE, encode_shard_payload(to_shard, packed)
                )
            self.shard_of[rsu_index] = to_shard

        moves = self.held_moves
        self.held_moves = []
        if moves:
            dst = np.concatenate([b[0] for b in moves])
            src = np.concatenate([b[1] for b in moves])
            ids = np.concatenate([b[2] for b in moves])
            depart = np.concatenate([b[3] for b in moves])
            leave = np.concatenate([b[4] for b in moves])
            shard_ids = self.shard_of[dst]
            # One stable sort splits the rows into per-shard contiguous
            # slices (cheaper than a mask + fancy-index per shard, and
            # row order within a shard is preserved, so the receiver's
            # (dst, src) lexsort sees the same bundle order either way).
            order = np.argsort(shard_ids, kind="stable")
            dst, src, ids = dst[order], src[order], ids[order]
            depart, leave = depart[order], leave[order]
            shard_sorted = shard_ids[order]
            bounds = np.searchsorted(
                shard_sorted, np.arange(self.ctx.n_shards + 1)
            )
            for shard in range(self.ctx.n_shards):
                lo, hi = int(bounds[shard]), int(bounds[shard + 1])
                if lo == hi:
                    continue
                bundle = (
                    dst[lo:hi],
                    src[lo:hi],
                    ids[lo:hi],
                    depart[lo:hi],
                    leave[lo:hi],
                )
                if shard == self.index:
                    self.pending_local.append(bundle)
                else:
                    self.channel.outbox.push(
                        FRAME_MIGRATION, encode_shard_payload(shard, bundle)
                    )

    # ------------------------------------------------------------------
    def _collect(self, frames) -> tuple:
        in_flight = sum(int(b[0].size) for b in self.pending_local)
        for kind, buf in frames:
            _, payload = decode_shard_payload(buf)
            if kind == FRAME_MIGRATION:
                in_flight += int(payload[0].size)
            elif kind == FRAME_RSU_STATE:
                # A final-tick rebalance landed here; adopt so the RSU
                # is reported exactly once, by its new owner.
                self.shard.adopt(payload)
        if self.obs_registry is not None:
            self.obs_registry.gauge("city.shard_rsus", shard=str(self.index)).set(
                len(self.shard.rsus)
            )
            if self.ctx.spec.profile and self.obs_recorder is not None:
                self.obs_recorder.fold_into(self.obs_registry)
        return "result", {
            "rsus": self.shard.rsu_results(),
            "produced": self.moves_produced,
            "applied": self.shard.moves_applied,
            "in_flight": in_flight,
        }
