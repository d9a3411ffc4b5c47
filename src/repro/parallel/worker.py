"""The shard worker process: one simulator, a slice of the corridor.

Each worker materializes only its own RSUs and vehicle groups (same
identities, same RNG stream names as the single-process build), runs
its local :class:`~repro.simkernel.simulator.Simulator` window by
window under the engine's conservative barrier protocol, and exchanges
exactly two kinds of frames with other shards:

- **CO-DATA summaries** a local RSU forwarded to a non-local neighbour.
  The wired link toward the remote RSU is real and lives in *this*
  simulator — latency and queuing are paid here — but its far end is a
  :class:`RemoteRsuProxy` whose broker captures the produce instead of
  appending it.  The engine ships the capture at the next barrier and
  the owning shard injects it with the original delivery timestamp,
  strictly before the tick at that barrier — so the summary lands in
  the same micro-batch the serial engine would put it in.
- **Vehicle transfers** (cross-shard handover): the full
  :meth:`VehicleNode.detach` state, applied on the owning shard at the
  handover instant's barrier clock.  Telemetry of the old road that
  was still on its way is abandoned, as in the serial handover, so no
  frame follows the vehicle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Tuple

from repro.core.features import CO_DATA
from repro.core.system import (
    ScenarioBundle,
    TestbedScenario,
    collect_rsu_metrics,
)
from repro.core.topology import CorridorTopology, HandoverSpec
from repro.core.wire import topic_serdes
from repro.obs.collect import finalize_scenario
from repro.streaming.serde import JsonSerde
from repro.parallel.barrier import (
    FRAME_METRICS,
    FRAME_SUMMARY,
    FRAME_TRANSFER,
    decode_summary,
    decode_transfer,
    encode_summary,
    encode_transfer,
    summary_car_ids,
)
from repro.parallel.runtime import Handler, WorkerChannel, serve


class _CaptureBroker:
    """Broker stand-in on the far end of a cross-shard wired link.

    Only :meth:`produce` is ever reached (an RSU's ``handover`` deliver
    callback); instead of appending, it records the produce so the
    worker can ship it at the next barrier.
    """

    def __init__(self, rsu_name: str, sink: List[Tuple[str, str, bytes, float]]):
        self._rsu_name = rsu_name
        self._sink = sink

    def produce(self, topic, value, key=None, partition=None, timestamp=None, **_):
        self._sink.append((self._rsu_name, topic, value, timestamp))
        return None


class RemoteRsuProxy:
    """A non-local RSU, as seen by this shard's topology wiring."""

    def __init__(self, name: str, sink: List[Tuple[str, str, bytes, float]]):
        self.name = name
        self.broker = _CaptureBroker(name, sink)

    def __repr__(self) -> str:
        return f"RemoteRsuProxy(name={self.name!r})"


@dataclass
class ShardContext:
    """Everything one worker process needs, passed at spawn."""

    spec: object  # ScenarioSpec
    topology: CorridorTopology
    bundle: ScenarioBundle
    local: Tuple[str, ...]


def shard_worker_main(channel: WorkerChannel, ctx: ShardContext) -> None:
    """Process entry point: build the shard, then serve barrier steps."""
    serve(channel, partial(_ShardWorker, ctx), ctx.spec.observability)


class _ShardWorker:
    def __init__(
        self, ctx: ShardContext, channel: WorkerChannel, registry, recorder
    ) -> None:
        self.channel = channel
        self.handlers: Dict[str, Handler] = {
            "step": self._step,
            "collect": self._collect,
        }
        self.ctx = ctx
        self.spec = ctx.spec
        #: (rsu_name, topic, payload, timestamp) produces captured on
        #: cross-shard links, shipped at the next flush.
        self.captured: List[Tuple[str, str, bytes, float]] = []
        #: Detached-vehicle states awaiting shipment.
        self.transfer_out: List[dict] = []
        self._proxies: Dict[str, RemoteRsuProxy] = {}
        self.obs_registry, self.obs_recorder = registry, recorder

        scenario = TestbedScenario(ctx.spec)
        scenario.materialize(
            ctx.topology,
            ctx.bundle,
            local=set(ctx.local),
            remote_rsu=self._remote_rsu,
        )
        self.scenario = scenario
        self.sim = scenario.sim
        self.vehicles = {v.car_id: v for v in scenario.vehicles}
        self._co_serde = topic_serdes(ctx.spec.serde_profile).get(
            CO_DATA, JsonSerde()
        )
        self.handovers: Dict[float, List[HandoverSpec]] = {}
        for handover in ctx.topology.handovers:
            self.handovers.setdefault(handover.at_s, []).append(handover)

        until = ctx.spec.duration_s
        for rsu in scenario.rsus.values():
            rsu.start(until=until)
        for vehicle in scenario.vehicles:
            vehicle.start(until=until)

    def _remote_rsu(self, name: str) -> RemoteRsuProxy:
        proxy = self._proxies.get(name)
        if proxy is None:
            proxy = RemoteRsuProxy(name, self.captured)
            self._proxies[name] = proxy
        return proxy

    # ------------------------------------------------------------------
    # One barrier window
    # ------------------------------------------------------------------
    def _step(self, frames, barrier: float, final: bool) -> tuple:
        self._apply(frames)
        if final:
            self.sim.run_until(barrier)
        else:
            # Strictly before: events AT the barrier (the micro-batch
            # ticks) fire in the next window, after cross-shard frames
            # for this barrier have been injected.
            self.sim.run_before(barrier)
        for handover in self.handovers.get(barrier, ()):
            self._execute_handover(handover)
        return "done", self._flush()

    # ------------------------------------------------------------------
    # Inbound frames
    # ------------------------------------------------------------------
    def _apply(self, frames: List[Tuple[int, memoryview]]) -> None:
        """Inject one barrier's cross-shard frames, deterministically.

        The clock sits exactly at the previous barrier (a handover
        instant for transfers), so vehicles re-attach at the same
        simulated time the serial migrate event fired.
        """
        transfers: List[dict] = []
        summaries: List[Tuple[str, float, bytes]] = []
        for kind, buf in frames:
            if kind == FRAME_TRANSFER:
                transfers.append(decode_transfer(buf)[1])
            elif kind == FRAME_SUMMARY:
                summaries.append(decode_summary(buf))
            else:
                raise RuntimeError(f"unknown frame kind {kind}")

        # Transfers first (the serial migrate loop runs before any
        # later event), in pool order — the serial loop's own order.
        transfers.sort(
            key=lambda s: (s["pool"], s["stripe_index"], s["car_id"])
        )
        for state in transfers:
            self._apply_transfer(state)

        # Summaries in delivery order, car id breaking timestamp ties —
        # matching the serial seq order (links send in pool order).
        # Order matters: CO-DATA routes round-robin (key=None).
        if summaries:
            cars = summary_car_ids(
                [payload for _, _, payload in summaries], self._co_serde
            )
            for (rsu_name, ts, payload), _car in sorted(
                zip(summaries, cars), key=lambda item: (item[0][1], item[1])
            ):
                self.scenario.rsus[rsu_name].broker.produce(
                    CO_DATA, payload, timestamp=ts
                )

    def _apply_transfer(self, state: dict) -> None:
        """Reconstruct a transferred vehicle on its new home RSU."""
        car_id = state["car_id"]
        to_rsu = state["to_rsu"]
        pool = self.ctx.bundle.pools[state["pool"]]
        stripe = list(pool[state["stripe_index"] :: state["pool_size"]])
        if not stripe:
            raise RuntimeError(
                f"cross-shard handover of car {car_id} got an empty record "
                f"stripe ({state['pool']!r} pool has {len(pool)} records for "
                f"{state['pool_size']} migrating vehicles); the serial engine "
                "would keep the old sub-dataset, which cannot cross shards — "
                "use a larger replay pool or fewer migrating vehicles"
            )
        vehicle = self.scenario.add_vehicles_with_ids(
            to_rsu, (car_id,), stripe
        )[0]
        # Continue the exact serial trajectory: same generator object
        # (the registry's cached stream), restored mid-stream.
        self.scenario.rng.restore(f"vehicle.{car_id}", state["rng_state"])
        vehicle.stats = state["stats"]
        # Telemetry of the old road the sending shard abandoned, as the
        # serial ``migrate(drop_pending=True)`` counts it.
        vehicle._producer.records_abandoned += len(state["inflight"]) + len(
            state["pending_tx"]
        )
        vehicle.resume(
            state["produce_next"],
            state["poll_next"],
            until=self.spec.duration_s,
        )
        self.vehicles[car_id] = vehicle

    # ------------------------------------------------------------------
    # Handover execution
    # ------------------------------------------------------------------
    def _execute_handover(self, handover: HandoverSpec) -> None:
        """Run one handover spec for the locally-owned cars.

        Same-shard migrations take the serial path verbatim; cars whose
        target lives elsewhere forward their summary over the (real)
        link toward the proxy, detach, and ship.
        """
        new_records = self.ctx.bundle.pools[handover.pool]
        size = max(1, len(handover.car_ids))
        target_local = handover.to_rsu in self.scenario.rsus
        for index, car_id in enumerate(handover.car_ids):
            vehicle = self.vehicles.get(car_id)
            if vehicle is None or vehicle.detached:
                continue
            vehicle.rsu.handover(car_id, handover.to_rsu)
            if target_local:
                vehicle.migrate(
                    self.scenario.rsus[handover.to_rsu],
                    self.scenario.channels[handover.to_rsu],
                    drop_pending=True,
                )
                vehicle.shaper = self.scenario._shaper_for(
                    handover.to_rsu, car_id
                )
                stripe = list(new_records[index::size])
                if stripe:
                    vehicle.set_records(stripe)
            else:
                state = vehicle.detach()
                state.update(
                    {
                        "to_rsu": handover.to_rsu,
                        "pool": handover.pool,
                        "stripe_index": index,
                        "pool_size": size,
                    }
                )
                self.transfer_out.append(state)

    # ------------------------------------------------------------------
    # Outbound frames
    # ------------------------------------------------------------------
    def _flush(self) -> int:
        count = 0
        for rsu_name, _topic, payload, timestamp in self.captured:
            self.channel.outbox.push(
                FRAME_SUMMARY, encode_summary(rsu_name, timestamp, payload)
            )
            count += 1
        self.captured.clear()
        for state in self.transfer_out:
            self.channel.outbox.push(
                FRAME_TRANSFER, encode_transfer(state["to_rsu"], state)
            )
            count += 1
        self.transfer_out.clear()
        if self.obs_registry is not None:
            # Cumulative snapshot every barrier: the engine keeps the
            # latest per shard (replace, not accumulate), so mid-run
            # telemetry is always a consistent prefix of the run.
            self.channel.outbox.push(
                FRAME_METRICS, self.obs_registry.snapshot().encode()
            )
            count += 1
        return count

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _collect(self, _frames) -> tuple:
        self.scenario.wind_down()
        # Vehicles shipped to another shard report from there.
        self.scenario.vehicles = [
            v for v in self.scenario.vehicles if not v.detached
        ]
        if self.obs_registry is not None:
            finalize_scenario(
                self.scenario, self.obs_registry, self.obs_recorder
            )
        return "result", {
            "rsu_metrics": collect_rsu_metrics(
                self.scenario.rsus, self.spec.duration_s
            ),
            "vehicle_stats": {
                v.car_id: v.stats for v in self.scenario.vehicles
            },
            "warnings": {
                name: rsu.warning_log()
                for name, rsu in self.scenario.rsus.items()
            },
            "resilience": self.scenario._collect_resilience(),
        }
