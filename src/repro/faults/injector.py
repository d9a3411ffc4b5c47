"""Turns a declarative :class:`~repro.faults.events.FaultProfile`
into scheduled simulator callbacks against a wired-up scenario.

The injector is installed *before* :meth:`TestbedScenario.run` (the
scenario does this itself when its config carries a fault profile) and
keeps a timestamped log of everything it did, which the resilience
experiment reads back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.features import CO_DATA
from repro.faults.events import (
    BrokerCrash,
    BurstLoss,
    FaultProfile,
    LinkPartition,
    RsuKill,
)
from repro.obs import metrics as obs_metrics
from repro.streaming.broker import BrokerUnavailable


@dataclass(frozen=True)
class FaultRecord:
    """One injected action, as it happened."""

    time_s: float
    kind: str
    target: str
    detail: str = ""


class FaultInjector:
    """Schedules a fault profile's events on a scenario's simulator."""

    def __init__(self, scenario) -> None:
        self.scenario = scenario
        self.log: List[FaultRecord] = []
        self.profile: Optional[FaultProfile] = None

    def _record(self, kind: str, target: str, detail: str = "") -> None:
        self.log.append(
            FaultRecord(self.scenario.sim.now, kind, target, detail)
        )
        registry = obs_metrics.active()
        if registry is not None:
            registry.counter("faults.injected", kind=kind).inc()

    # ------------------------------------------------------------------
    def install(self, profile: FaultProfile) -> None:
        """Schedule every event in ``profile``.

        Call once, before the scenario runs; event targets are resolved
        eagerly so a typo in a profile fails fast, not mid-run.
        """
        if self.profile is not None:
            raise RuntimeError("fault profile already installed")
        self.profile = profile
        for event in profile.events:
            if isinstance(event, BrokerCrash):
                self._install_broker_crash(event)
            elif isinstance(event, RsuKill):
                self._install_rsu_kill(event)
            elif isinstance(event, LinkPartition):
                self._install_link_partition(event)
            elif isinstance(event, BurstLoss):
                self._install_burst_loss(event)
            else:
                raise TypeError(f"unknown fault event: {event!r}")

    # ------------------------------------------------------------------
    def _install_broker_crash(self, event: BrokerCrash) -> None:
        rsu = self.scenario.rsus[event.rsu]
        sim = self.scenario.sim
        duration_s = self.scenario.config.duration_s

        def crash() -> None:
            rsu.crash()
            self._record("broker_crash", event.rsu)

        def restart() -> None:
            if rsu.failed:
                # An RsuKill took the node for good meanwhile.
                self._record("broker_restart_skipped", event.rsu)
                return
            rsu.restart(until=duration_s)
            if event.ack_loss_s > 0.0:
                # Open the ack-loss window *after* the restart: the
                # producers that buffered during the outage flush into
                # it, so their retries exercise idempotent dedupe.
                rsu.drop_acks_until(sim.now + event.ack_loss_s)
            self._record(
                "broker_restart",
                event.rsu,
                f"ack_loss_s={event.ack_loss_s}",
            )

        sim.at(event.at_s, crash, label=f"fault-crash-{event.rsu}")
        sim.at(
            event.at_s + event.restart_after_s,
            restart,
            label=f"fault-restart-{event.rsu}",
        )

    def _install_rsu_kill(self, event: RsuKill) -> None:
        if not event.failover_to or event.failover_to == event.rsu:
            raise ValueError(
                f"RsuKill({event.rsu!r}) needs a different failover_to RSU"
            )
        scenario = self.scenario
        failed = scenario.rsus[event.rsu]
        fallback = scenario.rsus[event.failover_to]
        fallback_channel = scenario.channels[event.failover_to]

        def kill() -> None:
            replayed = 0
            if event.replay_state:
                # Snapshot per-car prediction state *before* the node
                # dies (modelling a durable state store the fallback
                # can read), then replay it into the fallback's
                # CO-DATA so driver awareness survives the node.
                cars = sorted(set(failed._history) | set(failed.summaries))
                serde = fallback._serde_for(CO_DATA)
                snapshots = []
                for car in cars:
                    summary = failed.build_summary(car)
                    if summary is not None:
                        snapshots.append(serde.serialize(summary.to_payload()))
                failed.fail()
                for payload in snapshots:
                    try:
                        fallback.broker.produce(CO_DATA, payload)
                        replayed += 1
                    except BrokerUnavailable:
                        pass  # fallback is down too; state is lost
            else:
                failed.fail()
            for vehicle in scenario.vehicles:
                if vehicle.rsu is failed:
                    vehicle.migrate(fallback, fallback_channel)
                    vehicle.shaper = scenario._shaper_for(
                        event.failover_to, vehicle.car_id
                    )
            self._record(
                "rsu_kill",
                event.rsu,
                f"failover_to={event.failover_to} replayed={replayed}",
            )

        scenario.sim.at(event.at_s, kill, label=f"fault-kill-{event.rsu}")

    def _install_link_partition(self, event: LinkPartition) -> None:
        src = self.scenario.rsus[event.src]
        if event.dst not in src._links:
            raise KeyError(
                f"no link {event.src!r} -> {event.dst!r}; "
                f"connected: {src.neighbor_names}"
            )
        link = src._links[event.dst]
        sim = self.scenario.sim
        name = f"{event.src}->{event.dst}"

        def down() -> None:
            link.set_down()
            self._record("partition", name)

        def up() -> None:
            link.set_up()
            self._record("partition_heal", name)

        sim.at(event.at_s, down, label=f"fault-partition-{name}")
        sim.at(event.at_s + event.duration_s, up, label=f"fault-heal-{name}")

    def _install_burst_loss(self, event: BurstLoss) -> None:
        channel = self.scenario.channels[event.rsu]
        sim = self.scenario.sim
        saved: List[float] = []

        def start() -> None:
            # Save at burst start, not install time: another event may
            # have legitimately changed the baseline in between.
            channel.settle()  # frames sent before the burst meet the old rate
            saved.append(channel.loss_prob)
            channel.loss_prob = event.loss_prob
            self._record(
                "burst_loss", event.rsu, f"loss_prob={event.loss_prob}"
            )

        def stop() -> None:
            channel.settle()
            channel.loss_prob = saved.pop()
            self._record("burst_loss_end", event.rsu)

        sim.at(event.at_s, start, label=f"fault-burst-{event.rsu}")
        sim.at(
            event.at_s + event.duration_s,
            stop,
            label=f"fault-burst-end-{event.rsu}",
        )
