"""Fault-event types and named fault profiles.

A fault profile is a declarative list of scheduled fault events; the
:class:`~repro.faults.injector.FaultInjector` turns them into
simulator callbacks against a wired-up
:class:`~repro.core.system.TestbedScenario`.  Profiles are plain
frozen dataclasses so experiments can log, diff, and serialize them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple, Union


@dataclass(frozen=True)
class BrokerCrash:
    """Crash an RSU's broker process at ``at_s``; restart later.

    The pipeline stops and every client request fails until the
    restart; the broker's durable state (logs, committed offsets)
    survives, so the restarted pipeline resumes from its last
    committed micro-batch.  ``ack_loss_s`` opens a window right after
    the restart in which produce *acks* are lost: the broker appends
    but the producer sees a failure and retries — the scenario that
    makes idempotent produce necessary.
    """

    rsu: str
    at_s: float
    restart_after_s: float = 1.0
    ack_loss_s: float = 0.0


@dataclass(frozen=True)
class RsuKill:
    """Kill an RSU process permanently at ``at_s``.

    Its vehicles hand over to ``failover_to``; with ``replay_state``
    (default) the dead node's per-car prediction state is replayed
    into the fallback's CO-DATA — modelling recovery from a durable
    state store — so driver-awareness survives the node.
    """

    rsu: str
    at_s: float
    failover_to: str = ""
    replay_state: bool = True


@dataclass(frozen=True)
class LinkPartition:
    """Partition the ``src -> dst`` wired link for ``duration_s``.

    CO-DATA summaries sent across the partition are dropped (no
    transport retransmission), so the downstream RSU's upstream-
    silence timeout can trip and degrade it to road-only detection.
    """

    src: str
    dst: str
    at_s: float
    duration_s: float


@dataclass(frozen=True)
class BurstLoss:
    """Raise the DSRC frame-loss probability of an RSU's channel to
    ``loss_prob`` for ``duration_s`` (interference burst)."""

    rsu: str
    at_s: float
    duration_s: float
    loss_prob: float = 0.2


FaultEvent = Union[BrokerCrash, RsuKill, LinkPartition, BurstLoss]


@dataclass(frozen=True)
class FaultProfile:
    """A named, ordered set of fault events."""

    name: str
    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # Accept any iterable of events; store a tuple (hashable).
        object.__setattr__(self, "events", tuple(self.events))


# ----------------------------------------------------------------------
# Named corridor profiles
# ----------------------------------------------------------------------
def corridor_profiles(duration_s: float = 10.0) -> Dict[str, FaultProfile]:
    """The standard fault profiles for the corridor topology, with
    event times scaled to the run length.

    ``chaos`` is the acceptance scenario: a mid-run broker crash +
    restart on a motorway RSU overlapping a 20 % DSRC burst loss.
    """
    mid = duration_s * 0.4
    burst = max(duration_s * 0.15, 0.5)
    return {
        "broker_crash": FaultProfile(
            "broker_crash",
            (
                BrokerCrash(
                    "rsu-mw-1",
                    at_s=mid,
                    restart_after_s=min(1.0, duration_s * 0.1),
                    ack_loss_s=0.2,
                ),
            ),
        ),
        "rsu_kill": FaultProfile(
            "rsu_kill",
            (RsuKill("rsu-mw-1", at_s=mid, failover_to="rsu-mw-2"),),
        ),
        "partition": FaultProfile(
            "partition",
            (
                LinkPartition(
                    "rsu-mw-1", "rsu-mw-link", at_s=mid, duration_s=burst
                ),
            ),
        ),
        "burst_loss": FaultProfile(
            "burst_loss",
            (
                BurstLoss(
                    "rsu-mw-1", at_s=mid, duration_s=burst, loss_prob=0.2
                ),
            ),
        ),
        "chaos": FaultProfile(
            "chaos",
            (
                BrokerCrash(
                    "rsu-mw-1",
                    at_s=mid,
                    restart_after_s=min(1.0, duration_s * 0.1),
                    ack_loss_s=0.2,
                ),
                BurstLoss(
                    "rsu-mw-1",
                    at_s=mid,
                    duration_s=burst,
                    loss_prob=0.2,
                ),
            ),
        ),
    }


def profile(name: str, duration_s: float = 10.0) -> FaultProfile:
    """Look up a named corridor fault profile."""
    profiles = corridor_profiles(duration_s)
    try:
        return profiles[name]
    except KeyError:
        raise KeyError(
            f"unknown fault profile {name!r}; "
            f"known: {sorted(profiles)}"
        ) from None
