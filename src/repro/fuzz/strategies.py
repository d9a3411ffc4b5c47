"""Hypothesis strategies over the fuzzer's scenario space.

One composite strategy, :func:`fuzz_specs`, draws a complete
:class:`~repro.fuzz.spec.FuzzSpec`: base corridor knobs first, then a
*feature branch* that decides which mutually-exclusive subsystem the
scenario exercises (fault schedule, sharding, or a collaboration
plane) so every draw satisfies the scenario layer's
cross-field rules by construction.  All choice sets are small and
ordered simplest-first, which is what makes hypothesis shrinking
effective: a failing example collapses toward the one-motorway,
two-vehicle, fault-free default corridor.

Hypothesis is a test-time dependency of the repo, not a hard runtime
requirement of :mod:`repro`; the import is deferred so merely importing
:mod:`repro.fuzz` works without it.
"""

from __future__ import annotations

from typing import Optional

from repro.fuzz.spec import FuzzSpec


def _hypothesis():
    try:
        from hypothesis import strategies as st
    except ImportError as exc:  # pragma: no cover - environment-dependent
        raise RuntimeError(
            "the scenario fuzzer needs the 'hypothesis' package "
            "(available in the test environment: pip install hypothesis)"
        ) from exc
    return st


#: Feature branches, simplest first (the shrink target is "plain").
BRANCHES = ("plain", "faults", "sharded", "collab", "city")


def fuzz_specs(
    max_vehicles: int = 8,
    max_motorways: int = 3,
    max_shards: int = 3,
    branches: Optional[tuple] = None,
):
    """Strategy producing valid :class:`FuzzSpec` values."""
    st = _hypothesis()
    branches = branches if branches is not None else BRANCHES

    @st.composite
    def _specs(draw):
        branch = draw(st.sampled_from(branches))
        motorways = draw(st.integers(min_value=1, max_value=max_motorways))
        vehicles = draw(st.integers(min_value=2, max_value=max_vehicles))
        duration_s = draw(st.sampled_from([1.0, 1.5, 2.0]))
        handover = draw(st.sampled_from([0.0, 0.25, 0.5]))
        serde = draw(st.sampled_from(["json", "struct"]))
        columnar = draw(st.booleans())
        seed = draw(st.integers(min_value=0, max_value=2**16))
        channel = draw(st.sampled_from(["stable", "lossy"]))

        kwargs = dict(
            seed=seed,
            motorways=motorways,
            vehicles=vehicles,
            duration_s=duration_s,
            handover_fraction=handover,
            channel=channel,
            serde_profile=serde,
            columnar=columnar,
        )
        if branch == "faults":
            # The unstable channel preset is only reachable here: its
            # interference burst rides the fault machinery.
            kwargs["channel"] = draw(
                st.sampled_from(["stable", "lossy", "unstable"])
            )
            kwargs["faults"] = tuple(
                draw(
                    st.lists(
                        fault_events(motorways, duration_s),
                        min_size=0 if kwargs["channel"] == "unstable" else 1,
                        max_size=2,
                    )
                )
            )
        elif branch == "sharded":
            kwargs["shards"] = draw(
                st.integers(min_value=2, max_value=max_shards)
            )
        elif branch == "collab":
            kwargs["collab"] = draw(collab_overrides())
        elif branch == "city":
            # A city point replaces the corridor wholesale; every
            # corridor axis stays at its default so the repro
            # serializes to just the seed and the city knobs.
            kwargs = dict(seed=seed, city=draw(city_overrides(max_shards)))
        return FuzzSpec(**kwargs)

    return _specs()


def fault_events(motorways: int, duration_s: float):
    """Strategy for one fault-schedule entry valid on this corridor."""
    st = _hypothesis()
    motorway_names = [f"rsu-mw-{index + 1}" for index in range(motorways)]
    at_s = st.sampled_from(
        [round(duration_s * frac, 3) for frac in (0.3, 0.4, 0.6)]
    )

    def _crash(rsu, at, restart_frac, ack):
        return {
            "kind": "broker_crash",
            "rsu": rsu,
            "at_s": at,
            "restart_after_s": round(duration_s * restart_frac, 3),
            "ack_loss_s": ack,
        }

    crash = st.builds(
        _crash,
        st.sampled_from(motorway_names),
        at_s,
        st.sampled_from([0.1, 0.2]),
        st.sampled_from([0.0, 0.1]),
    )
    burst = st.builds(
        lambda rsu, at, frac, loss: {
            "kind": "burst_loss",
            "rsu": rsu,
            "at_s": at,
            "duration_s": round(duration_s * frac, 3),
            "loss_prob": loss,
        },
        st.sampled_from(motorway_names),
        at_s,
        st.sampled_from([0.15, 0.3]),
        st.sampled_from([0.2, 0.5]),
    )
    partition = st.builds(
        lambda src, at, frac: {
            "kind": "link_partition",
            "src": src,
            "dst": "rsu-mw-link",
            "at_s": at,
            "duration_s": round(duration_s * frac, 3),
        },
        st.sampled_from(motorway_names),
        at_s,
        st.sampled_from([0.2, 0.4]),
    )
    choices = [crash, burst, partition]
    if motorways >= 2:
        kill = st.builds(
            lambda rsu, at: {
                "kind": "rsu_kill",
                "rsu": rsu,
                "at_s": at,
                "failover_to": (
                    motorway_names[1]
                    if rsu == motorway_names[0]
                    else motorway_names[0]
                ),
            },
            st.sampled_from(motorway_names),
            at_s,
        )
        choices.append(kill)
    return st.one_of(choices)


def city_overrides(max_shards: int = 2):
    """Strategy for the city-workload knob dict: tiny scales (tens of
    RSUs, minutes of simulated time) so the three-run oracle stack —
    fused, reference, and optionally sharded — replays in seconds.
    Values are ordered cheapest-first for shrinking."""
    st = _hypothesis()
    return st.fixed_dictionaries(
        {
            "count_scale": st.sampled_from([0.002, 0.005, 0.01]),
            "duration_s": st.sampled_from([600.0, 1800.0, 3600.0]),
        },
        optional={
            "shards": st.integers(min_value=2, max_value=min(max_shards, 4)),
            "rebalance_interval_ticks": st.sampled_from([10, 30]),
        },
    )


def collab_overrides():
    """Strategy for CollabConfig override dicts — disabled configs (the
    identity oracle's food) and enabled gating/delta/priority mixes."""
    st = _hypothesis()
    disabled = st.just({})
    enabled = st.fixed_dictionaries(
        {
            "mode": st.sampled_from(["handover", "refresh"]),
            "gate_threshold": st.sampled_from([0.0, 0.2, 0.6]),
            "delta_encoding": st.booleans(),
            "priority": st.booleans(),
        },
        optional={
            "refresh_interval_s": st.sampled_from([0.25, 0.5]),
        },
    )
    return st.one_of(disabled, enabled)
