"""A dead or silent shard worker, on both engines.

Whatever happens to a worker process mid-run, ``run()`` must raise
:class:`ParallelExecutionError` naming the shard and the reply it was
waiting for, within the receive timeout, leaving no child process and
no shared-memory segment behind.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.city.engine import CityEngine
from repro.city.model import FLAT_WAVE, CitySpec
from repro.core.scenario import ScenarioBuilder
from repro.parallel import runtime
from repro.parallel.runtime import ParallelExecutionError, ShardPool

RECV_TIMEOUT_S = 2.0
JOIN_TIMEOUT_S = 1.0
#: Rounds to let pass before striking: past the build, well short of
#: either run's end.
STRIKE_AT_ROUND = 5


def corridor_engine(dataset):
    return (
        ScenarioBuilder()
        .vehicles(4)
        .duration(30.0)
        .serde("struct")
        .shards(2)
        .corridor(motorways=2, dataset=dataset)
    )


def city_engine(_dataset):
    return CityEngine(
        CitySpec(
            seed=11,
            count_scale=0.01,
            duration_s=2000 * 60.0,
            demand_wave=FLAT_WAVE,
            shards=2,
            rebalance_interval_ticks=3,
        )
    )


def shm_segments():
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


@pytest.mark.parametrize(
    "strike, shard, state",
    [
        (signal.SIGKILL, 0, "died (exitcode=-9)"),
        # The last index is the one the corridor engine used to hang on.
        (signal.SIGKILL, 1, "died (exitcode=-9)"),
        (signal.SIGSTOP, 0, "alive but silent"),
    ],
    ids=["kill-shard-0", "kill-shard-1", "stop-shard-0"],
)
@pytest.mark.parametrize(
    "make_engine, awaited",
    [(corridor_engine, "'done'"), (city_engine, "'ticked'")],
    ids=["corridor", "city"],
)
def test_lost_worker_raises_and_cleans_up(
    monkeypatch, labeled_dataset, make_engine, awaited, strike, shard, state
):
    monkeypatch.setattr(runtime, "RECV_TIMEOUT_S", RECV_TIMEOUT_S)
    monkeypatch.setattr(runtime, "JOIN_TIMEOUT_S", JOIN_TIMEOUT_S)
    rounds = []
    real_round = ShardPool.round

    def round_then_strike(pool, *args, **kwargs):
        replies = real_round(pool, *args, **kwargs)
        rounds.append(args[0][0])
        if len(rounds) == STRIKE_AT_ROUND:
            (victim,) = [
                child
                for child in multiprocessing.active_children()
                if child.name == f"repro-shard-{shard}"
            ]
            os.kill(victim.pid, strike)
        return replies

    monkeypatch.setattr(ShardPool, "round", round_then_strike)
    engine = make_engine(labeled_dataset)
    segments_before = shm_segments()
    started = time.monotonic()
    with pytest.raises(ParallelExecutionError) as raised:
        engine.run()
    elapsed = time.monotonic() - started

    message = str(raised.value)
    assert f"shard {shard} " in message
    assert state in message
    assert f"awaiting {awaited}" in message
    assert len(rounds) == STRIKE_AT_ROUND
    # One receive timeout, then terminate → join → kill → join.
    assert elapsed < RECV_TIMEOUT_S + 2 * JOIN_TIMEOUT_S + 8.0
    assert multiprocessing.active_children() == []
    assert shm_segments() == segments_before
