"""Reference city tick kernel: the per-RSU object engine.

This is the ground-truth statement of the city tick — one ``RsuState``
object per RSU, each owning its own growing numpy arrays, ticked in a
Python-level loop.  The fused arena kernel (``repro.city.kernel``) must
produce bit-identical rolling digests; ``test_kernel.py`` compares the
two, the same pattern as ``tests/test_simkernel/reference_queue.py``
for the event queue.

:func:`run_reference` runs a spec on it by swapping it in for
``FusedShardState`` for the length of one run.  It stays the simplest
possible statement of the tick semantics — change it only when the
*semantics* change, never for speed.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Tuple
from unittest import mock

import numpy as np

from repro.city import engine
from repro.city.kernel import ID_STRIDE, TICK_DIGEST, MoveBundle, rsu_stream_name
from repro.city.model import CitySpec
from repro.city.topology import CityTopology
from repro.simkernel.rng import RngRegistry


# ----------------------------------------------------------------------
# Per-RSU state
# ----------------------------------------------------------------------
class RsuState:
    """One RSU's resident vehicles, counters, and warning digest.

    Columnar: ids / trip-end / residence-end are parallel numpy arrays,
    so a tick is a handful of vectorized draws and masks no matter how
    many vehicles are resident.
    """

    __slots__ = (
        "index",
        "name",
        "neighbours",
        "arrival_rate_s",
        "ids",
        "depart",
        "leave",
        "spawned",
        "retired",
        "warnings",
        "digest",
    )

    def __init__(self, index: int, name: str, neighbours, arrival_rate_s: float):
        self.index = index
        self.name = name
        self.neighbours = np.asarray(neighbours, dtype=np.int64)
        self.arrival_rate_s = arrival_rate_s
        self.ids = np.empty(0, dtype=np.int64)
        self.depart = np.empty(0, dtype=np.float64)
        self.leave = np.empty(0, dtype=np.float64)
        self.spawned = 0
        self.retired = 0
        self.warnings = 0
        #: Rolling SHA-256 over (tick, count, sorted flagged ids) —
        #: stored as bytes (not a hashlib object) so it pickles across a
        #: rebalance.
        self.digest = b""

    def admit(self, ids: np.ndarray, depart: np.ndarray, leave: np.ndarray) -> None:
        self.ids = np.concatenate([self.ids, ids])
        self.depart = np.concatenate([self.depart, depart])
        self.leave = np.concatenate([self.leave, leave])

    def tick(
        self,
        tick_index: int,
        now: float,
        spec: CitySpec,
        wave: float,
        rng: np.random.Generator,
        moves_out: List[MoveBundle],
    ) -> int:
        """Advance one tick; returns the post-tick resident count.

        The draw order — poisson; (trip, residence) for arrivals;
        (residence, neighbour) for movers; (binomial, choice) for
        detection — is fixed and every conditional draw's size is a
        deterministic function of prior state, which is what makes the
        sequence shard-invariant.
        """
        ids, depart, leave = self.ids, self.depart, self.leave

        lam = self.arrival_rate_s * spec.tick_s * wave
        k = int(rng.poisson(lam)) if lam > 0.0 else 0
        if k:
            trip = rng.exponential(spec.mean_trip_s, k)
            stay = rng.exponential(spec.mean_residence_s, k)
            base = self.index * ID_STRIDE + self.spawned
            new_ids = np.arange(base, base + k, dtype=np.int64)
            self.spawned += k
            ids = np.concatenate([ids, new_ids])
            depart = np.concatenate([depart, now + trip])
            leave = np.concatenate([leave, now + stay])

        due = leave <= now
        if due.any():
            finished = due & (depart <= now)
            mover = due & ~finished
            self.retired += int(np.count_nonzero(finished))
            m = int(np.count_nonzero(mover))
            drop = due
            if m:
                stay2 = rng.exponential(spec.mean_residence_s, m)
                if self.neighbours.size:
                    pick = rng.integers(0, self.neighbours.size, m)
                    moves_out.append(
                        (
                            self.neighbours[pick],
                            np.full(m, self.index, dtype=np.int64),
                            ids[mover],
                            depart[mover],
                            now + stay2,
                        )
                    )
                else:
                    # Isolated RSU: stay put with a fresh residence.
                    leave = leave.copy()
                    leave[mover] = now + stay2
                    drop = finished
            keep = ~drop
            ids, depart, leave = ids[keep], depart[keep], leave[keep]
        self.ids, self.depart, self.leave = ids, depart, leave

        n = ids.size
        if n and spec.abnormal_prob > 0.0:
            flagged = int(rng.binomial(n, spec.abnormal_prob))
            if flagged:
                chosen = rng.choice(n, size=flagged, replace=False)
                flagged_ids = np.sort(ids[chosen])
                self.warnings += flagged
                self.digest = hashlib.sha256(
                    self.digest
                    + TICK_DIGEST.pack(tick_index, flagged)
                    + flagged_ids.tobytes()
                ).digest()
        return int(n)

    # -- rebalance serialization --------------------------------------
    def pack(self) -> dict:
        return {
            "index": self.index,
            "ids": self.ids,
            "depart": self.depart,
            "leave": self.leave,
            "spawned": self.spawned,
            "retired": self.retired,
            "warnings": self.warnings,
            "digest": self.digest,
        }

    def unpack(self, state: dict) -> None:
        self.ids = state["ids"]
        self.depart = state["depart"]
        self.leave = state["leave"]
        self.spawned = state["spawned"]
        self.retired = state["retired"]
        self.warnings = state["warnings"]
        self.digest = state["digest"]


# ----------------------------------------------------------------------
# Per-process compute core
# ----------------------------------------------------------------------
class ShardState:
    """The RSUs one process owns, plus their RNG streams.

    Used directly by the serial engine (owning every RSU) and by each
    city shard worker (owning its slice).  Ownership changes only via
    :meth:`detach` / :meth:`adopt`, which the sharded protocol invokes
    strictly between ticks.
    """

    def __init__(
        self, spec: CitySpec, topology: CityTopology, owned: Iterable[int]
    ) -> None:
        self.spec = spec
        self.topology = topology
        self.registry = RngRegistry(spec.seed)
        self.base_rate_s = spec.arrivals_per_rsu_hour / 3600.0
        self.rsus: Dict[int, RsuState] = {}
        self.moves_applied = 0
        for index in owned:
            self.rsus[index] = self._fresh(index)
        self._rebuild_order()

    def _rebuild_order(self) -> None:
        # Tick order and the load-index vector are functions of the
        # owned set only; rebuild on ownership changes, not every tick.
        # The array's *identity* doubles as a cheap "ownership unchanged"
        # token for the worker's window accumulator.
        self._order = sorted(self.rsus)
        self._indices = np.asarray(self._order, dtype=np.int64)

    def _fresh(self, index: int) -> RsuState:
        rsu = self.topology.rsus[index]
        return RsuState(
            index,
            rsu.name,
            rsu.neighbours,
            self.base_rate_s * rsu.arrival_weight,
        )

    def _rng(self, index: int) -> np.random.Generator:
        return self.registry.stream(rsu_stream_name(self.topology.rsus[index].name))

    # -- the tick ------------------------------------------------------
    def apply_moves(self, bundles: List[MoveBundle]) -> None:
        if not bundles:
            return
        dst = np.concatenate([b[0] for b in bundles])
        src = np.concatenate([b[1] for b in bundles])
        ids = np.concatenate([b[2] for b in bundles])
        depart = np.concatenate([b[3] for b in bundles])
        leave = np.concatenate([b[4] for b in bundles])
        # Stable: equal (dst, src) rows keep bundle order, and any
        # (dst, src) pair occurs in exactly one bundle per tick.
        order = np.lexsort((src, dst))
        dst, ids, depart, leave = dst[order], ids[order], depart[order], leave[order]
        boundaries = np.flatnonzero(np.diff(dst)) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [dst.size]])
        for lo, hi in zip(starts, ends):
            self.rsus[int(dst[lo])].admit(ids[lo:hi], depart[lo:hi], leave[lo:hi])
        self.moves_applied += int(dst.size)

    def tick(
        self, tick_index: int, now: float, inbound: List[MoveBundle]
    ) -> Tuple[List[MoveBundle], Tuple[np.ndarray, np.ndarray]]:
        """Advance every owned RSU; returns ``(moves, (indices, counts))``.

        Loads travel as a pair of parallel int64 arrays (global RSU
        index, post-tick resident count) rather than a dict — they cross
        a Pipe every tick and feed a vectorized accumulate engine-side.
        """
        self.apply_moves(inbound)
        wave = self.spec.demand_wave.multiplier(now)
        moves_out: List[MoveBundle] = []
        counts = np.empty(len(self._order), dtype=np.int64)
        for j, index in enumerate(self._order):
            state = self.rsus[index]
            counts[j] = state.tick(
                tick_index, now, self.spec, wave, self._rng(index), moves_out
            )
        return moves_out, (self._indices, counts)

    # -- rebalance -----------------------------------------------------
    def detach(self, index: int) -> dict:
        state = self.rsus.pop(index)
        packed = state.pack()
        packed["rng"] = self.registry.state_of(rsu_stream_name(state.name))
        self._rebuild_order()
        return packed

    def adopt(self, packed: dict) -> None:
        index = packed["index"]
        state = self._fresh(index)
        state.unpack(packed)
        self.rsus[index] = state
        self.registry.restore(rsu_stream_name(state.name), packed["rng"])
        self._rebuild_order()

    # -- end-of-run accounting ----------------------------------------
    def rsu_results(self) -> Dict[str, dict]:
        return {
            state.name: {
                "digest": state.digest.hex(),
                "warnings": state.warnings,
                "spawned": state.spawned,
                "retired": state.retired,
                "active": int(state.ids.size),
            }
            for state in self.rsus.values()
        }


def run_reference(spec: CitySpec, topology=None):
    """Run a serial ``spec`` on this engine instead of the fused kernel."""
    assert spec.shards == 1, "the reference engine runs serial specs only"
    with mock.patch.object(engine, "FusedShardState", ShardState):
        return engine.CityEngine(spec, topology=topology).run()
