"""Barrier schedule and cross-shard frame codec.

Determinism hinges on two facts encoded here:

1. **The barrier grid reproduces the simulator's tick grid exactly.**
   :meth:`Simulator.every` accumulates ``next = now + interval`` in
   floating point, so tick times drift off exact ``k * interval``
   multiples.  Every RSU's micro-batch recurrence starts at clock 0 and
   therefore ticks on the *same* drifted sequence; :func:`batch_barriers`
   replays the identical accumulation so each barrier lands exactly ON a
   tick time.  Workers run *strictly before* each barrier
   (:meth:`Simulator.run_before`), so a summary injected at barrier
   ``b`` is produced before the tick at ``b`` drains the broker — the
   same batch membership the serial engine produces.

2. **Frames are routable without decoding.**  Every frame starts with a
   ``[u8 len][utf-8 rsu name]`` header, so the engine can route a frame
   to its target shard by peeking at the first bytes and push the buffer
   on unchanged.
"""

from __future__ import annotations

import pickle
import struct
from typing import Dict, List, Sequence, Tuple

from repro.core.wire import SUMMARY_FRAME_MAGIC, summary_frame_car
from repro.streaming.serde import FlatStructSerde, SerdeError

# Frame kinds on the shared-memory rings.
FRAME_SUMMARY = 1  # CO-DATA prediction summary for a remote RSU's broker
# 2 is retired (in-flight telemetry of a transferred vehicle): not reused.
FRAME_TRANSFER = 3  # a detached vehicle's full migration state
# A shard's cumulative metrics snapshot.  Unlike the kinds above this
# frame has NO ``[u8 len][rsu name]`` routing header (it is addressed
# to the engine itself, never to a shard) — consumers must dispatch on
# kind *before* calling :func:`frame_target`.
FRAME_METRICS = 4
# City-workload frames.  Both carry the usual ``[u8 len][utf-8]``
# routing header, but the target is a *shard index* rendered as a
# decimal string rather than an RSU name: city moves are batched per
# destination shard (one frame per (source shard, destination shard)
# per tick) so the engine's routing work stays O(shards), not
# O(vehicles), per window.
FRAME_MIGRATION = 5  # a tick's batched vehicle moves bound for one shard
FRAME_RSU_STATE = 6  # a whole RSU's state (arrays + RNG) mid-rebalance

_SUMMARY_HEAD = struct.Struct("<d")


# ----------------------------------------------------------------------
# Barrier schedule
# ----------------------------------------------------------------------
def batch_barriers(interval_s: float, until: float) -> List[float]:
    """The micro-batch tick grid, by the simulator's own accumulation.

    Must mirror the float arithmetic of :meth:`Simulator.every` — do not
    "simplify" to ``k * interval_s``; the accumulated sum drifts by an
    ULP every few steps and batch membership is decided at exactly these
    instants.
    """
    points: List[float] = []
    t = interval_s
    while t < until:
        points.append(t)
        t += interval_s
    return points


def sync_schedule(
    interval_s: float,
    duration_s: float,
    handover_times: Sequence[float],
) -> List[float]:
    """All barrier instants for a run, final drain barrier included.

    The union of the tick grid and the handover instants, plus the
    engine's final ``duration + 0.5`` drain point (the serial engine
    runs until the same instant to let trailing deliveries land).
    """
    points = set(batch_barriers(interval_s, duration_s))
    for t in handover_times:
        if t < duration_s:
            points.add(t)
    points.add(duration_s + 0.5)
    return sorted(points)


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
def _pack_target(rsu_name: str) -> bytes:
    encoded = rsu_name.encode("utf-8")
    if len(encoded) > 255:
        raise ValueError(f"RSU name too long to frame: {rsu_name!r}")
    return bytes([len(encoded)]) + encoded


def frame_target(buf: bytes) -> str:
    """Peek a frame's destination RSU without decoding the body."""
    return bytes(buf[1 : 1 + buf[0]]).decode("utf-8")


def _body(buf: bytes) -> bytes:
    return bytes(buf[1 + buf[0] :])


def encode_summary(rsu_name: str, timestamp: float, payload: bytes) -> bytes:
    return _pack_target(rsu_name) + _SUMMARY_HEAD.pack(timestamp) + payload


def decode_summary(buf: bytes) -> Tuple[str, float, bytes]:
    body = _body(buf)
    (timestamp,) = _SUMMARY_HEAD.unpack_from(body)
    return frame_target(buf), timestamp, body[_SUMMARY_HEAD.size :]


def encode_transfer(rsu_name: str, state: Dict) -> bytes:
    return _pack_target(rsu_name) + pickle.dumps(state)


def decode_transfer(buf: bytes) -> Tuple[str, Dict]:
    return frame_target(buf), pickle.loads(_body(buf))


def encode_shard_payload(shard_index: int, payload: object) -> bytes:
    """Frame a pickled payload addressed to a *shard* (city frames).

    Used for :data:`FRAME_MIGRATION` and :data:`FRAME_RSU_STATE`, whose
    routing target is a shard index rather than an RSU name.  The engine
    routes with ``int(frame_target(buf))`` and never unpickles the body.
    """
    return _pack_target(str(shard_index)) + pickle.dumps(payload)


def decode_shard_payload(buf: bytes) -> Tuple[int, object]:
    return int(frame_target(buf)), pickle.loads(_body(buf))


# ----------------------------------------------------------------------
# Deterministic summary ordering
# ----------------------------------------------------------------------
def summary_car_ids(payloads: Sequence[bytes], serde) -> List[int]:
    """Car id per CO-DATA payload, for deterministic injection order.

    ``Topic.route(key=None)`` is a round-robin counter, so the *order*
    summaries are produced into a broker is observable.  The engine
    sorts cross-shard summaries by ``(timestamp, car)`` before
    injection; this extracts the car ids — via the columnar
    ``np.frombuffer`` batch decode when the CO-DATA serde is the fixed
    struct layout, falling back to per-payload deserialization (JSON
    profile, or mixed magic-byte fallback payloads).
    """
    framed = any(
        payload and payload[0] == SUMMARY_FRAME_MAGIC for payload in payloads
    )
    if not framed and isinstance(serde, FlatStructSerde):
        try:
            return [int(car) for car in serde.decode_batch(payloads)["car"]]
        except SerdeError:
            pass
    return [summary_frame_car(payload, serde) for payload in payloads]
