"""DSRC / IEEE 802.11p channel models.

Two layers:

1. :class:`DsrcMacModel` — the paper's analytic CSMA/CA model (Eq. 5-6):

       t_v       = num_v * (t_backoff + DIFS + t_pkt)
       t_backoff = p_c * cw_max * t_slot
       DIFS      = SIFS + 2 * t_slot

   with t_slot = 9 us, SIFS = 16 us, cw_max = 255, and p_c <= 0.03 (the
   collision probability, proportional to vehicle density).  With the
   802.11p PHY preamble (40 us at 10 MHz) and a 32-byte MAC header on a
   200-byte payload this reproduces the paper's stated access times:
   ~54 ms at 27 Mb/s ("MCS 8", 64-QAM 3/4) and ~90 ms at 9 Mb/s
   ("MCS 3") for 256 vehicles, versus the paper's 54.28 / 92.62 ms.

2. :class:`DsrcChannel` — a discrete-event shared medium for the
   testbed simulation: transmissions serialize on the channel, each
   paying DIFS + random backoff + airtime, and contention grows with
   load.

The paper's MCS naming follows its ref. [24] (Bazzi et al.) and is
1-indexed; :data:`MCS_TABLE` holds the eight 10-MHz-channel rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Shared-medium capacity the paper quotes for DSRC.
DSRC_BANDWIDTH_BPS = 27_000_000


@dataclass(frozen=True)
class McsScheme:
    """One modulation-and-coding scheme of the 802.11p 10 MHz channel."""

    index: int
    modulation: str
    coding_rate: str
    data_rate_bps: float

    def __post_init__(self) -> None:
        if self.data_rate_bps <= 0:
            raise ValueError("data rate must be positive")


#: 802.11p data rates on a 10 MHz channel, 1-indexed as in the paper's
#: reference [24].
MCS_TABLE: Dict[int, McsScheme] = {
    1: McsScheme(1, "BPSK", "1/2", 3_000_000),
    2: McsScheme(2, "BPSK", "3/4", 4_500_000),
    3: McsScheme(3, "QPSK", "1/2", 6_000_000),
    4: McsScheme(4, "QPSK", "3/4", 9_000_000),
    5: McsScheme(5, "16-QAM", "1/2", 12_000_000),
    6: McsScheme(6, "16-QAM", "3/4", 18_000_000),
    7: McsScheme(7, "64-QAM", "2/3", 24_000_000),
    8: McsScheme(8, "64-QAM", "3/4", 27_000_000),
}

#: The schemes the paper quotes numbers for.  Note: the paper's
#: "92.62 ms using MCS 3" is only consistent with Eq. 5 at a 9 Mb/s
#: rate (QPSK 3/4); we therefore map the paper's "MCS 3" to that rate
#: while keeping the canonical 1-indexed table above.
PAPER_MCS_3 = McsScheme(3, "QPSK", "3/4", 9_000_000)
PAPER_MCS_8 = MCS_TABLE[8]


@dataclass(frozen=True)
class DsrcMacModel:
    """Analytic CSMA/CA medium-access model (the paper's Eq. 5-6)."""

    t_slot_s: float = 9e-6
    sifs_s: float = 16e-6
    cw_max: int = 255
    collision_prob: float = 0.03
    #: PHY preamble + SIGNAL field duration at 10 MHz.
    preamble_s: float = 40e-6
    #: MAC header + FCS bytes added to every payload.
    mac_overhead_bytes: int = 32

    def __post_init__(self) -> None:
        if not 0.0 <= self.collision_prob <= 1.0:
            raise ValueError("collision_prob must be in [0, 1]")
        if self.cw_max < 1:
            raise ValueError("cw_max must be >= 1")

    @property
    def difs_s(self) -> float:
        """DIFS = SIFS + 2 * t_slot (Eq. 6)."""
        return self.sifs_s + 2.0 * self.t_slot_s

    @property
    def backoff_s(self) -> float:
        """Expected worst-case backoff, t_backoff = p_c * cw_max * t_slot."""
        return self.collision_prob * self.cw_max * self.t_slot_s

    def airtime_s(self, mcs: McsScheme, payload_bytes: int = 200) -> float:
        """Time on air for one frame: preamble + (payload + MAC) bits."""
        if payload_bytes <= 0:
            raise ValueError("payload must be positive")
        bits = (payload_bytes + self.mac_overhead_bytes) * 8
        return self.preamble_s + bits / mcs.data_rate_bps

    def channel_access_time_s(
        self, num_vehicles: int, mcs: McsScheme, payload_bytes: int = 200
    ) -> float:
        """Eq. 5: time for ``num_vehicles`` to each get one frame through.

        Each vehicle pays DIFS + its worst-case backoff + airtime.
        """
        if num_vehicles < 1:
            raise ValueError("need at least one vehicle")
        per_vehicle = self.backoff_s + self.difs_s + self.airtime_s(
            mcs, payload_bytes
        )
        return num_vehicles * per_vehicle

    def supports_update_rate(
        self,
        num_vehicles: int,
        rate_hz: float,
        mcs: McsScheme,
        payload_bytes: int = 200,
    ) -> bool:
        """Can all vehicles send at ``rate_hz`` without queue build-up?

        The paper's criterion: all packets must clear the medium before
        the next update is generated (100 ms at 10 Hz).
        """
        if rate_hz <= 0:
            raise ValueError("rate must be positive")
        access = self.channel_access_time_s(num_vehicles, mcs, payload_bytes)
        return access <= 1.0 / rate_hz

    def max_vehicles(
        self, deadline_s: float, mcs: McsScheme, payload_bytes: int = 200
    ) -> int:
        """Largest vehicle count whose access time fits ``deadline_s``."""
        if deadline_s <= 0:
            raise ValueError("deadline must be positive")
        per_vehicle = self.backoff_s + self.difs_s + self.airtime_s(
            mcs, payload_bytes
        )
        return int(deadline_s / per_vehicle)


class DsrcChannel:
    """Discrete-event shared DSRC medium.

    Transmissions serialize (CSMA/CA: one sender at a time).  Each
    transmission pays DIFS + a uniform random backoff + airtime; if the
    medium is busy the sender defers until it frees.  Per-transmission
    latency therefore grows with the instantaneous offered load,
    reproducing the gentle Tx-latency growth of Fig. 6a.

    Parameters
    ----------
    sim:
        Simulation kernel.
    mcs:
        Modulation/coding for airtime.
    mac:
        Analytic parameters (slot, SIFS, cw).
    rng:
        Random stream for backoff draws.
    """

    def __init__(
        self,
        sim,
        mcs: McsScheme = PAPER_MCS_8,
        mac: Optional[DsrcMacModel] = None,
        rng: Optional[np.random.Generator] = None,
        loss_prob: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_prob < 1.0:
            raise ValueError(f"loss_prob must be in [0, 1): {loss_prob}")
        self.sim = sim
        self.mcs = mcs
        self.mac = mac or DsrcMacModel()
        self._rng = rng or np.random.default_rng(0)
        self.loss_prob = loss_prob
        self._busy_until = 0.0
        self.transmissions = 0
        self.bytes_transmitted = 0
        self.frames_lost = 0
        self.total_airtime_s = 0.0
        # Deferred frames awaiting the next flush:
        # (effective_time, seq, payload_bytes, on_delivered, owner).
        self._pending: List[Tuple] = []
        self._pending_seq = 0
        # Resolved frames whose delivery event has not fired yet:
        # seq -> (delivery_time, owner).
        self._on_air: Dict[int, Tuple[float, object]] = {}
        self._airtime_cache: Dict[int, float] = {}

    def transmit(
        self,
        payload_bytes: int,
        on_delivered: Callable[[float], None],
    ) -> None:
        """Send one frame now: :meth:`enqueue` at the current instant,
        then :meth:`flush`.

        ``on_delivered(delivery_time)`` fires when the frame clears the
        medium.  Broadcast DSRC frames are unacknowledged: with
        ``loss_prob`` set, a lost frame still occupies the medium but
        never delivers.
        """
        self.enqueue(self.sim.now, payload_bytes, on_delivered)
        self.flush(self.sim.now)

    # ------------------------------------------------------------------
    # Deferred contention
    # ------------------------------------------------------------------
    @property
    def pending_frames(self) -> int:
        """Deferred frames whose contention has not been resolved yet."""
        return len(self._pending)

    def enqueue(
        self,
        eff_time: float,
        payload_bytes: int,
        on_delivered: Callable[[float], None],
        owner: object = None,
    ) -> None:
        """Defer one frame to the next :meth:`flush`.

        ``eff_time`` is the instant the frame reaches the medium — the
        send instant plus any shaper delay.  ``owner`` tags the frame
        so a handover can move a sender's not-yet-effective frames to
        its new channel (:meth:`take_pending`).
        """
        self._pending.append(
            (eff_time, self._pending_seq, payload_bytes, on_delivered, owner)
        )
        self._pending_seq += 1

    def take_pending(self, owner: object) -> List[Tuple]:
        """Remove and return ``owner``'s deferred frames (handover)."""
        taken = [frame for frame in self._pending if frame[4] is owner]
        if taken:
            self._pending = [
                frame for frame in self._pending if frame[4] is not owner
            ]
        return taken

    def on_air(self, owner: object) -> List[float]:
        """Delivery times of ``owner``'s frames still on the air."""
        return [due for due, whose in self._on_air.values() if whose is owner]

    @property
    def frames_in_flight(self) -> int:
        """Frames sent and neither delivered nor lost yet: deferred, or
        on the air."""
        return len(self._pending) + len(self._on_air)

    def flush_at(self, eff_time: float) -> None:
        """Resolve a frame at the instant it reaches the medium, not at
        the next tick: now when ``eff_time`` has come, else one flush
        event then."""
        if eff_time <= self.sim.now:
            self.flush(self.sim.now)
        else:
            self.sim.at(eff_time, self._flush_now, label="dsrc-flush")

    def _flush_now(self) -> None:
        self.flush(self.sim.now)

    def settle(self) -> None:
        """Leave nothing waiting for the next tick: whoever is about to
        change what a frame meets (the broker's availability, the loss
        rate) calls this first.  Frames on the medium by now resolve;
        each one still shaper-delayed resolves at its own instant."""
        self.flush(self.sim.now)
        for frame in self._pending:
            self.flush_at(frame[0])

    def flush(self, now: float) -> int:
        """Resolve contention for every deferred frame effective by ``now``.

        One pass stands for one transmit event and one delivery event
        per frame, bit-identically
        (``tests/test_net/test_batched_mac.py`` keeps that per-frame
        arithmetic as the reference):

        - Frames are processed in ``(eff_time, seq)`` order — the order
          per-frame transmit events at ``eff_time`` would fire (the
          kernel dispatches by time, scheduling order breaking ties),
          so the backoff/collision/loss RNG draw sequence is that of
          the per-frame model.  With no shaper delays the queue is
          already in that order and the sort is a linear scan.
        - Each frame contends from its own ``eff_time``, not from
          ``now``: the busy medium serializes it behind the frame
          before it; airtimes are memoized per payload size (the
          computation is a pure function of it).
        - A frame delivered by ``now`` invokes ``on_delivered`` inline,
          in delivery order, stamped with its delivery time; a frame
          still on the air gets a real delivery event.
        - Frames whose ``eff_time`` is still in the future (shaper
          delays) are carried to the next flush.  Nothing enqueued later
          can precede them — a future send happens after ``now`` — so
          carrying preserves the draw order exactly.

        Waiting for a flush is invisible only while nothing reads or
        changes what the frames meet in between; see :meth:`settle`
        and :meth:`flush_at`.  Returns the number of frames resolved.
        """
        pending = self._pending
        if not pending:
            return 0
        pending.sort(key=itemgetter(0, 1))
        self._pending = []
        mac = self.mac
        rng = self._rng
        collision_prob = mac.collision_prob
        cw_max = mac.cw_max
        t_slot = mac.t_slot_s
        difs = mac.difs_s
        loss_prob = self.loss_prob
        airtimes = self._airtime_cache
        sim_at = self.sim.at
        busy = self._busy_until
        resolved = 0
        on_air = self._on_air
        for eff_time, seq, payload_bytes, on_delivered, owner in pending:
            if eff_time > now:
                break
            resolved += 1
            if rng.random() < collision_prob:
                cw = cw_max
            else:
                cw = 15
            backoff = float(rng.integers(0, cw + 1)) * t_slot
            airtime = airtimes.get(payload_bytes)
            if airtime is None:
                airtime = airtimes[payload_bytes] = mac.airtime_s(
                    self.mcs, payload_bytes
                )
            start = max(eff_time, busy) + difs + backoff
            delivery = start + airtime
            busy = self._busy_until = delivery
            self.transmissions += 1
            self.bytes_transmitted += payload_bytes
            self.total_airtime_s += airtime
            if loss_prob > 0.0 and rng.random() < loss_prob:
                self.frames_lost += 1
                continue
            if delivery <= now:
                on_delivered(delivery)
            else:
                on_air[seq] = (delivery, owner)

                def land(t=delivery, cb=on_delivered, seq=seq) -> None:
                    del on_air[seq]
                    cb(t)

                sim_at(delivery, land, label="dsrc-delivery")
        if resolved < len(pending):
            # Carried frames go back in front of anything a delivery
            # callback might have enqueued meanwhile.
            self._pending = pending[resolved:] + self._pending
        return resolved

    def utilization(self, elapsed_s: float) -> float:
        """Fraction of ``elapsed_s`` the medium spent transmitting."""
        if elapsed_s <= 0:
            raise ValueError("elapsed time must be positive")
        return self.total_airtime_s / elapsed_s
