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

from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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


#: ``Generator.random()`` is the top 53 bits of one raw draw times 2**-53.
_DOUBLE_UNIT = 2.0**-53
_LOW32 = 0xFFFFFFFF
_LOW64 = 0xFFFFFFFFFFFFFFFF


def _mac_draws(
    bit_generator,
    frames: int,
    collision_prob: float,
    cw_max: int,
    loss_prob: float,
) -> Tuple[List[int], List[bool]]:
    """The backoff slots and loss flags of ``frames`` frames, drawn as
    the per-frame MAC draws them from the channel's ``Generator`` — per
    frame ``random() < collision_prob`` picks ``cw`` (``cw_max`` or
    15), ``integers(0, cw + 1)`` the slots, then, only when ``loss_prob
    > 0``, ``random() < loss_prob`` the loss — but off one
    ``random_raw`` call, decoded in call order on Python ints.

    numpy's 64-bit bit generators make ``random()`` of one raw
    (``(raw >> 11) * 2**-53``) and draw bounded integers below 2**32
    by Lemire's method over buffered 32-bit halves: the low half of a
    fresh raw first, the high half kept (``has_uint32``/``uinteger``)
    for the next bounded draw, a rejected half replaced by the next
    one.  Wider bounds take whole raws.  The raws pre-drawn are exactly
    those the frames take if no half is rejected; a rejection draws
    more as needed, so nothing is over-drawn, and the buffered half is
    written back: the bit generator ends as the per-frame draws leave
    it.
    """
    state = bit_generator.state
    if "has_uint32" not in state:
        raise ValueError(
            "the MAC needs a 64-bit bit generator "
            f"(got {state['bit_generator']})"
        )
    has = state["has_uint32"]
    half = state["uinteger"]
    per_frame = 2 if loss_prob > 0.0 else 1

    def fewest(left: int, has: int) -> int:
        # raws the next ``left`` frames take when no half is rejected
        return left * per_frame + (left - has + 1) // 2

    draw = bit_generator.random_raw
    raws = draw(fewest(frames, has)).tolist()
    pos = 0
    wide = cw_max + 1
    halves = wide <= 1 << 32  # else Lemire over whole raws
    wide_threshold = ((1 << (32 if halves else 64)) - wide) % wide
    simple = halves and not wide_threshold
    slots = [0] * frames
    lost = [False] * frames
    for frame in range(frames):
        collided = (raws[pos] >> 11) * _DOUBLE_UNIT < collision_prob
        pos += 1
        if not collided or simple:
            span = wide if collided else 16
            if has:
                has = 0
                slots[frame] = (half * span) >> 32
            else:
                raw = raws[pos]
                pos += 1
                has = 1
                half = raw >> 32
                slots[frame] = ((raw & _LOW32) * span) >> 32
        else:
            # rejections possible: every raw taken is checked for
            while True:
                if not halves:
                    if pos == len(raws):
                        raws += draw(1).tolist()
                    product = raws[pos] * wide
                    pos += 1
                    if product & _LOW64 >= wide_threshold:
                        slots[frame] = product >> 64
                        break
                    continue
                if has:
                    has = 0
                    value = half
                else:
                    if pos == len(raws):
                        raws += draw(1).tolist()
                    raw = raws[pos]
                    pos += 1
                    has = 1
                    half = raw >> 32
                    value = raw & _LOW32
                product = value * wide
                if product & _LOW32 >= wide_threshold:
                    slots[frame] = product >> 32
                    break
            short = fewest(frames - frame - 1, has) + per_frame - 1 - (
                len(raws) - pos
            )
            if short > 0:
                raws += draw(short).tolist()
        if per_frame == 2:
            lost[frame] = (raws[pos] >> 11) * _DOUBLE_UNIT < loss_prob
            pos += 1
    if (has, half) != (state["has_uint32"], state["uinteger"]):
        state = bit_generator.state
        state["has_uint32"] = has
        state["uinteger"] = half
        bit_generator.state = state
    return slots, lost


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
        # Deferred frames awaiting the next flush, as rows
        # (effective_time, seq, payload_bytes, owner, frame).
        self._pending: List[Tuple] = []
        self._pending_seq = 0
        # Resolved frames whose delivery event has not fired yet:
        # seq -> (delivery_time, owner).
        self._on_air: Dict[int, Tuple[float, object]] = {}
        self._airtime_cache: Dict[int, float] = {}
        #: Lands delivered frames: called with ``[(delivery_time, row),
        #: ...]`` in delivery order (set by the :attr:`fleet`).
        self.lander: Optional[Callable[[List[Tuple]], None]] = None
        #: The members' data plane (``core.vehicle.Fleet``): sends the
        #: beacons due at a flush, adds its per-slot :attr:`columns` and
        #: hears each join and leave.
        self.fleet = None
        #: The beacon grids as columns over cohort slots in join order:
        #: next instant (+inf once ended or left), interval, end (+inf:
        #: none), the fleet's; and each slot's member and ticket.
        self.columns: Dict[str, np.ndarray] = {
            "next": np.empty(0), "interval": np.empty(0), "until": np.empty(0)
        }
        self._members: List[object] = []
        self._ticket_of: List[Optional[int]] = []
        self._slots: Dict[int, int] = {}  # ticket -> slot of a live grid
        self._joins = 0
        self._emitting = False

    # ------------------------------------------------------------------
    # Settled beacons
    # ------------------------------------------------------------------
    def join(
        self,
        member,
        first: float,
        interval: float,
        until: Optional[float] = None,
    ) -> int:
        """Register ``member``'s beacon grid ``first, first + interval,
        ...`` (each instant its predecessor plus ``interval``) while an
        instant is before ``until``; returns its ticket.  The channel's
        :attr:`fleet` (``member``'s data plane) takes the slot."""
        columns = self.columns
        slot = len(self._members)
        if slot == len(columns["next"]):
            if len(self._slots) <= slot // 2:
                slot = self._compact()
            if slot == len(columns["next"]):
                grown = max(16, 2 * slot)
                for name, column in columns.items():
                    columns[name] = np.resize(column, (grown, *column.shape[1:]))
        columns["next"][slot] = first
        columns["interval"][slot] = interval
        columns["until"][slot] = np.inf if until is None else until
        ticket = self._joins
        self._joins += 1
        self._members.append(member)
        self._ticket_of.append(ticket)
        self._slots[ticket] = slot
        self.fleet.joined(slot, member)
        return ticket

    def _compact(self) -> int:
        """Drop the retired slots, keeping join order; returns the first
        free slot."""
        live = sorted(self._slots.values())
        for column in self.columns.values():
            column[: len(live)] = column[live]
        self._members = [self._members[slot] for slot in live]
        self._ticket_of = [self._ticket_of[slot] for slot in live]
        self._slots = {
            ticket: slot for slot, ticket in enumerate(self._ticket_of)
        }
        return len(live)

    def leave(self, ticket: int) -> None:
        """Drop a joined grid (a no-op once it ended)."""
        slot = self._slots.pop(ticket, None)
        if slot is not None:
            self.fleet.left(slot, self._members[slot])
            self.columns["next"][slot] = np.inf
            self._members[slot] = self._ticket_of[slot] = None

    def slot(self, ticket: int) -> Optional[int]:
        """The cohort slot of a joined grid; ``None`` once it ended or
        left."""
        return self._slots.get(ticket)

    def next_beacon(self, ticket: int) -> Optional[float]:
        """The first instant of a joined grid not sent yet, or ``None``
        once the grid ended or left."""
        slot = self._slots.get(ticket)
        return None if slot is None else float(self.columns["next"][slot])

    def emit_due(self, now: float) -> None:
        """Send every joined beacon whose instant is at or before
        ``now``, in the order their simulator events would have fired:
        by instant across the members, ties in join order.

        The due instants come off the columns in rounds (a member is due
        0 or 1 times per flush, rarely more), each round one vector add
        of the intervals; one sort by instant, then slot, puts them in
        kernel order and the channel's :attr:`fleet` sends them as one
        block (``Fleet.emit``).
        Nothing joins or leaves while beacons are sent.
        """
        if self._emitting or not self._slots:
            return
        columns = self.columns
        upcoming = columns["next"][: len(self._members)]
        due = np.flatnonzero(upcoming <= now)
        if not due.size:
            return
        instants, slots, ended = [], [], []
        while due.size:
            at = upcoming[due]
            instants.append(at)
            slots.append(due)
            following = at + columns["interval"][due]
            over = following >= columns["until"][due]
            if over.any():
                following[over] = np.inf
                ended.extend(due[over].tolist())
            upcoming[due] = following
            due = due[following <= now]
        if len(slots) == 1:
            # one instant per member: ties keep slot order, join order
            order = at.argsort(kind="stable")
            at, due = at[order], slots[0][order]
        else:
            at, due = np.concatenate(instants), np.concatenate(slots)
            order = np.lexsort((due, at))
            at, due = at[order], due[order]
        members = list(map(self._members.__getitem__, due.tolist()))
        self._emitting = True
        try:
            self.fleet.emit(at, due, members)
        finally:
            self._emitting = False
            for slot in ended:
                self.leave(self._ticket_of[slot])

    def arm_degraded(self) -> None:
        """Let every joined member whose frames can no longer wait for a
        flush schedule its next beacon as an event (``member.arm()``)."""
        for slot in sorted(self._slots.values()):
            self._members[slot].arm()

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
        owner: object = None,
        frame: object = None,
    ) -> None:
        """Defer one frame to the next :meth:`flush`.

        ``eff_time`` is the instant the frame reaches the medium — the
        send instant plus any shaper delay.  ``owner`` tags the frame
        so a handover can move a sender's not-yet-effective frames to
        its new channel (:meth:`take_pending`); ``frame`` is the
        owner's, handed back to :attr:`lander` on delivery in the row.
        """
        self._pending.append(
            (eff_time, self._pending_seq, payload_bytes, owner, frame)
        )
        self._pending_seq += 1

    def enqueue_block(
        self,
        eff_times: Sequence[float],
        sizes: Sequence[int],
        owners: Sequence[object],
        frames: Sequence[object],
    ) -> None:
        """:meth:`enqueue` of each frame, in order."""
        seq = self._pending_seq
        self._pending_seq = seq + len(eff_times)
        seqs = range(seq, self._pending_seq)
        self._pending.extend(zip(eff_times, seqs, sizes, owners, frames))

    def take_pending(self, owner: object) -> List[Tuple]:
        """Remove and return ``owner``'s deferred frames (handover)."""
        taken = [frame for frame in self._pending if frame[3] is owner]
        if taken:
            self._pending = [
                frame for frame in self._pending if frame[3] is not owner
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

        The joined beacons due by ``now`` are sent first
        (:meth:`emit_due`), so every caller of a flush sees the frames
        of the 10 Hz grids as the beacon events would have left them.
        One pass then stands for one transmit event and one delivery
        event per frame, bit-identically
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
        - The frames delivered by ``now`` are handed to :attr:`lander`
          in one call, in delivery order, each with its delivery time;
          a frame still on the air gets a real delivery event.
        - Frames whose ``eff_time`` is still in the future (shaper
          delays) are carried to the next flush.  Nothing enqueued later
          can precede them — a future send happens after ``now`` — so
          carrying preserves the draw order exactly.

        Waiting for a flush is invisible only while nothing reads or
        changes what the frames meet in between; see :meth:`settle`
        and :meth:`flush_at`.  Returns the number of frames resolved.
        """
        self.emit_due(now)
        pending = self._pending
        if not pending:
            return 0
        pending.sort(key=itemgetter(0, 1))
        self._pending = []
        resolved = len(pending)
        if pending[-1][0] > now:
            resolved = bisect_right([row[0] for row in pending], now)
            self._pending = pending[resolved:]
        if not resolved:
            return 0
        mac = self.mac
        slots, lost = _mac_draws(
            self._rng.bit_generator,
            resolved,
            mac.collision_prob,
            mac.cw_max,
            self.loss_prob,
        )
        t_slot = mac.t_slot_s
        difs = mac.difs_s
        airtimes = self._airtime_cache
        sim_at = self.sim.at
        busy = self._busy_until
        airtime_total = self.total_airtime_s
        on_air = self._on_air
        delivered: List[Tuple[float, Tuple]] = []
        for row, slot, dropped in zip(pending, slots, lost):
            eff_time, seq, payload_bytes, owner, _ = row
            airtime = airtimes.get(payload_bytes)
            if airtime is None:
                airtime = airtimes[payload_bytes] = mac.airtime_s(
                    self.mcs, payload_bytes
                )
            busy = max(eff_time, busy) + difs + slot * t_slot + airtime
            airtime_total += airtime
            if dropped:
                continue
            if busy <= now:
                delivered.append((busy, row))
            else:
                on_air[seq] = (busy, owner)

                def land(t=busy, row=row, seq=seq) -> None:
                    del on_air[seq]
                    self.lander([(t, row)])

                sim_at(busy, land, label="dsrc-delivery")
        self._busy_until = busy
        self.transmissions += resolved
        self.bytes_transmitted += sum([row[2] for row in pending[:resolved]])
        self.total_airtime_s = airtime_total
        self.frames_lost += sum(lost)
        if delivered:
            self.lander(delivered)
        return resolved

    def utilization(self, elapsed_s: float) -> float:
        """Fraction of ``elapsed_s`` the medium spent transmitting."""
        if elapsed_s <= 0:
            raise ValueError("elapsed time must be positive")
        return self.total_airtime_s / elapsed_s
