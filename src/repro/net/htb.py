"""Hierarchical token bucket (the ``tc htb`` analogue).

The paper's PC1 shapes each emulated vehicle's traffic with netem HTB:
every producer gets an assured 100 Kb/s, borrowing up to the shared
27 Mb/s DSRC ceiling.  This module models that hierarchy: leaf classes
accumulate tokens at their assured rate and may borrow from the parent
when their own bucket is empty, provided the parent has headroom.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple


class HtbClass:
    """One token-bucket class.

    Parameters
    ----------
    name:
        Class identity (e.g. ``"vehicle-17"``).
    rate_bps:
        Assured (guaranteed) rate.
    ceil_bps:
        Maximum rate including borrowed bandwidth; must be >= rate.
    burst_bytes:
        Bucket depth; defaults to 100 ms worth of the ceiling.
    priority:
        Borrow priority under :meth:`HtbShaper.send_prioritized`
        (lower value = charged first, like ``tc htb prio``).  Plain
        :meth:`HtbShaper.send` ignores it.
    """

    def __init__(
        self,
        name: str,
        rate_bps: float,
        ceil_bps: Optional[float] = None,
        burst_bytes: Optional[float] = None,
        priority: int = 0,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive: {rate_bps}")
        ceil = ceil_bps if ceil_bps is not None else rate_bps
        if ceil < rate_bps:
            raise ValueError(
                f"ceil ({ceil}) must be >= rate ({rate_bps})"
            )
        self.name = name
        self.rate_bps = rate_bps
        self.ceil_bps = ceil
        self.burst_bytes = (
            burst_bytes if burst_bytes is not None else ceil * 0.100 / 8.0
        )
        self.priority = priority
        self.tokens = self.burst_bytes
        self._last_refill = 0.0
        self.bytes_sent = 0
        self.bytes_borrowed = 0

    def refill(self, now: float) -> None:
        """Accrue tokens at the assured rate since the last refill."""
        if now < self._last_refill:
            raise ValueError(
                f"time went backwards in {self.name!r}: "
                f"{now} < {self._last_refill}"
            )
        elapsed = now - self._last_refill
        self.tokens = min(
            self.burst_bytes, self.tokens + elapsed * self.rate_bps / 8.0
        )
        self._last_refill = now


class HtbShaper:
    """A one-level HTB hierarchy: a root class and its leaves.

    :meth:`send` charges a leaf for a packet, borrowing from the root
    when the leaf's own tokens run out — the netem configuration of the
    paper's testbed (min 100 Kb/s per producer, 27 Mb/s shared max).
    """

    def __init__(self, root: HtbClass) -> None:
        self.root = root
        self._leaves: Dict[str, HtbClass] = {}

    def add_leaf(self, leaf: HtbClass) -> HtbClass:
        if leaf.name in self._leaves:
            raise ValueError(f"duplicate leaf class {leaf.name!r}")
        if leaf.ceil_bps > self.root.ceil_bps:
            raise ValueError(
                f"leaf {leaf.name!r} ceil ({leaf.ceil_bps}) exceeds the "
                f"root ceil ({self.root.ceil_bps})"
            )
        self._leaves[leaf.name] = leaf
        return leaf

    def leaf(self, name: str) -> HtbClass:
        try:
            return self._leaves[name]
        except KeyError:
            raise KeyError(f"unknown HTB class {name!r}") from None

    def leaves(self) -> List[HtbClass]:
        return list(self._leaves.values())

    def send(self, leaf_name: str, packet_bytes: int, now: float) -> float:
        """Charge a packet to ``leaf_name`` at time ``now``.

        Returns the delay (seconds) before the packet clears the
        shaper: zero when tokens are available (own or borrowed),
        otherwise the time for the leaf's assured rate to accrue the
        deficit — the HTB behaviour of delaying, not dropping.

        The shared root bucket accrues lazily: token accrual is
        associative — ``refill(t1); refill(t3)`` leaves the same level
        as ``refill(t1); refill(t2); refill(t3)``, since min-capped
        linear growth composes — so the root is refilled only when a
        packet actually needs to borrow, not on every packet.  The leaf
        still refills per packet: its level at ``now`` is what prices
        this packet.
        """
        if packet_bytes <= 0:
            raise ValueError(f"packet size must be positive: {packet_bytes}")
        leaf = self.leaf(leaf_name)
        leaf.refill(now)
        if leaf.tokens >= packet_bytes:
            leaf.tokens -= packet_bytes
            leaf.bytes_sent += packet_bytes
            return 0.0
        self.root.refill(now)
        deficit = packet_bytes - leaf.tokens
        if self.root.tokens >= deficit:
            # Borrow the deficit from the parent.
            self.root.tokens -= deficit
            leaf.tokens = 0.0
            leaf.bytes_sent += packet_bytes
            leaf.bytes_borrowed += deficit
            return 0.0
        # Neither own nor borrowable tokens: wait for the assured rate.
        leaf.tokens = 0.0
        leaf.bytes_sent += packet_bytes
        return deficit / (leaf.rate_bps / 8.0)

    def send_prioritized(
        self, requests: Sequence[Tuple[str, int]], now: float
    ) -> List[float]:
        """Charge a burst of packets in leaf-priority order.

        ``requests`` is ``(leaf_name, packet_bytes)`` pairs submitted
        together (e.g. one CO-DATA refresh tick's frames).  Charging
        runs lowest :attr:`HtbClass.priority` value first (stable on
        submission order within a band), so when the burst outruns what
        the shared root can lend, the deficit — and therefore the
        delay — lands on the low-priority band, never on the urgent
        one.  Returns per-packet delays in submission order.
        """
        order = sorted(
            range(len(requests)),
            key=lambda index: (self.leaf(requests[index][0]).priority, index),
        )
        delays = [0.0] * len(requests)
        for index in order:
            leaf_name, packet_bytes = requests[index]
            delays[index] = self.send(leaf_name, packet_bytes, now)
        return delays

    def aggregate_rate_bps(self, elapsed_s: float) -> float:
        """Mean aggregate throughput over ``elapsed_s``."""
        if elapsed_s <= 0:
            raise ValueError("elapsed time must be positive")
        total = sum(leaf.bytes_sent for leaf in self._leaves.values())
        return total * 8.0 / elapsed_s
