"""Hierarchical token bucket (the ``tc htb`` analogue).

The paper's PC1 shapes each emulated vehicle's traffic with netem HTB:
every producer gets an assured 100 Kb/s, borrowing up to the shared
27 Mb/s DSRC ceiling.  This module models that hierarchy: leaf classes
accumulate tokens at their assured rate and may borrow from the parent
when their own bucket is empty, provided the parent has headroom.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np


#: The bucket fields, columns of :attr:`_Buckets.state` in this order.
_FIELDS = ("rate", "burst", "tokens", "last", "sent", "borrowed")
_RATE, _BURST, _TOKENS, _LAST, _SENT, _BORROWED = range(len(_FIELDS))


class _Buckets:
    """Token-bucket state, a row per class (a shaper's leaves, or a
    lone class's own) and a column per field; byte counts are exact
    integers far below 2**53."""

    def __init__(self, capacity: int = 1) -> None:
        self.state = np.zeros((capacity, len(_FIELDS)))
        self.size = 0

    def add(self, values: Sequence[float]) -> int:
        """Append a row; returns its index."""
        if self.size == len(self.state):
            self.state = np.resize(self.state, (2 * self.size, len(_FIELDS)))
        self.state[self.size] = values
        self.size += 1
        return self.size - 1


class _Column:
    """A class attribute stored in its row of the bucket state."""

    def __init__(self, field: int, kind=float) -> None:
        self.field = field
        self.kind = kind

    def __get__(self, handle, owner=None):
        if handle is None:
            return self
        return self.kind(handle._buckets.state[handle._row, self.field])

    def __set__(self, handle, value) -> None:
        handle._buckets.state[handle._row, self.field] = value


class HtbClass:
    """One token-bucket class: a handle on its row of bucket columns
    (its shaper's, once added to one).

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
    """

    rate_bps = _Column(_RATE)
    burst_bytes = _Column(_BURST)
    tokens = _Column(_TOKENS)
    _last_refill = _Column(_LAST)
    bytes_sent = _Column(_SENT, int)
    bytes_borrowed = _Column(_BORROWED)

    def __init__(
        self,
        name: str,
        rate_bps: float,
        ceil_bps: Optional[float] = None,
        burst_bytes: Optional[float] = None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive: {rate_bps}")
        ceil = ceil_bps if ceil_bps is not None else rate_bps
        if ceil < rate_bps:
            raise ValueError(
                f"ceil ({ceil}) must be >= rate ({rate_bps})"
            )
        self.name = name
        self.ceil_bps = ceil
        burst = burst_bytes if burst_bytes is not None else ceil * 0.100 / 8.0
        self._buckets = _Buckets()
        self._row = self._buckets.add((rate_bps, burst, burst, 0.0, 0, 0.0))

    def _move_to(self, buckets: _Buckets) -> None:
        values = self._buckets.state[self._row]
        self._buckets, self._row = buckets, buckets.add(values)

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
    The leaves' buckets are columns (:class:`HtbClass` handles read and
    write their rows), so a block of packets is charged in array
    rounds (:meth:`send_block`).
    """

    def __init__(self, root: HtbClass) -> None:
        self.root = root
        self._leaves: Dict[str, HtbClass] = {}
        self._buckets = _Buckets(16)

    def add_leaf(self, leaf: HtbClass) -> HtbClass:
        if leaf.name in self._leaves:
            raise ValueError(f"duplicate leaf class {leaf.name!r}")
        if leaf.ceil_bps > self.root.ceil_bps:
            raise ValueError(
                f"leaf {leaf.name!r} ceil ({leaf.ceil_bps}) exceeds the "
                f"root ceil ({self.root.ceil_bps})"
            )
        leaf._move_to(self._buckets)
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
        this packet.  One packet is a block of one (:meth:`send_rows`).
        """
        return self.send_block([leaf_name], [packet_bytes], [now])[0]

    def send_block(
        self,
        leaf_names: Sequence[str],
        packet_sizes: Sequence[int],
        instants: Sequence[float],
    ) -> List[float]:
        """:meth:`send` of each packet in order, packet ``i`` charged to
        ``leaf_names[i]`` at ``instants[i]``; returns the delays."""
        sizes = np.asarray(packet_sizes, dtype=np.float64)
        if sizes.size and sizes.min() <= 0:
            raise ValueError(f"packet size must be positive: {sizes.min():g}")
        rows = np.array(list(map(self.row, leaf_names)), dtype=np.int64)
        return self.send_rows(
            rows, sizes, np.asarray(instants, dtype=np.float64)
        ).tolist()

    def row(self, leaf_name: str) -> int:
        """The row of a leaf's bucket, for :meth:`send_rows`."""
        return self.leaf(leaf_name)._row

    def send_rows(
        self, rows: np.ndarray, sizes: np.ndarray, instants: np.ndarray
    ) -> np.ndarray:
        """:meth:`send_block` by bucket row (:meth:`row`); returns the
        delays as an array.  The leaves refill and pay in array rounds,
        one per repeat of a leaf in the block.  A leaf short of tokens
        ends at zero with its packet counted whatever the root lends,
        so only the borrowers then walk the root, in block order."""
        state = self._buckets.state
        delays = np.zeros(len(rows))
        short = False
        for rank in repeat_ranks(rows):
            leaf, at, size = rows[rank], instants[rank], sizes[rank]
            buckets = state[leaf]
            elapsed = at - buckets[:, _LAST]
            if elapsed.min() < 0:
                late = int(elapsed.argmin())
                name = next(
                    name
                    for name, handle in self._leaves.items()
                    if handle._row == leaf[late]
                )
                raise ValueError(
                    f"time went backwards in {name!r}: "
                    f"{at[late]} < {buckets[late, _LAST]}"
                )
            tokens = np.minimum(
                buckets[:, _BURST],
                buckets[:, _TOKENS] + elapsed * buckets[:, _RATE] / 8.0,
            )
            own = tokens >= size
            buckets[:, _TOKENS] = np.where(own, tokens - size, 0.0)
            buckets[:, _SENT] += size
            buckets[:, _LAST] = at
            state[leaf] = buckets
            if not own.all():
                # a deficit, for now: what the root lends it
                delays[rank] = np.where(own, 0.0, size - tokens)
                short = True
        if short:
            self._borrow(rows, instants, delays)
        return delays

    def _borrow(
        self, rows: np.ndarray, instants: np.ndarray, deficits: np.ndarray
    ) -> None:
        """Walk the borrowers in block order: the root, refilled only
        then, lends each deficit it covers (the delay is then zero);
        the rest wait for their leaf's assured rate."""
        state = self._buckets.state
        root = self.root
        for position in np.flatnonzero(deficits).tolist():
            leaf, deficit = rows[position], deficits[position].item()
            root.refill(instants[position].item())
            if root.tokens >= deficit:
                root.tokens -= deficit
                state[leaf, _BORROWED] += deficit
                deficits[position] = 0.0
            else:
                deficits[position] = deficit / (state[leaf, _RATE].item() / 8.0)

    def aggregate_rate_bps(self, elapsed_s: float) -> float:
        """Mean aggregate throughput over ``elapsed_s``."""
        if elapsed_s <= 0:
            raise ValueError("elapsed time must be positive")
        total = sum(leaf.bytes_sent for leaf in self._leaves.values())
        return total * 8.0 / elapsed_s


def repeat_ranks(keys: np.ndarray) -> List:
    """The positions of ``keys`` in rounds, round ``r`` holding the
    ``r``-th occurrence of each key, in order."""
    if len(set(keys.tolist())) == len(keys):
        return [slice(None)]
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    rank = np.empty(len(keys), np.int64)
    runs = np.diff(np.r_[starts, len(keys)])
    rank[order] = np.arange(len(keys)) - np.repeat(starts, runs)
    return [np.flatnonzero(rank == r) for r in range(int(rank.max()) + 1)]
