"""Segment arena: pooled columnar vehicle storage for the fused kernel.

One shard owns one arena — three parallel pooled arrays (``ids``,
``depart``, ``leave``) in which every RSU's resident vehicles live as
one contiguous segment.  A segment is addressed by an integer *handle*
into the ``off`` / ``length`` / ``cap`` tables, so cross-RSU batched
tick work is plain fancy indexing over pooled arrays instead of one
small-array call per RSU.

Allocation policy
-----------------
- Segments reserve power-of-two capacities (min :data:`MIN_SEGMENT`)
  and grow by doubling: a relocation copies only the live rows, and
  amortized admit cost is O(1) per vehicle — this is what removes the
  reference engine's triple ``np.concatenate`` per admit (the
  per-RSU engine in ``tests/test_city/reference.py``).
- Freed and vacated blocks go to a first-fit free list kept sorted by
  offset with neighbour coalescing.
- When no free block fits but total free space does (fragmentation
  after churny rebalances), an epoch compaction repacks every segment
  left-justified in handle order; only then does the arena itself grow
  (also by doubling).

Holes
-----
A segment's ``[off, off + length)`` extent holds its rows *in order*
but may contain **holes**: rows retired in place by stamping the
dead-slot sentinels (``leave = +inf`` / ``depart = -inf``) rather than
sliding every survivor left.  ``live[handle]`` counts the non-hole
rows.  This is what makes per-tick churn O(dropped) instead of
O(resident): the fused tick's due scan (``leave <= now`` over the pool
prefix, bounded by ``high_water``) never sees a hole because holes are
never due, and per-segment order is preserved because stamping never
reorders.  Only when a segment's holes outgrow its live rows does it
get re-packed (:meth:`compact_segment`, in place) — the epoch analogue
of a garbage collection, amortized O(1) per retirement.

Every slot outside the segment extents (tail slack, free blocks)
carries the same sentinels, so :meth:`check` can assert the full
structure: segments and free blocks exactly tile the pool, hole
counts match ``length - live``, and every dead slot is stamped.  The
hypothesis suite drives it through random op sequences.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

#: Smallest segment capacity ever reserved (slots).
MIN_SEGMENT = 64

#: Dead-slot sentinels (see module docstring): a dead slot is never due
#: and never kept.
DEAD_LEAVE = np.inf
DEAD_DEPART = -np.inf


def _pow2_at_least(n: int) -> int:
    return 1 << max(int(n) - 1, 1).bit_length() if n > 2 else 2


def segment_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``[starts[j], starts[j] + counts[j])`` index ranges.

    The scatter/gather workhorse: one call yields the pooled-array
    positions of every segment's rows (or tails) without a Python loop.
    Built as a cumsum over a stride-1 delta array with segment-boundary
    jumps scattered in — one pass over the output instead of the ~5 a
    ``repeat`` + ``arange`` construction costs.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    if counts.min() <= 0:
        nonzero = counts > 0
        starts = starts[nonzero]
        counts = counts[nonzero]
    step = np.ones(total, dtype=np.int64)
    step[0] = starts[0]
    if counts.size > 1:
        bounds = np.cumsum(counts[:-1])
        step[bounds] = starts[1:] - starts[:-1] - counts[:-1] + 1
    return np.cumsum(step)


class SegmentArena:
    """Pooled ``ids`` / ``depart`` / ``leave`` columns plus segment tables."""

    __slots__ = (
        "capacity",
        "high_water",
        "ids",
        "depart",
        "leave",
        "off",
        "length",
        "live",
        "cap",
        "_free_handles",
        "_n_handles",
        "_free_blocks",
        "relocations",
        "compactions",
        "grows",
    )

    def __init__(self, capacity_hint: int = 4096) -> None:
        self.capacity = _pow2_at_least(max(int(capacity_hint), MIN_SEGMENT))
        self.high_water = 0
        self.ids = np.empty(self.capacity, dtype=np.int64)
        self.depart = np.full(self.capacity, DEAD_DEPART, dtype=np.float64)
        self.leave = np.full(self.capacity, DEAD_LEAVE, dtype=np.float64)
        # Handle-indexed segment tables; a freed handle keeps cap == 0.
        # `length` is the physical extent (live rows + holes), `live`
        # the number of non-hole rows.
        self.off = np.zeros(8, dtype=np.int64)
        self.length = np.zeros(8, dtype=np.int64)
        self.live = np.zeros(8, dtype=np.int64)
        self.cap = np.zeros(8, dtype=np.int64)
        self._free_handles: List[int] = []
        self._n_handles = 0
        #: (offset, size) blocks sorted by offset, coalesced.
        self._free_blocks: List[List[int]] = [[0, self.capacity]]
        self.relocations = 0
        self.compactions = 0
        self.grows = 0

    # -- segment lifecycle --------------------------------------------
    def alloc(self, reserve: int = MIN_SEGMENT) -> int:
        """Create an empty segment with at least ``reserve`` capacity."""
        want = _pow2_at_least(max(int(reserve), MIN_SEGMENT))
        if self._free_handles:
            handle = self._free_handles.pop()
        else:
            handle = self._n_handles
            self._n_handles += 1
            if handle >= self.off.size:
                grown = self.off.size * 2
                for name in ("off", "length", "live", "cap"):
                    table = np.zeros(grown, dtype=np.int64)
                    table[: getattr(self, name).size] = getattr(self, name)
                    setattr(self, name, table)
        self.off[handle] = self._take_block(want)
        self.length[handle] = 0
        self.live[handle] = 0
        self.cap[handle] = want
        return handle

    def free(self, handle: int) -> None:
        """Return a segment's whole capacity block to the free list."""
        self.kill_rows(int(self.off[handle]), int(self.length[handle]))
        self._give_block(int(self.off[handle]), int(self.cap[handle]))
        self.off[handle] = 0
        self.length[handle] = 0
        self.live[handle] = 0
        self.cap[handle] = 0
        self._free_handles.append(handle)

    def reserve(self, handle: int, extra: int) -> None:
        """Ensure ``extra`` more rows fit past the physical tail.

        Reclaims holes in place when that alone makes room; otherwise
        relocates to a doubled block, copying (and de-holing) only the
        live rows.
        """
        need = int(self.length[handle]) + int(extra)
        old_cap = int(self.cap[handle])
        if need <= old_cap:
            return
        live = int(self.live[handle])
        holes = int(self.length[handle]) - live
        # Reclaim in place only when it buys real runway (hysteresis):
        # a near-full segment with a handful of holes would otherwise
        # re-pack every tick, copying all live rows to gain a few slots.
        if live + int(extra) <= old_cap and holes >= max(
            int(extra), old_cap >> 2
        ):
            self.compact_segment(handle)
            return
        want = _pow2_at_least(max(live + int(extra), old_cap * 2))
        # _take_block may compact, which moves (and re-reads) this very
        # segment — fetch off/length only after the block is secured.
        new_off = self._take_block(want)
        old_off = int(self.off[handle])
        n = int(self.length[handle])
        if n:
            window = slice(old_off, old_off + n)
            if live == n:
                self.ids[new_off : new_off + n] = self.ids[window]
                self.depart[new_off : new_off + n] = self.depart[window]
                self.leave[new_off : new_off + n] = self.leave[window]
            else:
                keep = self.leave[window] != DEAD_LEAVE
                self.ids[new_off : new_off + live] = self.ids[window][keep]
                self.depart[new_off : new_off + live] = self.depart[window][keep]
                self.leave[new_off : new_off + live] = self.leave[window][keep]
            self.kill_rows(old_off, n)
            self.relocations += 1
        self._give_block(old_off, int(self.cap[handle]))
        self.off[handle] = new_off
        self.length[handle] = live
        self.cap[handle] = want

    def compact_segment(self, handle: int) -> None:
        """Slide a segment's live rows left over its holes (in place).

        Stable: boolean extraction preserves row order, which the
        detection digests depend on.
        """
        lo = int(self.off[handle])
        n = int(self.length[handle])
        live = int(self.live[handle])
        if live == n:
            return
        window = slice(lo, lo + n)
        keep = self.leave[window] != DEAD_LEAVE
        self.ids[lo : lo + live] = self.ids[window][keep]
        self.depart[lo : lo + live] = self.depart[window][keep]
        self.leave[lo : lo + live] = self.leave[window][keep]
        self.kill_rows(lo + live, n - live)
        self.length[handle] = live
        self.compactions += 1

    def append(self, handle: int, ids, depart, leave) -> None:
        """Append rows to one segment (the slow path; the fused tick
        batches appends across segments with :func:`segment_ranges`)."""
        n = len(ids)
        if not n:
            return
        self.reserve(handle, n)
        tail = int(self.off[handle]) + int(self.length[handle])
        self.ids[tail : tail + n] = ids
        self.depart[tail : tail + n] = depart
        self.leave[tail : tail + n] = leave
        self.length[handle] += n
        self.live[handle] += n

    def kill_rows(self, start: int, count: int) -> None:
        """Stamp the dead-slot sentinels over a vacated row range."""
        self.leave[start : start + count] = DEAD_LEAVE
        self.depart[start : start + count] = DEAD_DEPART

    def rows(self, handle: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of one segment's physical extent — may contain holes
        (valid until the next alloc)."""
        lo = int(self.off[handle])
        hi = lo + int(self.length[handle])
        return self.ids[lo:hi], self.depart[lo:hi], self.leave[lo:hi]

    def extract(self, handle: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense copies of one segment's live rows, holes elided, order
        preserved — the pack/transfer representation."""
        ids, depart, leave = self.rows(handle)
        if int(self.live[handle]) == ids.size:
            return ids.copy(), depart.copy(), leave.copy()
        keep = leave != DEAD_LEAVE
        return ids[keep], depart[keep], leave[keep]

    # -- block management ---------------------------------------------
    def _take_block(self, want: int) -> int:
        for block in self._free_blocks:
            if block[1] >= want:
                offset = block[0]
                block[0] += want
                block[1] -= want
                if block[1] == 0:
                    self._free_blocks.remove(block)
                if offset + want > self.high_water:
                    self.high_water = offset + want
                return offset
        if sum(b[1] for b in self._free_blocks) >= want:
            self.compact()
            return self._take_block(want)
        self._grow(want)
        return self._take_block(want)

    def _give_block(self, offset: int, size: int) -> None:
        if size == 0:
            return
        blocks = self._free_blocks
        lo = 0
        while lo < len(blocks) and blocks[lo][0] < offset:
            lo += 1
        blocks.insert(lo, [offset, size])
        # Coalesce with right then left neighbour.
        if lo + 1 < len(blocks) and blocks[lo][0] + blocks[lo][1] == blocks[lo + 1][0]:
            blocks[lo][1] += blocks[lo + 1][1]
            del blocks[lo + 1]
        if lo > 0 and blocks[lo - 1][0] + blocks[lo - 1][1] == blocks[lo][0]:
            blocks[lo - 1][1] += blocks[lo][1]
            del blocks[lo]

    def compact(self) -> None:
        """Repack every live segment left-justified, in handle order.

        Rewrites into fresh pool arrays (segments may move rightward
        when an earlier segment's capacity grew, so in-place sliding is
        not safe in general); rare enough that the full copy is noise.
        """
        new_ids = np.empty(self.capacity, dtype=np.int64)
        new_depart = np.full(self.capacity, DEAD_DEPART, dtype=np.float64)
        new_leave = np.full(self.capacity, DEAD_LEAVE, dtype=np.float64)
        cursor = 0
        for handle in range(self._n_handles):
            seg_cap = int(self.cap[handle])
            if seg_cap == 0:
                continue
            n = int(self.length[handle])
            live = int(self.live[handle])
            lo = int(self.off[handle])
            if live == n:
                if n:
                    new_ids[cursor : cursor + n] = self.ids[lo : lo + n]
                    new_depart[cursor : cursor + n] = self.depart[lo : lo + n]
                    new_leave[cursor : cursor + n] = self.leave[lo : lo + n]
            else:
                # De-hole while we're rewriting anyway (stable).
                window = slice(lo, lo + n)
                keep = self.leave[window] != DEAD_LEAVE
                new_ids[cursor : cursor + live] = self.ids[window][keep]
                new_depart[cursor : cursor + live] = self.depart[window][keep]
                new_leave[cursor : cursor + live] = self.leave[window][keep]
                self.length[handle] = live
            self.off[handle] = cursor
            cursor += seg_cap
        self.ids, self.depart, self.leave = new_ids, new_depart, new_leave
        self._free_blocks = (
            [[cursor, self.capacity - cursor]] if cursor < self.capacity else []
        )
        self.high_water = cursor
        self.compactions += 1

    def _grow(self, min_extra: int) -> None:
        new_capacity = self.capacity * 2
        while new_capacity - self.capacity < min_extra:
            new_capacity *= 2
        fills = {"ids": None, "depart": DEAD_DEPART, "leave": DEAD_LEAVE}
        for name, fill in fills.items():
            old = getattr(self, name)
            if fill is None:
                grown = np.empty(new_capacity, dtype=old.dtype)
            else:
                grown = np.full(new_capacity, fill, dtype=old.dtype)
            grown[: self.capacity] = old
            setattr(self, name, grown)
        self._give_block(self.capacity, new_capacity - self.capacity)
        self.capacity = new_capacity
        self.grows += 1

    # -- accounting / invariants --------------------------------------
    def live_rows(self) -> int:
        return int(self.live[: self._n_handles].sum())

    def stats(self) -> dict:
        return {
            "capacity": self.capacity,
            "live_rows": self.live_rows(),
            "holes": int(
                (self.length[: self._n_handles] - self.live[: self._n_handles]).sum()
            ),
            "relocations": self.relocations,
            "compactions": self.compactions,
            "grows": self.grows,
        }

    def check(self) -> None:
        """Assert the structural invariants (test/debug only).

        Segment capacity ranges and free blocks must exactly tile
        ``[0, capacity)`` with no overlap — i.e. the free list never
        aliases a live segment and no slot leaks; every dead slot (tail
        slack, free blocks, and in-extent holes) must carry the
        ``leave``/``depart`` sentinels; and each segment's hole count
        must equal ``length - live``.
        """
        spans = []
        for handle in range(self._n_handles):
            seg_cap = int(self.cap[handle])
            if seg_cap == 0:
                continue
            n = int(self.length[handle])
            live = int(self.live[handle])
            if not 0 <= n <= seg_cap:
                raise AssertionError(f"handle {handle}: length {n} > cap {seg_cap}")
            if not 0 <= live <= n:
                raise AssertionError(f"handle {handle}: live {live} > length {n}")
            spans.append((int(self.off[handle]), seg_cap, f"seg {handle}"))
        for offset, size in self._free_blocks:
            if size <= 0:
                raise AssertionError(f"empty free block at {offset}")
            spans.append((offset, size, "free"))
        spans.sort()
        cursor = 0
        for offset, size, label in spans:
            if offset != cursor:
                kind = "overlap" if offset < cursor else "gap"
                raise AssertionError(
                    f"{kind} at {offset} (expected {cursor}) before {label}"
                )
            cursor += size
        if cursor != self.capacity:
            raise AssertionError(f"pool tiles to {cursor}, capacity {self.capacity}")
        dead = np.ones(self.capacity, dtype=bool)
        hw = 0
        for handle in range(self._n_handles):
            if int(self.cap[handle]) == 0:
                continue
            lo = int(self.off[handle])
            n = int(self.length[handle])
            dead[lo : lo + n] = False
            hw = max(hw, lo + int(self.cap[handle]))
            window_leave = self.leave[lo : lo + n]
            window_depart = self.depart[lo : lo + n]
            holes = window_leave == DEAD_LEAVE
            if int(holes.sum()) != n - int(self.live[handle]):
                raise AssertionError(
                    f"handle {handle}: hole count != length - live"
                )
            if not np.all(np.isneginf(window_depart[holes])):
                raise AssertionError(f"handle {handle}: hole without depart sentinel")
            if np.any(np.isneginf(window_depart[~holes])):
                raise AssertionError(f"handle {handle}: live row with depart sentinel")
        if hw > self.high_water:
            raise AssertionError(
                f"high_water {self.high_water} below segment end {hw}"
            )
        if not np.all(np.isposinf(self.leave[dead])):
            raise AssertionError("dead slot without leave sentinel")
        if not np.all(np.isneginf(self.depart[dead])):
            raise AssertionError("dead slot without depart sentinel")
