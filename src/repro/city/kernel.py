"""Fused city tick kernel: cross-RSU batched ticks over a segment arena.

The deterministic array work of a tick (admission, due masks,
finished/mover split, keep-compaction, move routing) runs as pooled
operations over one :class:`SegmentArena` per shard instead of a Python
loop over per-RSU arrays.  Its reference is the per-RSU object engine
in ``tests/test_city/reference.py``: every rolling SHA-256 digest chain
must be bit-identical to that engine's.

Why fusing is digest-safe
-------------------------
Every random draw an RSU makes comes from its own named stream
(``city.<rsu>``), so draws for different RSUs commute: the fused kernel
may batch *deterministic* work across RSUs in any order as long as each
stream's internal draw order (poisson → trip → stay → stay2 → pick →
binomial → choice) is preserved — which the three short per-RSU loops
below do, iterating owned RSUs in the same sorted order as the
reference.  What *cannot* be reordered is element order within one
RSU's arrays (the detection ``choice`` indexes array positions), so the
keep-compaction scatter is stable and admits append in the reference's
``(dst, src)`` lexsort order.  The fused kernel also emits one
concatenated move bundle per tick instead of one per RSU; the receiving
side's stable lexsort makes the two framings indistinguishable.

The per-phase breakdown (``CitySpec(profile=True)``) wraps the five
phases in ``repro.obs`` spans: ``city.arrivals``, ``city.churn``,
``city.moves``, ``city.detect``, ``city.digest``.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.city.arena import (
    DEAD_DEPART,
    DEAD_LEAVE,
    MIN_SEGMENT,
    SegmentArena,
    segment_ranges,
)
from repro.city.model import CitySpec
from repro.city.topology import CityTopology
from repro.obs.trace import span
from repro.simkernel.rng import RngRegistry, substream_name

#: Vehicle ids are ``spawning_rsu_index * ID_STRIDE + per-RSU counter``,
#: so an id names its origin and never collides city-wide.
ID_STRIDE = 10**8

TICK_DIGEST = struct.Struct("<qq")

#: One tick's vehicle moves as five parallel arrays:
#: (dst rsu index, src rsu index, vehicle id, trip end, residence end).
MoveBundle = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def rsu_stream_name(rsu_name: str) -> str:
    """The RNG stream an RSU draws from, spelled once for all engines."""
    return substream_name("city", rsu_name)


#: Masks for splitting raw PCG64 outputs into the 32-bit halves that
#: numpy's bounded-integer sampler actually consumes (low half first).
_U32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
_PCG_PERIOD = 1 << 128


class _PickStream:
    """Bit-exact fast path for ``rng.integers(0, n, m)`` on PCG64.

    ``Generator.integers`` pays ~5us of Python-level plumbing (two
    ``np.prod`` round trips inside the Cython wrapper) per call, which
    the mover loop pays once per RSU per tick — the single largest cost
    in the fused tick.  This class reproduces the identical draw
    straight from ``BitGenerator.random_raw``: numpy samples bounded
    integers below 2**32 with Lemire multiply-shift rejection over
    *buffered 32-bit halves* of the raw uint64 stream (low half first,
    ``out = (half * n) >> 32``, retry while ``(half * n) & 0xffffffff``
    is under ``(2**32 - n) % n``).  The one piece of state
    ``random_raw`` cannot see — the buffered odd half — is kept as a
    shadow here and pushed back into the bit generator (``sync_out``)
    before anything else reads it: a real ``Generator.choice`` call or
    a state snapshot for a rebalance handover.  Draw-for-draw
    equivalence is pinned by the kernel tests; any bit generator other
    than PCG64 falls back to ``Generator.integers`` itself.
    """

    __slots__ = (
        "gen",
        "bg",
        "raw",
        "n",
        "n64",
        "thr",
        "thr_i",
        "has",
        "half",
        "fast",
    )

    def __init__(self, gen: np.random.Generator, n: int) -> None:
        self.gen = gen
        self.bg = gen.bit_generator
        self.raw = self.bg.random_raw
        self.n = int(n)
        self.has = False
        self.half = 0
        self.fast = (
            isinstance(self.bg, np.random.PCG64) and 1 < self.n <= 0xFFFFFFFF
        )
        if self.fast:
            self.n64 = np.uint64(self.n)
            self.thr_i = ((1 << 32) - self.n) % self.n
            self.thr = np.uint64(self.thr_i)
            self.sync_in()

    # -- shadow buffer <-> bit generator ------------------------------
    def sync_in(self) -> None:
        """Pull a buffered half out of the bit generator (invariant:
        between syncs the generator's own buffer flag stays clear, so
        the hot path never reads the state dict)."""
        state = self.bg.state
        if state["has_uint32"]:
            self.has = True
            self.half = int(state["uinteger"])
            state["has_uint32"] = 0
            self.bg.state = state
        else:
            self.has = False

    def sync_out(self) -> None:
        """Push the shadow half back before a real consumer — a
        ``Generator.choice`` call or a ``state_of`` snapshot."""
        if self.has:
            state = self.bg.state
            state["has_uint32"] = 1
            state["uinteger"] = self.half
            self.bg.state = state
            self.has = False

    # -- the draw -----------------------------------------------------
    def draw_into(self, dest: np.ndarray, a: int, b: int) -> None:
        """Write ``integers(0, n, b - a)`` into ``dest[a:b]``."""
        m = b - a
        if not self.fast:
            if self.n == 1:
                dest[a:b] = 0
                return
            dest[a:b] = self.gen.integers(0, self.n, m)
            return
        n = self.n
        thr_i = self.thr_i
        pre = 1 if self.has else 0
        if pre and (self.half * n) & 0xFFFFFFFF < thr_i:
            self._draw_slow(dest, a, b, None)
            return
        need = m - pre
        if need <= 0:
            # A single pick served entirely by the buffered half.
            dest[a] = (self.half * n) >> 32
            self.has = False
            return
        if need <= 2:
            # One raw serves the whole draw: plain-int arithmetic beats
            # a chain of tiny-array ufuncs at this size (most mover
            # windows are this small).
            r = int(self.raw())
            p1 = (r & 0xFFFFFFFF) * n
            p2 = (r >> 32) * n
            if (p1 & 0xFFFFFFFF) < thr_i or (
                need == 2 and (p2 & 0xFFFFFFFF) < thr_i
            ):
                self._draw_slow(dest, a, b, np.array([r], dtype=np.uint64))
                return
            if pre:
                dest[a] = (self.half * n) >> 32
            dest[a + pre] = p1 >> 32
            if need == 2:
                dest[a + pre + 1] = p2 >> 32
                self.has = False
            else:
                self.has = True
                self.half = r >> 32
            return
        nraws = (need + 1) >> 1
        raw = self.raw(nraws)
        lo = raw & _U32
        hi = raw >> _SH32
        n_lo = (need + 1) >> 1
        n_hi = need >> 1
        n64 = self.n64
        plo = lo * n64
        phi = hi * n64
        if thr_i:
            thr = self.thr
            if ((plo & _U32) < thr)[:n_lo].any() or (
                n_hi and ((phi & _U32) < thr)[:n_hi].any()
            ):
                self._draw_slow(dest, a, b, raw)
                return
        if pre:
            dest[a] = (self.half * n) >> 32
        dest[a + pre : b : 2] = (plo >> _SH32)[:n_lo]
        if n_hi:
            dest[a + pre + 1 : b : 2] = (phi >> _SH32)[:n_hi]
        if need & 1:
            self.has = True
            self.half = int(hi[nraws - 1])
        else:
            self.has = False

    def _draw_slow(self, dest, a, b, raw) -> None:
        """Sequential walk for the (astronomically rare) Lemire
        rejection: consume halves one by one, drawing more raws as
        needed, then rewind whole unconsumed raws via ``advance`` and
        shadow a trailing odd half."""
        halves: List[int] = [self.half] if self.has else []
        pre = len(halves)
        drawn = 0
        if raw is not None:
            drawn = len(raw)
            for r in raw.tolist():
                halves.append(r & 0xFFFFFFFF)
                halves.append(r >> 32)
        n = self.n
        thr = self.thr_i
        out: List[int] = []
        i = 0
        m = b - a
        while len(out) < m:
            while i >= len(halves):
                extra = self.raw(4)
                drawn += 4
                for r in extra.tolist():
                    halves.append(r & 0xFFFFFFFF)
                    halves.append(r >> 32)
            h = halves[i]
            i += 1
            prod = h * n
            if prod & 0xFFFFFFFF >= thr:
                out.append(prod >> 32)
        dest[a:b] = out
        # i halves consumed out of pre + 2*drawn available.
        consumed_raw_halves = i - pre
        back = drawn - ((consumed_raw_halves + 1) >> 1)
        if back:
            self.bg.advance(_PCG_PERIOD - back)
        if consumed_raw_halves & 1:
            self.has = True
            self.half = halves[pre + consumed_raw_halves]
        else:
            self.has = False


class RsuCell:
    """One RSU's scalar state; its vehicle rows live in the arena."""

    __slots__ = (
        "index",
        "name",
        "neighbours",
        "arrival_rate_s",
        "handle",
        "spawned",
        "retired",
        "warnings",
        "digest",
    )

    def __init__(
        self, index: int, name: str, neighbours, arrival_rate_s: float, handle: int
    ):
        self.index = index
        self.name = name
        self.neighbours = np.asarray(neighbours, dtype=np.int64)
        self.arrival_rate_s = arrival_rate_s
        self.handle = handle
        self.spawned = 0
        self.retired = 0
        self.warnings = 0
        self.digest = b""


class FusedShardState:
    """The RSUs one process owns, their arena and their RNG streams.

    Used directly by the serial engine (owning every RSU) and by each
    city shard worker (owning its slice).  Ownership changes only via
    :meth:`detach` / :meth:`adopt`, which the sharded protocol invokes
    strictly between ticks; the pack dict they exchange is the one the
    test tree's reference engine uses, so a FRAME_RSU_STATE produced by
    either adopts cleanly into the other.
    """

    def __init__(
        self, spec: CitySpec, topology: CityTopology, owned: Iterable[int]
    ) -> None:
        self.spec = spec
        self.topology = topology
        self.registry = RngRegistry(spec.seed)
        self.base_rate_s = spec.arrivals_per_rsu_hour / 3600.0
        self.moves_applied = 0
        owned = sorted(owned)
        # Size the pool near Little's-law steady state so the ramp-up
        # does a handful of doublings, not hundreds.
        expected = sum(
            self.base_rate_s * topology.rsus[i].arrival_weight for i in owned
        ) * spec.mean_trip_s * spec.demand_wave.peak
        self.arena = SegmentArena(int(expected * 1.25) + MIN_SEGMENT * len(owned))
        #: Global RSU index -> arena handle for RSUs we own, else -1.
        self._handle_of = np.full(len(topology), -1, dtype=np.int64)
        self.rsus: Dict[int, RsuCell] = {}
        self._picks: Dict[int, _PickStream] = {}
        for index in owned:
            self.rsus[index] = self._fresh(index)
        self._rebuild_order()

    def _fresh(self, index: int) -> RsuCell:
        rsu = self.topology.rsus[index]
        cell = RsuCell(
            index,
            rsu.name,
            rsu.neighbours,
            self.base_rate_s * rsu.arrival_weight,
            self.arena.alloc(),
        )
        self._handle_of[index] = cell.handle
        return cell

    def _rebuild_order(self) -> None:
        # Same identity-token contract as the reference: `_indices` is
        # rebuilt only on ownership changes, so the worker's window
        # accumulator can key on object identity.
        self._order = sorted(self.rsus)
        self._indices = np.asarray(self._order, dtype=np.int64)
        self._cells = [
            (
                self.rsus[index],
                self.registry.stream(rsu_stream_name(self.rsus[index].name)),
            )
            for index in self._order
        ]
        # Per-phase views of the same cells with the bound RNG methods
        # cached: the three per-RSU loops run every tick, and attribute
        # lookups on Generator plus numpy-scalar indexing are a large
        # fraction of their cost at city scale.
        self._arr_cells = [
            (cell, cell.arrival_rate_s, rng.poisson, rng.standard_exponential)
            for cell, rng in self._cells
        ]
        # The neighbour-pick streams carry a shadow buffer half across
        # rebuilds, so they persist per RSU for the stream's lifetime
        # (detach drops them after syncing the shadow back).
        for cell, rng in self._cells:
            pick = self._picks.get(cell.index)
            if pick is None or pick.gen is not rng:
                self._picks[cell.index] = _PickStream(
                    rng, int(cell.neighbours.size)
                )
        # ``standard_exponential`` with ``out=`` writes the raw draws
        # straight into the shared stay buffer; the scale factor is a
        # deferred elementwise multiply (bitwise-equal to
        # ``exponential(scale, k)``, which is itself raw * scale).
        self._mv_cells = [
            (
                rng.standard_exponential,
                self._picks[cell.index].draw_into,
                int(cell.neighbours.size),
            )
            for cell, rng in self._cells
        ]
        self._det_cells = []
        for cell, rng in self._cells:
            pick = self._picks[cell.index]
            self._det_cells.append(
                (cell, rng.binomial, rng.choice, pick if pick.fast else None)
            )
        self._handles = np.asarray(
            [self.rsus[index].handle for index in self._order], dtype=np.int64
        )
        self._handles_list = self._handles.tolist()
        # Flattened neighbour table: mover destinations resolve with one
        # fused gather instead of one fancy-index per RSU per tick.
        offsets = np.zeros(len(self._order), dtype=np.int64)
        flat: List[np.ndarray] = []
        cursor = 0
        for j, index in enumerate(self._order):
            nbrs = self.rsus[index].neighbours
            offsets[j] = cursor
            if nbrs.size:
                flat.append(nbrs)
                cursor += nbrs.size
        self._nbr_off = offsets
        self._nbr_flat = (
            np.concatenate(flat) if flat else np.empty(0, dtype=np.int64)
        )

    # -- the tick ------------------------------------------------------
    def apply_moves(self, bundles: List[MoveBundle]) -> None:
        if not bundles:
            return
        arena = self.arena
        if len(bundles) == 1:
            dst, src, ids, depart, leave = bundles[0]
        else:
            dst = np.concatenate([b[0] for b in bundles])
            src = np.concatenate([b[1] for b in bundles])
            ids = np.concatenate([b[2] for b in bundles])
            depart = np.concatenate([b[3] for b in bundles])
            leave = np.concatenate([b[4] for b in bundles])
        # Same stable (dst, src) lexsort as the reference: it fixes the
        # admit order regardless of bundle framing or arrival order.
        order = np.lexsort((src, dst))
        dst, ids, depart, leave = dst[order], ids[order], depart[order], leave[order]
        boundaries = np.flatnonzero(np.diff(dst)) + 1
        group_starts = np.concatenate(([0], boundaries))
        group_counts = np.diff(np.concatenate((group_starts, [dst.size])))
        handles = self._handle_of[dst[group_starts]]
        # Grow only the segments that need it, then scatter all admits
        # into segment tails in one fused pass.
        short = np.flatnonzero(
            arena.cap[handles] - arena.length[handles] < group_counts
        )
        for g in short:
            arena.reserve(int(handles[g]), int(group_counts[g]))
        off = arena.off[handles]
        length = arena.length[handles]
        tails = segment_ranges(off + length, group_counts)
        arena.ids[tails] = ids
        arena.depart[tails] = depart
        arena.leave[tails] = leave
        arena.length[handles] = length + group_counts
        arena.live[handles] += group_counts
        self.moves_applied += int(dst.size)

    def tick(
        self, tick_index: int, now: float, inbound: List[MoveBundle]
    ) -> Tuple[List[MoveBundle], Tuple[np.ndarray, np.ndarray]]:
        spec = self.spec
        arena = self.arena
        cells = self._cells
        n_owned = len(cells)

        with span("city.moves"):
            self.apply_moves(inbound)

        # Phase 1 — arrivals.  Per-RSU draws stay in a loop (each RSU's
        # stream must advance poisson → trip → stay), but the append is
        # one fused scatter across all segments.
        with span("city.arrivals"):
            wave = spec.demand_wave.multiplier(now)
            new_draws: List[np.ndarray] = []
            arr_js: List[int] = []
            arr_ks: List[int] = []
            arr_bases: List[int] = []
            tick_lam = spec.tick_s * wave
            mean_trip = spec.mean_trip_s
            mean_stay = spec.mean_residence_s
            # One standard_exponential(2k) replaces the reference's
            # exponential(trip, k) + exponential(stay, k): the Generator
            # applies the scale per-sample after the same ziggurat draw,
            # so splitting and scaling afterwards consumes the identical
            # raw stream and produces bit-identical doubles (scalar
            # multiplication commutes elementwise, so the scale is
            # deferred to one fused pass over all arriving RSUs).
            for j, (cell, rate_s, poisson, std_exp) in enumerate(
                self._arr_cells
            ):
                lam = rate_s * tick_lam
                k = int(poisson(lam)) if lam > 0.0 else 0
                if k:
                    new_draws.append(std_exp(2 * k))
                    arr_js.append(j)
                    arr_ks.append(k)
                    arr_bases.append(cell.index * ID_STRIDE + cell.spawned)
                    cell.spawned += k
            if new_draws:
                ks = np.asarray(arr_ks, dtype=np.int64)
                handles = self._handles[arr_js]
                short = np.flatnonzero(
                    arena.cap[handles] - arena.length[handles] < ks
                )
                for g in short:
                    arena.reserve(int(handles[g]), int(ks[g]))
                off = arena.off[handles]
                length = arena.length[handles]
                tails = segment_ranges(off + length, ks)
                # ids are per-RSU arithmetic sequences — the same
                # repeat+arange trick that builds the tail positions
                # builds them without one arange per RSU.
                arena.ids[tails] = segment_ranges(
                    np.asarray(arr_bases, dtype=np.int64), ks
                )
                # Each RSU's 2k draws lie [trip rows | stay rows] in the
                # concatenated draw pool; gather each half by range.
                pool = np.concatenate(new_draws)
                starts = np.zeros(ks.size, dtype=np.int64)
                np.cumsum(2 * ks[:-1], out=starts[1:])
                arena.depart[tails] = now + mean_trip * pool[
                    segment_ranges(starts, ks)
                ]
                arena.leave[tails] = now + mean_stay * pool[
                    segment_ranges(starts + ks, ks)
                ]
                arena.length[handles] = length + ks
                arena.live[handles] += ks

        # Phase 2 — churn masks.  The dead-slot sentinels (leave = +inf,
        # depart = -inf, see the arena docstring) make `leave <= now`
        # over the allocated pool prefix *exactly* the due set: one
        # contiguous SIMD compare, no per-row index gather — holes are
        # never due.  Per-RSU counts fall out of binary searches of the
        # (sorted) due positions against the segment bounds, and only
        # the ~few percent of rows that are actually due are ever
        # gathered.
        with span("city.churn"):
            handles = self._handles
            off = arena.off[handles]
            length = arena.length[handles]
            ends = off + length
            hw = arena.high_water
            due_idx = np.flatnonzero(arena.leave[:hw] <= now)
            any_due = due_idx.size > 0
            if any_due:
                d_lo = np.searchsorted(due_idx, off)
                d_hi = np.searchsorted(due_idx, ends)
                n_due = d_hi - d_lo
                fin_sub = np.take(arena.depart, due_idx) <= now
                # One running count of finished rows turns the per-RSU
                # due windows into finished/mover windows without four
                # more binary searches: a due row at position i is the
                # fin_csum[i]-th finished (or i - fin_csum[i]-th mover).
                fin_csum = np.zeros(due_idx.size + 1, dtype=np.int64)
                np.cumsum(fin_sub, out=fin_csum[1:])
                n_fin = fin_csum[d_hi] - fin_csum[d_lo]
                # Movers stay grouped by segment (ascending position),
                # so per-RSU mover slices are index windows too.
                mover_idx = due_idx[~fin_sub]
                m_lo = d_lo - fin_csum[d_lo]
                m_hi = d_hi - fin_csum[d_hi]

        # Phase 3 — movers.  Residence/neighbour draws stay per-RSU (in
        # order), writing into one concatenated bundle; the reference
        # emits one bundle per RSU, but the receiver's stable (dst, src)
        # lexsort makes the framings equivalent.
        moves_out: List[MoveBundle] = []
        if any_due:
            with span("city.moves"):
                n_mv0 = m_hi - m_lo
                total_movers = mover_idx.size
                mv_stay = np.empty(total_movers, dtype=np.float64)
                mv_pick = np.empty(total_movers, dtype=np.int64)
                n_mv = n_mv0
                mean_stay = spec.mean_residence_s
                isolated = False
                iso_js: List[int] = []
                iso_spans: List[Tuple[int, int]] = []
                # Iterate segments in *offset* order: the per-segment
                # mover windows [m_lo, m_hi) then tile the mover array
                # contiguously, so the bundle inherits mover_idx as its
                # position column with no per-segment copy.  Stream
                # draws commute across RSUs, so the iteration order is
                # free; each stream still draws stay2 → pick in order.
                mlo_l = m_lo.tolist()
                mhi_l = m_hi.tolist()
                by_off = np.argsort(off, kind="stable")
                mv_cells = self._mv_cells
                # Mover-less segments draw nothing, so skipping them
                # up front leaves every stream's draw order untouched.
                for j in by_off[n_mv0[by_off] > 0].tolist():
                    lo = mlo_l[j]
                    hi = mhi_l[j]
                    rexp, draw, nbr_n = mv_cells[j]
                    if nbr_n:
                        rexp(out=mv_stay[lo:hi])
                        draw(mv_pick, lo, hi)
                    else:
                        # Isolated RSU: movers stay put with a fresh
                        # residence and are not dropped.
                        stay2 = rexp(hi - lo)
                        pos = mover_idx[lo:hi]
                        arena.leave[pos] = now + stay2 * mean_stay
                        iso_js.append(j)
                        iso_spans.append((lo, hi))
                        n_due[j] = n_fin[j]
                        if n_mv is n_mv0:
                            n_mv = n_mv0.copy()
                        n_mv[j] = 0
                        isolated = True
                if isolated:
                    emigrate = np.ones(total_movers, dtype=bool)
                    for lo, hi in iso_spans:
                        emigrate[lo:hi] = False
                    mv_pos = mover_idx[emigrate]
                    mv_stay, mv_pick = mv_stay[emigrate], mv_pick[emigrate]
                else:
                    mv_pos = mover_idx
                if mv_pos.size:
                    n_mv_o = n_mv[by_off]
                    mv_dst = self._nbr_flat[
                        np.repeat(self._nbr_off[by_off], n_mv_o) + mv_pick
                    ]
                    moves_out.append(
                        (
                            mv_dst,
                            np.repeat(self._indices[by_off], n_mv_o),
                            np.take(arena.ids, mv_pos),
                            np.take(arena.depart, mv_pos),
                            now + mv_stay * mean_stay,
                        )
                    )

            # Phase 4 — retire in place.  Dropped rows become *holes*:
            # one small scatter stamps the sentinels over the ~0.5% of
            # rows that are due, instead of sliding every survivor left
            # (O(dropped) per tick, not O(resident)).  Stamping never
            # reorders, so per-segment row order — which the detection
            # digests index into — is untouched; a segment is physically
            # re-packed only once its holes outgrow its live rows.
            with span("city.churn"):
                for j, nf in enumerate(n_fin.tolist()):
                    if nf:
                        cells[j][0].retired += nf
                if isolated:
                    # Stayers got a fresh residence and are kept; drop
                    # only the finished rows of isolated segments.
                    drop_sub = np.ones(due_idx.size, dtype=bool)
                    for j in iso_js:
                        window = slice(int(d_lo[j]), int(d_hi[j]))
                        drop_sub[window] = fin_sub[window]
                    drop_idx = due_idx[drop_sub]
                else:
                    drop_idx = due_idx
                arena.leave[drop_idx] = DEAD_LEAVE
                arena.depart[drop_idx] = DEAD_DEPART
                new_live = arena.live[handles] - n_due
                arena.live[handles] = new_live
                # Re-pack a segment only once holes outnumber live rows
                # 2:1 — each re-pack copies ~live rows, so the threshold
                # sets the amortized copy volume per retired row.
                fragged = np.flatnonzero(
                    length - new_live > np.maximum(MIN_SEGMENT, 2 * new_live)
                )
                for j in fragged:
                    arena.compact_segment(int(handles[j]))
                counts = new_live
        else:
            counts = arena.live[handles].copy()

        # Phase 5 — detection draws per RSU (binomial → choice), then
        # the digest folds in a separate pass (no draws, so splitting
        # the phases is free) for a clean profile breakdown.
        pending: List[Tuple[RsuCell, int, np.ndarray]] = []
        if spec.abnormal_prob > 0.0:
            with span("city.detect"):
                p = spec.abnormal_prob
                det_cells = self._det_cells
                off_l = off.tolist()
                for j, n in enumerate(counts.tolist()):
                    if not n:
                        continue
                    cell, binomial, choice, pick = det_cells[j]
                    flagged = binomial(n, p)
                    if flagged:
                        flagged = int(flagged)
                        # `chosen` indexes *logical* (live-row) positions;
                        # with holes present, translate via a scan of
                        # this one segment's small window.
                        if pick is not None:
                            # `choice` consumes buffered 32-bit halves;
                            # hand the shadow buffer back first, then
                            # reclaim whatever half it leaves behind.
                            pick.sync_out()
                            chosen = choice(n, size=flagged, replace=False)
                            pick.sync_in()
                        else:
                            chosen = choice(n, size=flagged, replace=False)
                        lo = off_l[j]
                        phys = int(arena.length[self._handles_list[j]])
                        if phys == n:
                            sel = arena.ids[lo + chosen]
                        else:
                            live_pos = np.flatnonzero(
                                arena.leave[lo : lo + phys] != DEAD_LEAVE
                            )
                            sel = arena.ids[lo + live_pos[chosen]]
                        pending.append((cell, flagged, np.sort(sel)))
        if pending:
            with span("city.digest"):
                for cell, flagged, flagged_ids in pending:
                    cell.warnings += flagged
                    cell.digest = hashlib.sha256(
                        cell.digest
                        + TICK_DIGEST.pack(tick_index, flagged)
                        + flagged_ids.tobytes()
                    ).digest()
        return moves_out, (self._indices, counts)

    # -- rebalance -----------------------------------------------------
    def detach(self, index: int) -> dict:
        cell = self.rsus.pop(index)
        pick = self._picks.pop(index, None)
        if pick is not None:
            # Flush the shadow half-word into the bit generator so the
            # packed RNG state round-trips bit-identically.
            pick.sync_out()
        ids, depart, leave = self.arena.extract(cell.handle)
        packed = {
            "index": cell.index,
            "ids": ids,
            "depart": depart,
            "leave": leave,
            "spawned": cell.spawned,
            "retired": cell.retired,
            "warnings": cell.warnings,
            "digest": cell.digest,
            "rng": self.registry.state_of(rsu_stream_name(cell.name)),
        }
        self.arena.free(cell.handle)
        self._handle_of[index] = -1
        self._rebuild_order()
        return packed

    def adopt(self, packed: dict) -> None:
        index = packed["index"]
        rsu = self.topology.rsus[index]
        handle = self.arena.alloc(len(packed["ids"]))
        cell = RsuCell(
            index,
            rsu.name,
            rsu.neighbours,
            self.base_rate_s * rsu.arrival_weight,
            handle,
        )
        self.arena.append(handle, packed["ids"], packed["depart"], packed["leave"])
        cell.spawned = packed["spawned"]
        cell.retired = packed["retired"]
        cell.warnings = packed["warnings"]
        cell.digest = packed["digest"]
        self._handle_of[index] = handle
        self.rsus[index] = cell
        self.registry.restore(rsu_stream_name(cell.name), packed["rng"])
        self._rebuild_order()

    # -- end-of-run accounting ----------------------------------------
    def rsu_results(self) -> Dict[str, dict]:
        return {
            cell.name: {
                "digest": cell.digest.hex(),
                "warnings": cell.warnings,
                "spawned": cell.spawned,
                "retired": cell.retired,
                "active": int(self.arena.live[cell.handle]),
            }
            for cell in self.rsus.values()
        }
