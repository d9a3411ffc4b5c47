"""Process-local metrics registry with mergeable, wire-encodable snapshots.

Three instrument kinds, mirroring the Prometheus data model at the
scale this testbed needs:

- :class:`Counter` — monotonically non-decreasing event count.
- :class:`Gauge` — a point-in-time value with an explicit merge
  aggregation (``"sum"``, ``"max"``, or ``"min"``).  Restricting gauges
  to these modes keeps snapshot merging associative *and* commutative,
  which the sharded engine relies on (shard snapshots arrive in
  arbitrary order at the barrier).
- :class:`Histogram` — fixed upper-bound buckets (``le`` semantics)
  plus an overflow bucket, with running sum and count.

A :class:`MetricsRegistry` keys every instrument by
``(name, sorted label items)``; :meth:`MetricsRegistry.snapshot`
freezes it into a :class:`RegistrySnapshot`, which can be

- merged with another snapshot (:meth:`RegistrySnapshot.merge` —
  associative, commutative, with the empty snapshot as identity;
  pinned by hypothesis in ``tests/test_obs/test_metrics.py``), and
- encoded to a compact struct-packed byte string
  (:meth:`RegistrySnapshot.encode` / :meth:`RegistrySnapshot.decode`)
  small enough to publish per barrier over the shard shm rings.

The module-level :func:`enable` / :func:`disable` / :func:`active`
trio is how the pipeline opts in: instrumentation sites fetch
``active()`` once and skip all work when it is ``None``, so a run
without observability pays a single attribute read per site.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Tuple

#: Snapshot wire-format magic + version (first two bytes of every
#: encoded snapshot; also the shm FRAME_METRICS payload).
SNAPSHOT_MAGIC = 0xB5
SNAPSHOT_VERSION = 1

_GAUGE_AGGS = ("sum", "max", "min")

#: Shared fixed bucket edges (``value <= edge`` semantics) for the
#: pipeline's histograms — fixed so shard snapshots always merge.
BATCH_SIZE_EDGES = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0)
LATENCY_MS_EDGES = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)
DEPTH_EDGES = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0)
WAIT_MS_EDGES = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0)

_HEADER = struct.Struct("<BBIII")  # magic, version, n_counters, n_gauges, n_hists
_U16 = struct.Struct("<H")
_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")

#: A metric key: ``(name, ((label, value), ...))`` with labels sorted.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _make_key(name: str, labels: Dict[str, object]) -> MetricKey:
    return (
        name,
        tuple(sorted((str(k), str(v)) for k, v in labels.items())),
    )


def format_key(key: MetricKey) -> str:
    """Human-readable ``name{k=v,...}`` form of a metric key."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class Counter:
    """A monotonically non-decreasing event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0: {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value with a commutative merge aggregation."""

    __slots__ = ("agg", "value", "_seen")

    def __init__(self, agg: str = "max") -> None:
        if agg not in _GAUGE_AGGS:
            raise ValueError(
                f"gauge agg must be one of {_GAUGE_AGGS}, got {agg!r}"
            )
        self.agg = agg
        self.value = 0.0
        self._seen = False

    def set(self, value: float) -> None:
        value = float(value)
        if not self._seen or self.agg == "sum":
            # "sum" gauges accumulate within a process too (e.g. total
            # barrier wait), matching their cross-shard merge.
            self.value = self.value + value if self._seen else value
        elif self.agg == "max":
            self.value = max(self.value, value)
        else:
            self.value = min(self.value, value)
        self._seen = True


class Histogram:
    """Fixed upper-bound buckets (``value <= edge``) plus overflow."""

    __slots__ = ("edges", "counts", "sum", "count")

    def __init__(self, edges: Sequence[float]) -> None:
        edges = tuple(float(e) for e in edges)
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError(f"bucket edges must strictly increase: {edges}")
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record ``value``."""
        value = float(value)
        for index, edge in enumerate(self.edges):
            if value <= edge:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.sum += value
        self.count += 1

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class MetricsRegistry:
    """All of one process's instruments, keyed by name + labels."""

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, Counter] = {}
        self._gauges: Dict[MetricKey, Gauge] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}

    # -- instrument accessors (create on first use) --------------------
    def counter(self, name: str, **labels: object) -> Counter:
        key = _make_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, agg: str = "max", **labels: object) -> Gauge:
        key = _make_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(agg)
        elif instrument.agg != agg:
            raise ValueError(
                f"gauge {format_key(key)} already registered with "
                f"agg={instrument.agg!r}, not {agg!r}"
            )
        return instrument

    def histogram(
        self, name: str, edges: Sequence[float], **labels: object
    ) -> Histogram:
        key = _make_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(edges)
        elif instrument.edges != tuple(float(e) for e in edges):
            raise ValueError(
                f"histogram {format_key(key)} already registered with "
                f"edges={instrument.edges}"
            )
        return instrument

    # -- snapshot -------------------------------------------------------
    def snapshot(self) -> "RegistrySnapshot":
        return RegistrySnapshot(
            counters={k: c.value for k, c in self._counters.items()},
            gauges={
                k: (g.agg, g.value)
                for k, g in self._gauges.items()
                if g._seen
            },
            histograms={
                k: (h.edges, tuple(h.counts), h.sum, h.count)
                for k, h in self._histograms.items()
            },
        )


class RegistrySnapshot:
    """An immutable, mergeable, wire-encodable registry state."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(
        self,
        counters: Optional[Dict[MetricKey, int]] = None,
        gauges: Optional[Dict[MetricKey, Tuple[str, float]]] = None,
        histograms: Optional[
            Dict[MetricKey, Tuple[Tuple[float, ...], Tuple[int, ...], float, int]]
        ] = None,
    ) -> None:
        self.counters = dict(counters or {})
        self.gauges = dict(gauges or {})
        self.histograms = dict(histograms or {})

    # -- merge ----------------------------------------------------------
    def merge(self, other: "RegistrySnapshot") -> "RegistrySnapshot":
        """Combine two snapshots (associative, commutative).

        Counters add; gauges combine by their aggregation mode (merging
        the same key under different modes is an error); histograms
        require identical bucket edges and add their counts.
        """
        counters = dict(self.counters)
        for key, value in other.counters.items():
            counters[key] = counters.get(key, 0) + value

        gauges = dict(self.gauges)
        for key, (agg, value) in other.gauges.items():
            if key not in gauges:
                gauges[key] = (agg, value)
                continue
            mine_agg, mine = gauges[key]
            if mine_agg != agg:
                raise ValueError(
                    f"gauge {format_key(key)} merged under conflicting "
                    f"aggregations {mine_agg!r} vs {agg!r}"
                )
            if agg == "sum":
                gauges[key] = (agg, mine + value)
            elif agg == "max":
                gauges[key] = (agg, max(mine, value))
            else:
                gauges[key] = (agg, min(mine, value))

        histograms = dict(self.histograms)
        for key, (edges, counts, total, count) in other.histograms.items():
            if key not in histograms:
                histograms[key] = (edges, counts, total, count)
                continue
            mine_edges, mine_counts, mine_total, mine_count = histograms[key]
            if mine_edges != edges:
                raise ValueError(
                    f"histogram {format_key(key)} merged under conflicting "
                    f"bucket edges {mine_edges} vs {edges}"
                )
            histograms[key] = (
                edges,
                tuple(a + b for a, b in zip(mine_counts, counts)),
                mine_total + total,
                mine_count + count,
            )
        return RegistrySnapshot(counters, gauges, histograms)

    # -- wire codec -----------------------------------------------------
    @staticmethod
    def _pack_key(key: MetricKey, out: List[bytes]) -> None:
        name, labels = key
        encoded = name.encode("utf-8")
        out.append(_U16.pack(len(encoded)))
        out.append(encoded)
        out.append(bytes([len(labels)]))
        for label, value in labels:
            for part in (label.encode("utf-8"), value.encode("utf-8")):
                if len(part) > 255:
                    raise ValueError(f"label component too long: {part!r}")
                out.append(bytes([len(part)]))
                out.append(part)

    @staticmethod
    def _unpack_key(buf: bytes, at: int) -> Tuple[MetricKey, int]:
        (name_len,) = _U16.unpack_from(buf, at)
        at += _U16.size
        name = buf[at : at + name_len].decode("utf-8")
        at += name_len
        n_labels = buf[at]
        at += 1
        labels = []
        for _ in range(n_labels):
            parts = []
            for _ in range(2):
                part_len = buf[at]
                at += 1
                parts.append(buf[at : at + part_len].decode("utf-8"))
                at += part_len
            labels.append((parts[0], parts[1]))
        return (name, tuple(labels)), at

    def encode(self) -> bytes:
        """Pack into the fixed binary layout the shm rings carry."""
        out: List[bytes] = [
            _HEADER.pack(
                SNAPSHOT_MAGIC,
                SNAPSHOT_VERSION,
                len(self.counters),
                len(self.gauges),
                len(self.histograms),
            )
        ]
        for key in sorted(self.counters):
            self._pack_key(key, out)
            out.append(_I64.pack(self.counters[key]))
        for key in sorted(self.gauges):
            agg, value = self.gauges[key]
            self._pack_key(key, out)
            out.append(bytes([_GAUGE_AGGS.index(agg)]))
            out.append(_F64.pack(value))
        for key in sorted(self.histograms):
            edges, counts, total, count = self.histograms[key]
            self._pack_key(key, out)
            out.append(_U16.pack(len(edges)))
            for edge in edges:
                out.append(_F64.pack(edge))
            for bucket in counts:
                out.append(_I64.pack(bucket))
            out.append(_F64.pack(total))
            out.append(_I64.pack(count))
        return b"".join(out)

    @classmethod
    def decode(cls, buf: bytes) -> "RegistrySnapshot":
        buf = bytes(buf)
        magic, version, n_counters, n_gauges, n_hists = _HEADER.unpack_from(
            buf, 0
        )
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"not a registry snapshot (magic {magic:#x})")
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        at = _HEADER.size
        counters: Dict[MetricKey, int] = {}
        for _ in range(n_counters):
            key, at = cls._unpack_key(buf, at)
            (value,) = _I64.unpack_from(buf, at)
            at += _I64.size
            counters[key] = value
        gauges: Dict[MetricKey, Tuple[str, float]] = {}
        for _ in range(n_gauges):
            key, at = cls._unpack_key(buf, at)
            agg = _GAUGE_AGGS[buf[at]]
            at += 1
            (value,) = _F64.unpack_from(buf, at)
            at += _F64.size
            gauges[key] = (agg, value)
        histograms = {}
        for _ in range(n_hists):
            key, at = cls._unpack_key(buf, at)
            (n_edges,) = _U16.unpack_from(buf, at)
            at += _U16.size
            edges = []
            for _ in range(n_edges):
                (edge,) = _F64.unpack_from(buf, at)
                at += _F64.size
                edges.append(edge)
            counts = []
            for _ in range(n_edges + 1):
                (bucket,) = _I64.unpack_from(buf, at)
                at += _I64.size
                counts.append(bucket)
            (total,) = _F64.unpack_from(buf, at)
            at += _F64.size
            (count,) = _I64.unpack_from(buf, at)
            at += _I64.size
            histograms[key] = (tuple(edges), tuple(counts), total, count)
        return cls(counters, gauges, histograms)

    # -- convenience ----------------------------------------------------
    def counter_value(self, name: str, **labels: object) -> int:
        return self.counters.get(_make_key(name, labels), 0)

    def counter_total(self, name: str) -> int:
        """Sum of a counter over every label set."""
        return sum(v for (n, _), v in self.counters.items() if n == name)

    def gauge_value(self, name: str, **labels: object) -> Optional[float]:
        entry = self.gauges.get(_make_key(name, labels))
        return None if entry is None else entry[1]

    def histogram_stats(
        self, name: str, **labels: object
    ) -> Optional[Dict[str, float]]:
        entry = self.histograms.get(_make_key(name, labels))
        if entry is None:
            return None
        _edges, _counts, total, count = entry
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
        }

    def metric_names(self) -> List[str]:
        names = {n for n, _ in self.counters}
        names |= {n for n, _ in self.gauges}
        names |= {n for n, _ in self.histograms}
        return sorted(names)

    def to_dict(self) -> dict:
        """JSON-serialisable form (for experiment artefacts)."""
        return {
            "counters": {
                format_key(k): v for k, v in sorted(self.counters.items())
            },
            "gauges": {
                format_key(k): {"agg": agg, "value": value}
                for k, (agg, value) in sorted(self.gauges.items())
            },
            "histograms": {
                format_key(k): {
                    "edges": list(edges),
                    "counts": list(counts),
                    "sum": total,
                    "count": count,
                }
                for k, (edges, counts, total, count) in sorted(
                    self.histograms.items()
                )
            },
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegistrySnapshot):
            return NotImplemented
        return (
            self.counters == other.counters
            and self.gauges == other.gauges
            and self.histograms == other.histograms
        )

    def __repr__(self) -> str:
        return (
            f"RegistrySnapshot(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)}, histograms={len(self.histograms)})"
        )


# ----------------------------------------------------------------------
# Module-level activation
# ----------------------------------------------------------------------
_active: Optional[MetricsRegistry] = None


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install ``registry`` (a fresh one by default) as this process's
    active registry and return it."""
    global _active
    _active = registry if registry is not None else MetricsRegistry()
    return _active


def disable() -> None:
    """Deactivate metrics collection for this process."""
    global _active
    _active = None


def active() -> Optional[MetricsRegistry]:
    """The active registry, or ``None`` when observability is off.

    Instrumentation sites call this once per event and skip all work on
    ``None`` — the entire cost of a non-observed run.
    """
    return _active
