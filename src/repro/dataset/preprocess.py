"""Offline preprocessing: filtering and sigma labelling.

This is the paper's offline stage (Sec. IV-B) from Table II rows on.
The Eq. 4 derivation from raw GPS is not reproduced: the generator
emits Table II telemetry directly (see DESIGN.md).

1. Filter erroneous measurements (Table III is stated "after filtering
   the erroneous values").
2. Label each point by the sigma cut-off: normal (class = 1) when speed
   and acceleration are within [mu - sigma, mu + sigma] of the
   road-type distribution, abnormal (class = 0) otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.dataset.schema import (
    ABNORMAL,
    NORMAL,
    ROAD_TYPES,
    TelemetryBlock,
    TelemetryRecord,
)
from repro.geo.roadnet import RoadType

if TYPE_CHECKING:
    from repro.dataset.generator import SyntheticDataset

_HOURS = 24


def _groups(keys: np.ndarray) -> List[Tuple[int, np.ndarray]]:
    """``(key, rows)`` per distinct key, each group's rows in record
    order (one stable sort)."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    stops = np.r_[starts[1:], len(keys)]
    return [
        (key, order[start:stop])
        for key, start, stop in zip(
            ordered[starts].tolist(), starts.tolist(), stops.tolist()
        )
    ]


@dataclass(frozen=True)
class FilterConfig:
    """Bounds used to drop erroneous measurements.

    Values generous enough to keep genuine anomalies (the point of the
    system) while dropping physically impossible readings.
    """

    max_speed_kmh: float = 300.0
    max_abs_accel_ms2: float = 20.0
    drop_stuck: bool = True  # speed == 0 and accel == 0 exactly

    def keep(self, record: TelemetryRecord) -> bool:
        """The rule for one record; :meth:`keep_mask` applies it to
        columns (a test holds the two equal)."""
        if not math.isfinite(record.speed_kmh) or not math.isfinite(
            record.accel_ms2
        ):
            return False
        if record.speed_kmh > self.max_speed_kmh:
            return False
        if abs(record.accel_ms2) > self.max_abs_accel_ms2:
            return False
        if self.drop_stuck and record.speed_kmh == 0.0 and record.accel_ms2 == 0.0:
            return False
        return True

    def keep_mask(self, speeds: np.ndarray, accels: np.ndarray) -> np.ndarray:
        """:meth:`keep` over speed and acceleration columns."""
        keep = np.isfinite(speeds) & np.isfinite(accels)
        keep &= speeds <= self.max_speed_kmh
        keep &= np.abs(accels) <= self.max_abs_accel_ms2
        if self.drop_stuck:
            keep &= (speeds != 0.0) | (accels != 0.0)
        return keep


class SigmaCutoffLabeler:
    """The paper's sigma cut-off labelling rule.

    A record is *normal* iff both its speed and its acceleration fall
    within ``[mu - n_sigma * sigma, mu + n_sigma * sigma]`` of the
    empirical distribution of its context (the paper uses
    ``n_sigma = 1``).

    ``granularity`` selects the context:

    - ``"type"`` (the paper): one band per road type;
    - ``"type_hour"``: one band per (road type, hour) — the
      finer-grained normality Fig. 2's hourly variation implies.
      Hours unseen at fit time fall back to the road-type band.

    :meth:`fit` and :meth:`label_all` work on a block's columns;
    :meth:`label` is the rule for one record, and a test holds it equal
    to :meth:`label_all`.
    """

    def __init__(
        self, n_sigma: float = 1.0, granularity: str = "type"
    ) -> None:
        if n_sigma <= 0:
            raise ValueError(f"n_sigma must be positive: {n_sigma}")
        if granularity not in ("type", "type_hour"):
            raise ValueError(f"unknown granularity: {granularity!r}")
        self.n_sigma = n_sigma
        self.granularity = granularity
        self._speed_bands: Dict[object, Tuple[float, float]] = {}
        self._accel_bands: Dict[object, Tuple[float, float]] = {}
        self._fitted = False

    #: Minimum samples for a (type, hour) band; sparser cells fall
    #: back to the road-type band.
    MIN_CELL_SAMPLES = 30

    def _keys(self, record: TelemetryRecord) -> list:
        keys: list = []
        if self.granularity == "type_hour":
            keys.append((record.road_type, record.hour))
        keys.append(record.road_type)
        return keys

    def fit(self, block: TelemetryBlock) -> "SigmaCutoffLabeler":
        """Fit the bands on ``block``: each band's ``mean``/``std`` over
        its group's values in row order."""
        types, hours = block.road_type_code, block.hour
        if not len(types):
            raise ValueError("cannot fit labeler on an empty dataset")
        groups = [(ROAD_TYPES[code], rows) for code, rows in _groups(types)]
        if self.granularity == "type_hour":
            groups.extend(
                ((ROAD_TYPES[cell // _HOURS], cell % _HOURS), rows)
                for cell, rows in _groups(types * _HOURS + hours)
                if len(rows) >= self.MIN_CELL_SAMPLES
            )
        for key, rows in groups:
            self._speed_bands[key] = self._band(block.speed_kmh[rows])
            self._accel_bands[key] = self._band(block.accel_ms2[rows])
        self._fitted = True
        return self

    def _band(self, values: np.ndarray) -> Tuple[float, float]:
        mu = float(values.mean())
        sigma = float(values.std())
        return (mu - self.n_sigma * sigma, mu + self.n_sigma * sigma)

    def band(self, road_type: RoadType) -> Tuple[float, float]:
        """The fitted road-type-level speed band."""
        self._require_fitted()
        return self._speed_bands[road_type]

    def _lookup(self, bands: Dict, record: TelemetryRecord):
        for key in self._keys(record):
            if key in bands:
                return bands[key]
        raise KeyError(
            f"labeler not fitted for road type {record.road_type}"
        )

    def label(self, record: TelemetryRecord) -> int:
        self._require_fitted()
        lo_s, hi_s = self._lookup(self._speed_bands, record)
        lo_a, hi_a = self._lookup(self._accel_bands, record)
        speed_ok = lo_s <= record.speed_kmh <= hi_s
        accel_ok = lo_a <= record.accel_ms2 <= hi_a
        return NORMAL if (speed_ok and accel_ok) else ABNORMAL

    def label_all(self, block: TelemetryBlock) -> np.ndarray:
        """The sigma label of each row of ``block``: each row's band
        looked up in a (road type, hour) table that holds the (type,
        hour) band where one was fitted and the road-type band
        elsewhere."""
        self._require_fitted()
        types, hours = block.road_type_code, block.hour
        speeds, accels = block.speed_kmh, block.accel_ms2
        table = np.full((len(ROAD_TYPES), _HOURS, 4), np.nan)
        fitted = np.zeros(len(ROAD_TYPES), dtype=bool)
        keys = [key for key in self._speed_bands if not isinstance(key, tuple)]
        if self.granularity == "type_hour":
            keys += [key for key in self._speed_bands if isinstance(key, tuple)]
        for key in keys:
            bands = self._speed_bands[key] + self._accel_bands[key]
            if isinstance(key, tuple):
                table[ROAD_TYPES.index(key[0]), key[1]] = bands
            else:
                code = ROAD_TYPES.index(key)
                table[code] = bands
                fitted[code] = True
        missing = np.flatnonzero(~fitted[types])
        if missing.size:
            raise KeyError(
                f"labeler not fitted for road type "
                f"{ROAD_TYPES[types[missing[0]]]}"
            )
        lo_s, hi_s, lo_a, hi_a = table[types, hours].T
        normal = (lo_s <= speeds) & (speeds <= hi_s)
        normal &= (lo_a <= accels) & (accels <= hi_a)
        return np.where(normal, NORMAL, ABNORMAL).astype(np.int8)

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("labeler must be fitted before use")


class Preprocessor:
    """Filter + label pipeline over a dataset's columns.

    The keep mask, the sigma bands and the labels are array operations
    over the block's road type, hour, speed and acceleration columns;
    the kept rows are taken once and their label column is set.
    """

    def __init__(
        self,
        filter_config: Optional[FilterConfig] = None,
        n_sigma: float = 1.0,
        granularity: str = "type",
    ) -> None:
        self.filter_config = filter_config or FilterConfig()
        self.labeler = SigmaCutoffLabeler(
            n_sigma=n_sigma, granularity=granularity
        )

    def run(self, dataset: "SyntheticDataset") -> "SyntheticDataset":
        """Filter erroneous rows, fit the labeler, label the rest."""
        block = dataset.block
        kept = dataset.take(
            self.filter_config.keep_mask(block.speed_kmh, block.accel_ms2)
        )
        if len(kept.block):
            self.labeler.fit(kept.block)
            kept.block.label = self.labeler.label_all(kept.block)
        return kept
