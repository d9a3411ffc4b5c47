"""Potential-accident estimation (Sec. IV-E).

The paper applies Nilsson's power model: the number of injury-causing
accidents after a road-speed change scales with the square of the speed
ratio (Eq. 2).  Applied per record:

- speeding: ``A2 = A1 * (v_r / v_r(i))^2``
- slowing:  ``A2 = A1 * (v_r / (v_r + (v_r - v_r(i))))^2``

The proximity measure ``delta = 1 - (ratio)^2`` tends to 1 as the
driver deviates further from the road's normal speed, and the expected
number of potential accidents caused by **missed detections** is

    E(Lambda) = sum( v_FN . v_delta )        (Eq. 3)

i.e. each false negative contributes its delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.dataset.schema import ABNORMAL, TelemetryBlock


def nilsson_accident_ratio(road_speed_kmh: float, vehicle_speed_kmh: float) -> float:
    """Eq. 2's squared speed ratio for one record.

    Returns ``(v_r / v_eff)^2`` where ``v_eff`` is the vehicle speed
    when speeding, or the mirrored speed ``v_r + (v_r - v)`` when
    slowing.  Equal speeds give 1 (no change in accident risk).
    """
    if road_speed_kmh <= 0:
        raise ValueError(f"road speed must be positive: {road_speed_kmh}")
    if vehicle_speed_kmh < 0:
        raise ValueError(f"vehicle speed cannot be negative: {vehicle_speed_kmh}")
    if vehicle_speed_kmh >= road_speed_kmh:  # speeding (or exactly normal)
        return (road_speed_kmh / max(vehicle_speed_kmh, 1e-9)) ** 2
    mirrored = road_speed_kmh + (road_speed_kmh - vehicle_speed_kmh)
    return (road_speed_kmh / mirrored) ** 2


def speed_deviation_delta(
    road_speed_kmh: float, vehicle_speed_kmh: float
) -> float:
    """The paper's delta: 1 minus the Nilsson ratio, in [0, 1).

    0 when the vehicle tracks the road's normal speed; toward 1 as the
    deviation (either direction) grows.
    """
    return 1.0 - nilsson_accident_ratio(road_speed_kmh, vehicle_speed_kmh)


@dataclass(frozen=True)
class AccidentEstimate:
    """Result of Eq. 3 over an evaluation set."""

    expected_accidents: float
    n_abnormal: int
    n_false_negatives: int
    mean_delta_of_fn: float

    @property
    def fn_fraction(self) -> float:
        if self.n_abnormal == 0:
            return 0.0
        return self.n_false_negatives / self.n_abnormal


def expected_accidents(
    block: TelemetryBlock,
    y_true: Sequence[int],
    y_pred: Sequence[int],
) -> AccidentEstimate:
    """Eq. 3: E(Lambda) = sum over false negatives of delta.

    A false negative is a ground-truth abnormal row the model called
    normal — the dangerous, unwarned case.  ``block`` supplies the
    speeds for delta; ``y_true``/``y_pred`` the labels.  The deltas are
    summed left to right, row order.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if not (len(block) == len(y_true) == len(y_pred)):
        raise ValueError(
            f"length mismatch: {len(block)} records, {len(y_true)} true, "
            f"{len(y_pred)} predicted labels"
        )
    abnormal = y_true == ABNORMAL
    missed = np.flatnonzero(abnormal & (y_pred != ABNORMAL))
    deltas = [
        speed_deviation_delta(road_speed, speed)
        for road_speed, speed in zip(
            block.road_mean_speed_kmh[missed].tolist(),
            block.speed_kmh[missed].tolist(),
        )
    ]
    total = 0.0
    for delta in deltas:
        total += delta
    return AccidentEstimate(
        expected_accidents=total,
        n_abnormal=int(np.count_nonzero(abnormal)),
        n_false_negatives=len(deltas),
        mean_delta_of_fn=float(np.mean(deltas)) if deltas else 0.0,
    )
