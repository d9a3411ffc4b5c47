"""Mesoscopic chains: carried-on summaries across multi-hop trips.

The paper's mesoscopic claim is not limited to one handover: "upon
vehicle handover, the former RSU passes a prediction summary to the
next, **the process which is carried on**, allows the system to gain
driver-awareness" (Sec. I).  The corridor experiments exercise one
hop; this harness exercises the chain on the connected grid city:

- trips are Dijkstra-routed across several segments;
- each segment's RSU detects with its road-type model;
- from the second segment on, the collaborative detector fuses the
  summary accumulated over *all* previous segments (merged exactly as
  :meth:`repro.core.rsu.RsuNode.build_summary` does online);
- the standalone baseline scores every segment with NB alone.

The measured quantity is per-hop detection quality as a function of
hop index: the chain's advantage should grow (or at least persist)
deeper into the trip, while AD3 stays flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.collaborative import CollaborativeDetector, summaries_from_upstream
from repro.core.detector import AD3Detector
from repro.core.features import PredictionSummary
from repro.dataset.generator import DatasetGenerator, GeneratorConfig, SyntheticDataset
from repro.dataset.preprocess import Preprocessor
from repro.dataset.schema import ROAD_TYPES, TelemetryBlock
from repro.geo.network_builder import CityNetworkBuilder
from repro.geo.roadnet import RoadType
from repro.ml.metrics import evaluate_binary


def grid_dataset(
    n_cars: int = 200,
    trips_per_car: int = 6,
    seed: int = 9,
    rows: int = 4,
    cols: int = 4,
) -> SyntheticDataset:
    """Routed multi-hop trips over the connected grid city."""
    network = CityNetworkBuilder(seed=seed).build_grid(rows=rows, cols=cols)
    generator = DatasetGenerator(
        network,
        GeneratorConfig(
            n_cars=n_cars,
            trips_per_car=trips_per_car,
            seed=seed,
            route_plan="routed",
            erroneous_rate=0.0,
        ),
    )
    return Preprocessor().run(generator.generate())


@dataclass
class HopMetrics:
    """Detection quality at one hop depth, per model."""

    hop: int
    n_records: int
    f1: Dict[str, float] = field(default_factory=dict)
    fn_rate: Dict[str, float] = field(default_factory=dict)

    def format_row(self) -> str:
        return (
            f"hop {self.hop}: n={self.n_records:5d}  "
            f"AD3 f1={self.f1['ad3']:.3f} fn={self.fn_rate['ad3']:.3f}  "
            f"chain f1={self.f1['chain']:.3f} fn={self.fn_rate['chain']:.3f}"
        )


@dataclass
class ChainResult:
    hops: List[HopMetrics] = field(default_factory=list)

    def overall(self, model: str, metric: str) -> float:
        total = sum(h.n_records for h in self.hops)
        if total == 0:
            return 0.0
        return (
            sum(getattr(h, metric)[model] * h.n_records for h in self.hops)
            / total
        )

    def format_table(self) -> str:
        return "\n".join(hop.format_row() for hop in self.hops)


def _split_trip_by_segment(trip: TelemetryBlock) -> List[TelemetryBlock]:
    """Contiguous per-segment legs of one trip, in travel (time) order."""
    trip = trip.take(np.argsort(trip.timestamp, kind="stable"))
    starts = np.flatnonzero(trip.road_id[1:] != trip.road_id[:-1]) + 1
    bounds = [0, *starts.tolist(), len(trip)]
    return [trip.take(slice(a, b)) for a, b in zip(bounds, bounds[1:])]


def mesoscopic_chain(
    dataset: Optional[SyntheticDataset] = None,
    max_hops: int = 4,
    seed: int = 0,
) -> ChainResult:
    """Evaluate chained vs. standalone detection by hop depth."""
    dataset = dataset or grid_dataset()
    train, test = dataset.split_by_trip(0.8, seed=seed)

    road_types = sorted(
        (ROAD_TYPES[code] for code in np.unique(dataset.block.road_type_code)),
        key=lambda rt: rt.value,
    )
    train_blocks = {rt: train.by_road_type(rt).block for rt in road_types}
    standalone: Dict[RoadType, AD3Detector] = {
        rt: AD3Detector(rt).fit(train_blocks[rt]) for rt in road_types
    }
    # Each type's training rows as the summaries its own RSU would hand
    # on downstream.
    upstream = {
        rt: summaries_from_upstream(standalone[rt], train_blocks[rt])
        for rt in road_types
    }
    collaborative: Dict[RoadType, CollaborativeDetector] = {}
    for road_type in road_types:
        # Train the fusion DT with summaries from the *other* segments
        # of the same trips (any upstream type feeds any downstream),
        # merged per car in road-type order.
        found: Dict[int, List[PredictionSummary]] = {}
        for other in road_types:
            if other is not road_type:
                for car, summary in upstream[other].items():
                    found.setdefault(car, []).append(summary)
        summaries = {
            car: parts[0] if len(parts) == 1 else PredictionSummary.merge(parts)
            for car, parts in found.items()
        }
        collaborative[road_type] = CollaborativeDetector(
            road_type, nb=standalone[road_type]
        ).fit(train_blocks[road_type], summaries, refit_nb=False)

    # Per-hop accumulation over test trips.
    per_hop: Dict[int, Dict[str, List[int]]] = {}
    for rows in test.trips().values():
        legs = _split_trip_by_segment(test.block.take(rows))
        carried: Optional[PredictionSummary] = None
        for hop, leg in enumerate(legs[:max_hops]):
            road_type = ROAD_TYPES[leg.road_type_code[0]]
            car_id = int(leg.car_id[0])
            nb = standalone[road_type]
            classes, probs = nb.detect(leg)
            summaries = {car_id: carried} if carried is not None else {}
            chain_pred, _ = collaborative[road_type].detect(leg, summaries)
            bucket = per_hop.setdefault(
                hop,
                {"true": [], "ad3": [], "chain": []},
            )
            bucket["true"].extend(leg.label.tolist())
            bucket["ad3"].extend(classes.tolist())
            bucket["chain"].extend(chain_pred.tolist())
            # Carry the summary on, exactly like RsuNode.build_summary.
            local = PredictionSummary(
                car_id=car_id,
                mean_normal_prob=float(np.mean(probs)),
                n_predictions=len(leg),
                last_class=int(classes[-1]),
                from_road_id=int(leg.road_id[0]),
                timestamp=float(leg.timestamp[-1]),
            )
            carried = (
                local
                if carried is None
                else PredictionSummary.merge([carried, local])
            )

    result = ChainResult()
    for hop in sorted(per_hop):
        bucket = per_hop[hop]
        if len(set(bucket["true"])) < 2:
            continue
        metrics = HopMetrics(hop=hop, n_records=len(bucket["true"]))
        for model in ("ad3", "chain"):
            report = evaluate_binary(bucket["true"], bucket[model])
            metrics.f1[model] = report.f1
            metrics.fn_rate[model] = report.fn_rate
        result.hops.append(metrics)
    return result
