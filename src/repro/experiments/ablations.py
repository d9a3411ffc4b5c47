"""Ablations of the design choices DESIGN.md calls out.

The paper fixes several knobs without sweeping them; these harnesses
quantify each choice so the reproduction can defend (or challenge) it:

- :func:`ablate_history_weight` — Eq. 1's 0.5/0.5 split between the
  forwarded history and the local NB probability.
- :func:`ablate_episode_persistence` — how much of CAD3's edge over
  AD3 comes from anomaly persistence across handovers (the property
  CO-DATA summaries exploit).
- :func:`ablate_batch_interval` — the 50 ms Spark micro-batch choice.
- :func:`ablate_poll_interval` — the 10 ms consumer poll choice.
- :func:`ablate_detector_complexity` — NB vs. logistic regression vs.
  random forest as the per-road detector (the paper's future work).
- :func:`ablate_collaboration_link` — wired vs. 5G vs. LTE for the
  inter-RSU CO-DATA hop (Sec. VII-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.core.collaborative import CollaborativeDetector, summaries_from_upstream
from repro.core.detector import AD3Detector
from repro.core.features import labels_of
from repro.core.system import TestbedScenario, default_training_dataset
from repro.dataset.generator import DatasetGenerator, GeneratorConfig
from repro.dataset.preprocess import Preprocessor
from repro.experiments.datasets import corridor_dataset
from repro.geo.network_builder import CityNetworkBuilder
from repro.geo.roadnet import RoadType
from repro.ml.forest import RandomForestClassifier
from repro.ml.logistic import LogisticRegression
from repro.ml.metrics import evaluate_binary
from repro.net.cellular import LTE_PROFILE, NR_5G_PROFILE, CellularLink
from repro.net.link import WiredLink
from repro.simkernel.simulator import Simulator


@dataclass
class AblationPoint:
    """One (setting, metric) row of an ablation sweep."""

    setting: str
    value: float
    metric: str

    def format_row(self) -> str:
        return f"{self.setting:<28}{self.metric:>18} = {self.value:.4f}"


def format_ablation(points: Sequence[AblationPoint]) -> str:
    return "\n".join(point.format_row() for point in points)


# ----------------------------------------------------------------------
# Model-side ablations
# ----------------------------------------------------------------------
def _link_eval_setup(dataset):
    """(motorway train, link train, motorway test, link test) blocks of
    the 80/20 trip split."""
    train, test = dataset.split_by_trip(0.8, seed=0)
    return tuple(
        part.by_road_type(road_type).block
        for part in (train, test)
        for road_type in (RoadType.MOTORWAY, RoadType.MOTORWAY_LINK)
    )


def ablate_history_weight(
    dataset=None,
    weights: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
) -> List[AblationPoint]:
    """F1 of CAD3 as Eq. 1's history weight sweeps 0 -> 1.

    Weight 0 degrades P_X to the local NB probability (history still
    influences nothing); the paper's 0.5 should beat it.
    """
    dataset = dataset or corridor_dataset()
    motorway_train, link_train, motorway_test, link_test = _link_eval_setup(
        dataset
    )
    upstream = AD3Detector(RoadType.MOTORWAY).fit(motorway_train)
    local_nb = AD3Detector(RoadType.MOTORWAY_LINK).fit(link_train)
    train_summaries = summaries_from_upstream(upstream, motorway_train)
    test_summaries = summaries_from_upstream(upstream, motorway_test)
    y_true = labels_of(link_test)

    points = []
    for weight in weights:
        detector = CollaborativeDetector(
            RoadType.MOTORWAY_LINK, nb=local_nb, history_weight=weight
        ).fit(link_train, train_summaries, refit_nb=False)
        predictions, _ = detector.detect(link_test, test_summaries)
        report = evaluate_binary(y_true, predictions)
        points.append(
            AblationPoint(f"history_weight={weight}", report.f1, "link F1")
        )
    return points


def ablate_episode_persistence(
    persistence_levels: Sequence[float] = (0.3, 0.6, 0.85, 0.95),
    n_cars: int = 250,
    seed: int = 1,
) -> List[AblationPoint]:
    """CAD3's F1 gain over AD3 as anomaly persistence varies.

    Regenerates the dataset with different episode-continuation
    probabilities and measures CAD3 - AD3 link F1.  Reproduction
    finding (see EXPERIMENTS.md): the gain is positive at *every*
    persistence level because the decision-tree second stage, not the
    Eq. 1 history term, carries most of the pointwise improvement on
    this synthetic mixture.
    """
    points = []
    for persistence in persistence_levels:
        network = CityNetworkBuilder(seed=seed).build_corridor()
        generator = DatasetGenerator(
            network,
            GeneratorConfig(
                n_cars=n_cars,
                trips_per_car=8,
                seed=seed,
                erroneous_rate=0.0,
                episode_continue_prob=persistence,
            ),
        )
        dataset = Preprocessor().run(generator.generate())

        motorway_train, link_train, motorway_test, link_test = (
            _link_eval_setup(dataset)
        )
        upstream = AD3Detector(RoadType.MOTORWAY).fit(motorway_train)
        ad3 = AD3Detector(RoadType.MOTORWAY_LINK).fit(link_train)
        cad3 = CollaborativeDetector(RoadType.MOTORWAY_LINK, nb=ad3).fit(
            link_train,
            summaries_from_upstream(upstream, motorway_train),
            refit_nb=False,
        )
        test_summaries = summaries_from_upstream(upstream, motorway_test)
        y_true = labels_of(link_test)
        f1_ad3 = evaluate_binary(y_true, ad3.detect(link_test)[0]).f1
        f1_cad3 = evaluate_binary(
            y_true, cad3.detect(link_test, test_summaries)[0]
        ).f1
        points.append(
            AblationPoint(
                f"persistence={persistence}", f1_cad3 - f1_ad3, "CAD3-AD3 F1 gain"
            )
        )
    return points


def ablate_detector_complexity(
    dataset=None,
) -> List[AblationPoint]:
    """NB vs. logistic vs. random forest as the link RSU's detector.

    The paper's future work; quantifies how much headroom "complex
    algorithms" actually offer over the explainable NB on this task.
    """
    dataset = dataset or corridor_dataset()
    _, link_train, _, link_test = _link_eval_setup(dataset)
    y_true = labels_of(link_test)

    models: Dict[str, Callable[[], object]] = {
        "naive_bayes": lambda: None,  # AD3Detector default
        "logistic": lambda: LogisticRegression(),
        "random_forest": lambda: RandomForestClassifier(
            n_trees=20, max_features=3, seed=0
        ),
    }
    points = []
    for name, factory in models.items():
        detector = AD3Detector(
            RoadType.MOTORWAY_LINK, model=factory()
        ).fit(link_train)
        report = evaluate_binary(y_true, detector.detect(link_test)[0])
        points.append(AblationPoint(name, report.f1, "link F1"))
    return points


# ----------------------------------------------------------------------
# System-side ablations
# ----------------------------------------------------------------------
def ablate_batch_interval(
    intervals_s: Sequence[float] = (0.025, 0.050, 0.100, 0.200),
    n_vehicles: int = 64,
    duration_s: float = 4.0,
    dataset=None,
) -> List[AblationPoint]:
    """End-to-end latency vs. the micro-batch interval.

    The paper picks 50 ms "to keep the processing latency minimized";
    larger batches trade latency for throughput.
    """
    dataset = dataset or default_training_dataset(seed=11, n_cars=60)
    points = []
    for interval in intervals_s:
        result = (
            TestbedScenario.builder()
            .vehicles(n_vehicles)
            .duration(duration_s)
            .batch_interval(interval)
            .seed(7)
            .single_rsu(dataset=dataset)
            .run()
        )
        points.append(
            AblationPoint(
                f"batch_interval={interval * 1e3:.0f}ms",
                result.mean_e2e_ms(),
                "mean e2e ms",
            )
        )
    return points


def ablate_poll_interval(
    intervals_s: Sequence[float] = (0.005, 0.010, 0.050),
    n_vehicles: int = 64,
    duration_s: float = 4.0,
    dataset=None,
) -> List[AblationPoint]:
    """Dissemination latency vs. the consumer poll interval.

    The paper's consumers "pull every 10 ms to avoid consuming the
    bandwidth"; faster polls shave latency at higher poll cost.
    """
    dataset = dataset or default_training_dataset(seed=11, n_cars=60)
    points = []
    for interval in intervals_s:
        result = (
            TestbedScenario.builder()
            .vehicles(n_vehicles)
            .duration(duration_s)
            .poll_interval(interval)
            .seed(7)
            .single_rsu(dataset=dataset)
            .run()
        )
        points.append(
            AblationPoint(
                f"poll_interval={interval * 1e3:.0f}ms",
                result.mean_dissemination_ms(),
                "dissemination ms",
            )
        )
    return points


def ablate_labeling_granularity(
    n_cars: int = 250,
    seed: int = 1,
) -> Dict[str, List[AblationPoint]]:
    """Per-road-type vs. per-(type, hour) ground truth.

    The paper labels per road type; Fig. 2's hourly variation implies
    normality is really hour-dependent.  This ablation regenerates the
    labels at both granularities and retrains/evaluates all three
    models on each, returning ``{"type": [...], "type_hour": [...]}``
    of link-F1 points.
    """
    from repro.experiments.models import fig7_table4_comparison

    network = CityNetworkBuilder(seed=seed).build_corridor()
    generator = DatasetGenerator(
        network,
        GeneratorConfig(
            n_cars=n_cars, trips_per_car=8, seed=seed, erroneous_rate=0.0
        ),
    )
    raw = generator.generate()
    results: Dict[str, List[AblationPoint]] = {}
    for granularity in ("type", "type_hour"):
        dataset = Preprocessor(granularity=granularity).run(raw)
        comparison = fig7_table4_comparison(dataset)
        results[granularity] = [
            AblationPoint(
                f"{granularity}:{name}",
                comparison.reports[name].f1,
                "link F1",
            )
            for name in ("centralized", "ad3", "cad3")
        ]
    return results


def ablate_warning_threshold(
    thresholds: Sequence[int] = (1, 2, 3),
    n_vehicles: int = 32,
    duration_s: float = 6.0,
    dataset=None,
) -> List[AblationPoint]:
    """False-warning suppression vs. the consecutive-abnormal gate.

    Runs the testbed once per threshold and reports the *false-warning
    rate*: warnings issued whose triggering record was ground-truth
    normal, per issued warning.  Raising the gate suppresses flicker
    ("less disturbance to other drivers with false warnings") at the
    cost of delayed first warnings — the bench asserts both directions.
    """
    dataset = dataset or default_training_dataset(seed=11, n_cars=60)
    points = []
    for threshold in thresholds:
        scenario = (
            TestbedScenario.builder()
            .vehicles(n_vehicles)
            .duration(duration_s)
            .seed(7)
            .single_rsu(dataset=dataset)
        )
        rsu = scenario.rsus["rsu-motorway"]
        rsu.config.warning_threshold = threshold
        result = scenario.run()
        # Reconstruct which events fired warnings under this gate.
        streaks: Dict[int, int] = {}
        warnings = 0
        false_warnings = 0
        for event in sorted(rsu.events, key=lambda e: e.detected_at):
            if event.abnormal:
                streaks[event.car_id] = streaks.get(event.car_id, 0) + 1
            else:
                streaks[event.car_id] = 0
            if event.abnormal and streaks[event.car_id] >= threshold:
                warnings += 1
                if event.true_label == 1:
                    false_warnings += 1
        rate = false_warnings / warnings if warnings else 0.0
        points.append(
            AblationPoint(
                f"threshold={threshold}", rate, "false-warning rate"
            )
        )
        points.append(
            AblationPoint(
                f"threshold={threshold}", float(warnings), "warnings"
            )
        )
    return points


def ablate_packet_loss(
    loss_levels: Sequence[float] = (0.0, 0.05, 0.15, 0.30),
    n_vehicles: int = 32,
    duration_s: float = 4.0,
    dataset=None,
) -> List[AblationPoint]:
    """Detection coverage vs. DSRC broadcast loss.

    The paper's wired testbed is lossless; real DSRC broadcast frames
    are not acknowledged, so losses silently remove telemetry.  The
    metric is coverage: RSU detection events per telemetry record
    transmitted.  Latency of what *does* arrive is unaffected (losses
    do not queue), which the bench asserts separately.
    """
    dataset = dataset or default_training_dataset(seed=11, n_cars=60)
    points = []
    for loss in loss_levels:
        scenario = (
            TestbedScenario.builder()
            .vehicles(n_vehicles)
            .duration(duration_s)
            .loss(loss)
            .seed(7)
            .single_rsu(dataset=dataset)
        )
        result = scenario.run()
        sent = sum(
            stats.records_sent for stats in result.vehicle_stats.values()
        )
        received = result.rsu_metrics["rsu-motorway"].n_events
        points.append(
            AblationPoint(
                f"loss={loss:.0%}",
                received / sent if sent else 0.0,
                "delivery ratio",
            )
        )
    return points


def ablate_collaboration_link(
    n_summaries: int = 300,
    payload_bytes: int = 120,
    seed: int = 0,
) -> List[AblationPoint]:
    """CO-DATA delivery latency over wired vs. 5G vs. LTE links.

    Sec. VII-D: wired/DSRC for adjacent RSUs; 5G preferred over LTE
    where distance forces a cellular hop.
    """
    points = []

    def measure(name: str, link_factory) -> None:
        sim = Simulator()
        link = link_factory(sim)
        latencies = []

        def send_one() -> None:
            start = sim.now
            link.send(payload_bytes, lambda t, s=start: latencies.append(t - s))

        sim.every(0.01, send_one, until=0.01 * (n_summaries + 1))
        sim.run()
        points.append(
            AblationPoint(name, float(np.mean(latencies)) * 1e3, "delivery ms")
        )

    measure("wired", lambda sim: WiredLink(sim))
    measure(
        "5g",
        lambda sim: CellularLink(
            sim, NR_5G_PROFILE, rng=np.random.default_rng(seed)
        ),
    )
    measure(
        "lte",
        lambda sim: CellularLink(
            sim, LTE_PROFILE, rng=np.random.default_rng(seed)
        ),
    )
    return points
