#!/usr/bin/env python
"""Quickstart: train CAD3 and detect abnormal driving in 60 seconds.

This walks the whole public API once, at small scale:

1. Build the Fig. 1 road topology (four motorways meeting a motorway
   link).
2. Generate a synthetic Shenzhen-like driving dataset and label it
   with the paper's sigma-cutoff rule.
3. Train the three detectors: centralized, standalone AD3, and
   collaborative CAD3.
4. Compare them on held-out trips and print the Fig. 7 / Table IV
   style results.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import AD3Detector, CentralizedDetector, CollaborativeDetector
from repro.core.accidents import expected_accidents
from repro.core.collaborative import summaries_from_upstream
from repro.dataset import DatasetGenerator, GeneratorConfig, Preprocessor
from repro.geo import CityNetworkBuilder, RoadType
from repro.ml import evaluate_binary


def main() -> None:
    # 1. Road topology: the paper's microscopic interchange.
    network = CityNetworkBuilder(seed=1).build_corridor()
    print(f"road network: {len(network)} segments, "
          f"{network.total_length_m() / 1000:.1f} km")

    # 2. Synthetic dataset + offline labelling.
    generator = DatasetGenerator(
        network,
        GeneratorConfig(n_cars=150, trips_per_car=6, seed=7),
    )
    dataset = generator.generate()
    dataset = Preprocessor().run(dataset)
    abnormal = np.mean(dataset.block.label == 0)
    print(f"dataset: {len(dataset.block)} labelled records "
          f"({abnormal:.0%} abnormal)")

    # 3. Train on 80 % of trips, exactly as the paper does.  Detectors
    #    fit and score blocks: the dataset's rows as columns.
    train, test = dataset.split_by_trip(0.8, seed=0)
    motorway_train = train.by_road_type(RoadType.MOTORWAY).block
    link_train = train.by_road_type(RoadType.MOTORWAY_LINK).block

    centralized = CentralizedDetector().fit(train.block)
    ad3_motorway = AD3Detector(RoadType.MOTORWAY).fit(motorway_train)
    ad3_link = AD3Detector(RoadType.MOTORWAY_LINK).fit(link_train)
    cad3 = CollaborativeDetector(RoadType.MOTORWAY_LINK, nb=ad3_link).fit(
        link_train,
        summaries_from_upstream(ad3_motorway, motorway_train),
        refit_nb=False,
    )
    print("\nlearned CAD3 fusion rules (explainable, Sec. VI-D):")
    print(cad3.explain())

    # 4. Evaluate at the motorway-link RSU.
    link_test = test.by_road_type(RoadType.MOTORWAY_LINK).block
    motorway_test = test.by_road_type(RoadType.MOTORWAY).block
    test_summaries = summaries_from_upstream(ad3_motorway, motorway_test)
    y_true = link_test.label

    print(f"\nevaluation on {len(link_test)} held-out link records:")
    for name, (y_pred, _) in (
        ("centralized", centralized.detect(link_test)),
        ("AD3", ad3_link.detect(link_test)),
        ("CAD3", cad3.detect(link_test, test_summaries)),
    ):
        report = evaluate_binary(y_true, y_pred)
        estimate = expected_accidents(link_test, y_true, y_pred)
        print(f"  {report.format_row(name)}  "
              f"E(potential accidents)={estimate.expected_accidents:.1f}")


if __name__ == "__main__":
    main()
