"""Standard experiment datasets and Table III.

Experiments share workloads built here so their results are directly
comparable.  ``corridor_dataset`` is the microscopic workload of the
paper's testbed (vehicles flowing motorway -> motorway link).
"""

from __future__ import annotations

from typing import Optional

from repro.dataset.generator import DatasetGenerator, GeneratorConfig, SyntheticDataset
from repro.dataset.preprocess import Preprocessor
from repro.dataset.stats import DatasetStatistics, compute_statistics
from repro.geo.network_builder import CityNetworkBuilder
from repro.geo.roadnet import RoadNetwork


def corridor_dataset(
    n_cars: int = 300,
    trips_per_car: int = 8,
    seed: int = 1,
    erroneous_rate: float = 0.0,
    network: Optional[RoadNetwork] = None,
    labeled: bool = True,
) -> SyntheticDataset:
    """The standard motorway -> motorway-link workload, labelled.

    Defaults produce ~80 K records in a couple of seconds; the model
    benchmarks scale ``n_cars``/``trips_per_car`` up to the paper's
    500 K-sample evaluation set.
    """
    network = network or CityNetworkBuilder(seed=seed).build_corridor()
    generator = DatasetGenerator(
        network,
        GeneratorConfig(
            n_cars=n_cars,
            trips_per_car=trips_per_car,
            seed=seed,
            erroneous_rate=erroneous_rate,
        ),
    )
    dataset = generator.generate()
    return Preprocessor().run(dataset) if labeled else dataset


def table3_statistics(
    dataset: Optional[SyntheticDataset] = None,
) -> DatasetStatistics:
    """Table III: dataset statistics after filtering."""
    dataset = dataset or corridor_dataset(erroneous_rate=0.01)
    return compute_statistics(dataset.records)
