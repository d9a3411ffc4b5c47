"""Shared fixtures: a labelled corridor dataset and trained detectors.

Session-scoped because generation + labelling is the expensive part of
the suite; tests must not mutate these objects.
"""

import pytest

from repro.core.collaborative import summaries_from_upstream
from repro.core.detector import AD3Detector
from repro.dataset import DatasetGenerator, GeneratorConfig, Preprocessor
from repro.fuzz.spec import GOLDEN_DATASET_SEED, GOLDEN_SCENARIO_SEED
from repro.geo import CityNetworkBuilder, RoadType


@pytest.fixture(scope="session")
def golden_seeds():
    """The canonical RNG seeds every golden suite derives from —
    single-sourced in :mod:`repro.fuzz.spec` so the fuzzer, the golden
    tests, and this fixture can never drift apart."""
    return {
        "scenario": GOLDEN_SCENARIO_SEED,
        "dataset": GOLDEN_DATASET_SEED,
    }


@pytest.fixture(scope="session")
def corridor_network():
    return CityNetworkBuilder(seed=1).build_corridor()


@pytest.fixture(scope="session")
def labeled_dataset(corridor_network, golden_seeds):
    generator = DatasetGenerator(
        corridor_network,
        GeneratorConfig(
            n_cars=120,
            trips_per_car=6,
            seed=golden_seeds["dataset"],
            erroneous_rate=0.0,
        ),
    )
    return Preprocessor().run(generator.generate())


@pytest.fixture(scope="session")
def split(labeled_dataset):
    """The train and replay trips, as datasets (columns)."""
    return labeled_dataset.split_by_trip(0.8, seed=0)


@pytest.fixture(scope="session")
def trip_split(split):
    """The train and replay trips' records."""
    return tuple(part.records for part in split)


def _road_blocks(split, road_type):
    return tuple(part.by_road_type(road_type).block for part in split)


@pytest.fixture(scope="session")
def link_blocks(split):
    """The train and replay trips' motorway-link rows."""
    return _road_blocks(split, RoadType.MOTORWAY_LINK)


@pytest.fixture(scope="session")
def motorway_blocks(split):
    """The train and replay trips' motorway rows."""
    return _road_blocks(split, RoadType.MOTORWAY)


@pytest.fixture(scope="session")
def motorway_detector(motorway_blocks):
    train, _ = motorway_blocks
    return AD3Detector(RoadType.MOTORWAY).fit(train)


@pytest.fixture(scope="session")
def motorway_records(trip_split):
    train, test = trip_split
    return (
        [r for r in train if r.road_type is RoadType.MOTORWAY],
        [r for r in test if r.road_type is RoadType.MOTORWAY],
    )


@pytest.fixture(scope="session")
def audit_invariants():
    """The invariant audit as a fixture: call it on any finished
    *serial* scenario and the pipeline's conservation laws are checked
    (telemetry, detection, collaboration, warning accounting — see
    :mod:`repro.obs.audit`).  Raises ``AssertionError`` with every
    violated law when a record or warning went missing unaccounted.

    Session-scoped (it is stateless) so module-scoped scenario
    fixtures can use it too.
    """
    from repro.obs.audit import assert_invariants

    return assert_invariants


@pytest.fixture(scope="session")
def upstream_summaries(motorway_detector, motorway_blocks):
    train_mw, test_mw = motorway_blocks
    return (
        summaries_from_upstream(motorway_detector, train_mw),
        summaries_from_upstream(motorway_detector, test_mw),
    )
