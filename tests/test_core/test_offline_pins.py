"""Bit-exact pins of the corridor's offline stage.

The offline stage (Sec. IV-B) is generate -> filter/label -> split ->
fit -> replay pools -> wire templates.  The golden suites pin what a
run does downstream of it; these pin the stage itself, so that a
labelling, split or encoding drift that happens not to move a digest
is still seen.  The hashes were captured before the stage moved from
per-record Python to column passes and must never move.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.features import payload_columns
from repro.core.scenario import ScenarioSpec, paper_corridor
from repro.core.system import TestbedScenario, corridor_bundle, default_training_dataset
from repro.core.wire import telemetry_struct_serde
from repro.dataset import DatasetGenerator, GeneratorConfig, Preprocessor, TelemetryRecord
from repro.geo import CityNetworkBuilder


def _records_fingerprint(records):
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode())
    return digest.hexdigest()[:16]


def _nb_parts(model):
    return [
        model.classes_,
        model.theta_,
        model.var_,
        model.class_log_prior_,
        model._counts,
        np.float64(model._epsilon),
    ]


def _tree_parts(tree):
    parts = [tree.classes_]
    stack = [tree.root_]
    while stack:
        node = stack.pop()
        parts.append(
            np.array(
                [node.n_samples, node.depth, -1 if node.feature is None else node.feature]
            )
        )
        parts.append(node.class_counts)
        parts.append(np.float64(node.threshold))
        stack.extend(child for child in (node.right, node.left) if child is not None)
    return parts


def _detector_fingerprint(detector):
    if hasattr(detector, "tree"):
        parts = _nb_parts(detector.nb.model) + _tree_parts(detector.tree)
    else:
        parts = _nb_parts(detector.model)
    digest = hashlib.sha256()
    for part in parts:
        array = np.ascontiguousarray(part)
        digest.update(str(array.dtype).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def _vehicles_fingerprint(vehicles):
    """Each vehicle's car id, template rows, struct mask and payloads.
    The pins predate single-format topics, when a JSON vehicle held
    zero rows under an all-False mask and a struct one an all-True mask:
    the same bytes are hashed here."""
    digest = hashlib.sha256()
    for vehicle in vehicles:
        struct = vehicle._templates is not None
        templates = (
            vehicle._templates if struct else np.zeros((len(vehicle._stripe), 71), np.uint8)
        )
        digest.update(str(vehicle.car_id).encode())
        digest.update(np.ascontiguousarray(templates).tobytes())
        digest.update(np.full(len(templates), struct).tobytes())
        digest.update(repr(list(vehicle._payloads)).encode())
    return digest.hexdigest()[:16]


class TestDatasetPins:
    PINS = {7: "a2261fb06f4a11d6", 11: "efa882292f70f5b7"}

    @pytest.mark.parametrize("seed", sorted(PINS))
    def test_labelled_dataset_is_pinned(self, seed):
        dataset = default_training_dataset(seed)
        assert _records_fingerprint(dataset.records) == self.PINS[seed]


class TestPreprocessorPins:
    """Filtering and both labelling granularities over data with
    erroneous readings (``default_training_dataset`` has none)."""

    PINS = {"type": "9a7a6a8559cf9fc7", "type_hour": "ce6fada892d18911"}

    @pytest.mark.parametrize("granularity", sorted(PINS))
    def test_preprocessed_records_are_pinned(self, granularity):
        network = CityNetworkBuilder(seed=11).build_corridor()
        raw = DatasetGenerator(
            network, GeneratorConfig(n_cars=40, seed=11, erroneous_rate=0.05)
        ).generate()
        records = Preprocessor(granularity=granularity).run(raw).records
        assert _records_fingerprint(records) == self.PINS[granularity]


@pytest.fixture(scope="module")
def small_dataset():
    return default_training_dataset(seed=11, n_cars=40)


class TestCorridorPins:
    POOLS = {"motorway": "1b09047dc817be98", "link": "aaa0d816d1c0e483"}
    DETECTORS = {"motorway": "7bf9d52e9adf3015", "link": "36b9a4fec0e2a387"}
    VEHICLES = {
        ("struct", "built"): "b24ce555a2af6a81",
        ("struct", "run"): "9ec5ac73505723a8",
        ("json", "built"): "a45d58f0d55a4114",
        ("json", "run"): "7e88994a730d9c9f",
    }

    @staticmethod
    def _spec(profile):
        return ScenarioSpec(
            n_vehicles=5,
            duration_s=1.0,
            serde_profile=profile,
            handover_fraction=0.4,
        )

    def test_pools_and_detectors_are_pinned(self, small_dataset):
        bundle = corridor_bundle(self._spec("struct"), dataset=small_dataset)
        assert {
            name: _records_fingerprint(pool) for name, pool in bundle.pools.items()
        } == self.POOLS
        assert {
            name: _detector_fingerprint(detector)
            for name, detector in bundle.detectors.items()
        } == self.DETECTORS

    @pytest.mark.parametrize("profile", ["struct", "json"])
    def test_vehicle_templates_are_pinned(self, small_dataset, profile):
        scenario = TestbedScenario.corridor(self._spec(profile), dataset=small_dataset)
        built = _vehicles_fingerprint(scenario.vehicles)
        scenario.run()  # the handover restripes 40% of each motorway group
        ran = _vehicles_fingerprint(scenario.vehicles)
        assert (built, ran) == (
            self.VEHICLES[(profile, "built")],
            self.VEHICLES[(profile, "run")],
        )


class TestTheCorridorBuildsNoRecord:
    """The dataset is columns from generation to replay pool: building
    the spine's paper corridor (``TestbedScenario.corridor`` over
    ``default_training_dataset(7)``) and running it construct no
    :class:`TelemetryRecord` (records are a row view, made only when a
    per-record consumer asks)."""

    def test_build_and_run_construct_zero_records(self, monkeypatch):
        built = []
        post_init = TelemetryRecord.__post_init__

        def counted(record):
            built.append(1)
            post_init(record)

        monkeypatch.setattr(TelemetryRecord, "__post_init__", counted)
        spec = dataclasses.replace(
            paper_corridor().build(),
            n_vehicles=13,
            duration_s=2.0,
            serde_profile="struct",
        )
        scenario = TestbedScenario.corridor(spec, dataset=default_training_dataset(7))
        assert len(built) == 0
        scenario.run()
        assert len(built) == 0
        assert sum(vehicle.stats.records_sent for vehicle in scenario.vehicles) > 0


class TestTemplatePins:
    """The IN-DATA wire templates of every row of the default training
    dataset (car id 0, ``generated_at`` 0.0, ``arrived_at`` unset), as
    the telemetry codec's column encoder packs them: one 71-byte row
    per record."""

    PIN = "0b49f90529ece243"

    def test_template_rows_are_pinned(self):
        block = default_training_dataset(7).block
        n = len(block)
        columns = dict(payload_columns(block), car=[0] * n)
        columns.update(gen=[0.0] * n, arr=[None] * n)
        rows = np.frombuffer(
            b"".join(telemetry_struct_serde().encode_batch(columns)), np.uint8
        ).reshape(n, -1)
        assert rows.shape == (27728, 71)
        assert hashlib.sha256(rows.tobytes()).hexdigest()[:16] == self.PIN
