"""Table III: dataset statistics after filtering erroneous values.

Paper shape reproduced here: the motorway rows show a much higher mean
speed than the overall mean (paper: 160 vs 23.7 km/h overall over all
road classes; our corridor covers the two classes the testbed uses,
160 vs 115), and filtering removes the erroneous records.
"""

from repro.dataset import Preprocessor
from repro.experiments.datasets import corridor_dataset, table3_statistics
from repro.geo import RoadType


def test_table3_dataset_statistics(benchmark):
    def build():
        dataset = corridor_dataset(
            n_cars=200, trips_per_car=6, erroneous_rate=0.01, labeled=False
        )
        raw_count = len(dataset.records)
        dataset = Preprocessor().run(dataset)
        return table3_statistics(dataset), raw_count, len(dataset.records)

    stats, raw_count, kept_count = benchmark.pedantic(
        build, rounds=1, iterations=1
    )
    print("\n" + stats.format_table())
    print(f"filtered {raw_count - kept_count} erroneous records "
          f"({raw_count} -> {kept_count})")

    # Filtering removed something but not much.
    assert kept_count < raw_count
    assert kept_count > 0.95 * raw_count

    motorway = stats.per_road_type[RoadType.MOTORWAY]
    link = stats.per_road_type[RoadType.MOTORWAY_LINK]

    # Paper Table III: motorway ~160 km/h, motorway link ~115 km/h.
    assert 130 < motorway.mean_speed_kmh < 180
    assert 90 < link.mean_speed_kmh < 130
    assert motorway.mean_speed_kmh > link.mean_speed_kmh

    # Every car and trip accounted for.
    assert stats.overall.n_cars == 200
    assert stats.overall.n_trips >= 200
    assert stats.overall.n_trajectories == kept_count
