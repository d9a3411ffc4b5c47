"""Table IV: TP/FN rates and potential accidents E(Lambda).

Paper claims reproduced here (on an evaluation set with ~35 %
abnormality, like the paper's 500 K subset):
- TP rate ordering: CAD3 > AD3 > centralized (paper: 57.9 / 52.3 /
  49.2 % — note the paper's eval subset has a higher abnormal share
  than its training set, so the absolute rates differ from ours);
- FN rate ordering: CAD3 < AD3 < centralized (paper: 6.2 / 11.8 /
  19.9 %);
- E(Lambda) ordering with large factors: the centralized model causes
  several times more potential accidents than CAD3 (paper: 24x), and
  AD3 sits in between (paper: 4x).
"""

from repro.experiments.datasets import corridor_dataset
from repro.experiments.models import fig7_table4_comparison


def test_table4_accidents_large_scale(benchmark):
    def run():
        dataset = corridor_dataset(n_cars=900, trips_per_car=10, seed=1)
        return fig7_table4_comparison(dataset), len(dataset.block)

    result, n_records = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n({n_records} records generated)")
    print(result.format_table4())

    # ~35 % abnormal, like the paper's eval subset.
    assert 0.25 < result.abnormal_fraction < 0.45

    reports = result.reports
    accidents = result.accidents

    # Rate orderings.
    assert (
        reports["cad3"].tp_rate
        > reports["ad3"].tp_rate
        > reports["centralized"].tp_rate
    )
    assert (
        reports["cad3"].fn_rate
        < reports["ad3"].fn_rate
        < reports["centralized"].fn_rate
    )

    # E(Lambda) factors: centralized several times worse than CAD3.
    assert accidents["centralized"].expected_accidents > (
        2.0 * accidents["cad3"].expected_accidents
    )
    assert accidents["ad3"].expected_accidents > (
        1.2 * accidents["cad3"].expected_accidents
    )

    # The FN mechanism drives it: more FNs, more expected accidents.
    assert (
        accidents["centralized"].n_false_negatives
        > accidents["ad3"].n_false_negatives
        > accidents["cad3"].n_false_negatives
    )
