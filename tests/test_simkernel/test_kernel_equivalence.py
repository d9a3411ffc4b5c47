"""End-to-end kernel equivalence: the production tuple heap vs the
seed's heap of ``Event`` objects.

The event kernel must be invisible to the system above it — same
warnings, same summary chain, same latency statistics, bit for bit, on
a real corridor scenario.
"""

import pytest

from repro.core.scenario import ScenarioSpec
from repro.core.system import TestbedScenario
from tests.test_simkernel.reference_queue import ReferenceEventQueue


def run_corridor():
    spec = ScenarioSpec(n_vehicles=4, duration_s=2.0, seed=5)
    result = TestbedScenario.corridor(spec).run()
    signature = tuple(
        (
            name,
            metrics.warnings_issued,
            metrics.n_events,
            metrics.summaries_sent,
            metrics.summaries_received,
        )
        for name, metrics in sorted(result.rsu_metrics.items())
    )
    return signature, result.mean_e2e_ms()


@pytest.fixture(scope="module")
def new_kernel_result():
    return run_corridor()


def test_reference_heap_matches_the_production_heap(
    monkeypatch, new_kernel_result
):
    monkeypatch.setattr(
        "repro.simkernel.simulator.EventQueue", ReferenceEventQueue
    )
    assert run_corridor() == new_kernel_result


def test_a_rerun_reproduces_the_production_run(new_kernel_result):
    """Rerun determinism: a second run on the production heap, in the
    same process, equals the first bit for bit."""
    assert run_corridor() == new_kernel_result
