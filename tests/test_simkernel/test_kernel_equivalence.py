"""End-to-end kernel equivalence: calendar queue + group ticks vs the
reference heap with independent recurrences.

The event-kernel overhaul must be invisible to the system above it —
same warnings, same summary chain, same latency statistics, bit for
bit, on a real corridor scenario.
"""

import pytest

from repro.core.scenario import ScenarioSpec
from repro.core.system import TestbedScenario
from repro.simkernel import Simulator
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


def test_reference_heap_without_coalescing_matches(
    monkeypatch, new_kernel_result
):
    monkeypatch.setattr(
        "repro.simkernel.simulator.EventQueue", ReferenceEventQueue
    )
    monkeypatch.setattr(Simulator, "every_group", Simulator.every)
    assert run_corridor() == new_kernel_result


def test_calendar_queue_without_coalescing_matches(
    monkeypatch, new_kernel_result
):
    monkeypatch.setattr(Simulator, "every_group", Simulator.every)
    assert run_corridor() == new_kernel_result
