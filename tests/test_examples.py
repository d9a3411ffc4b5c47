"""Smoke tests: every example script must run clean.

Examples are the quickstart surface of the repository; a broken one is
a broken front door.  Each runs in-process via ``runpy`` with argv
pinned (quick flags where supported).
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

#: (script, argv) — quick variants where the script supports them.
FAST_EXAMPLES = [
    ("streaming_pipeline.py", []),
    ("city_deployment.py", []),
    ("rsu_failover.py", []),
]

SLOW_EXAMPLES = [
    ("quickstart.py", []),
    ("testbed_latency.py", ["--quick"]),
    ("drift_adaptation.py", []),
    ("mesoscopic_trip.py", []),
]


def run_example(name: str, argv: list, capsys) -> str:
    path = EXAMPLES_DIR / name
    assert path.exists(), f"missing example: {path}"
    old_argv = sys.argv
    sys.argv = [str(path)] + argv
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


@pytest.mark.parametrize("name,argv", FAST_EXAMPLES)
def test_fast_example_runs(name, argv, capsys):
    output = run_example(name, argv, capsys)
    assert output.strip(), f"{name} produced no output"


@pytest.mark.parametrize("name,argv", SLOW_EXAMPLES)
def test_slow_example_runs(name, argv, capsys):
    output = run_example(name, argv, capsys)
    assert output.strip(), f"{name} produced no output"


def test_quickstart_shows_model_ordering(capsys):
    output = run_example("quickstart.py", [], capsys)
    assert "CAD3" in output
    assert "E(potential accidents)" in output


def test_failover_example_reports_absorption(capsys):
    output = run_example("rsu_failover.py", [], capsys)
    assert "FAILED" in output
    assert "absorbed" in output
