"""The fuzz runner: green budgets, determinism, and the planted-bug
demonstration (find → shrink → persist → replay)."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.rsu import RsuNode
from repro.fuzz import FuzzConfig, FuzzRunner, run_oracles
from repro.fuzz import runner as runner_module
from repro.fuzz.runner import minimize_spec, replay_corpus_entry
from repro.fuzz.spec import FuzzSpec
from repro.obs import audit as audit_module


class TestGreenRun:
    def test_small_budget_all_oracles_green(self):
        report = FuzzRunner(FuzzConfig(seed=11, examples=6)).run()
        assert report.ok, [f.to_dict() for f in report.failures]
        assert report.scenarios_run == 6
        # One conservation audit per scenario, corridor or city, and
        # the observer-effect identity on every corridor one.
        counts = report.oracle_counts
        assert counts["conservation_audit"] > 0
        assert (
            counts["conservation_audit"] + counts.get("city_conservation_audit", 0)
            == 6
        )
        assert counts["observer_effect"] == counts["conservation_audit"]

    def test_markdown_report_mentions_outcome(self):
        report = FuzzRunner(FuzzConfig(seed=11, examples=2)).run()
        assert "all oracles green" in report.format_markdown()


class TestDeterminism:
    def test_same_seed_same_spec_sequence(self):
        config = FuzzConfig(seed=5, examples=10)
        first = FuzzRunner(config).sample_specs(10)
        second = FuzzRunner(config).sample_specs(10)
        assert first == second

    def test_different_seed_different_sequence(self):
        first = FuzzRunner(FuzzConfig(seed=5)).sample_specs(10)
        second = FuzzRunner(FuzzConfig(seed=6)).sample_specs(10)
        assert first != second

    def test_oracle_digest_is_reproducible(self):
        spec = FuzzSpec(vehicles=3)
        assert run_oracles(spec).digest == run_oracles(spec).digest


def _double_count(scenario) -> None:
    """A known-fixed off-by-one: the busiest RSU counts one extra issued
    warning (the migrated-car double count), which the
    warning-conservation law then catches."""
    busiest = None
    for _, rsu in sorted(scenario.rsus.items()):
        if rsu.warnings_issued > 0 and (
            busiest is None or rsu.warnings_issued > busiest.warnings_issued
        ):
            busiest = rsu
    if busiest is not None:
        busiest.warnings_issued += 1


class TestPlantedBugDemonstration:
    """Acceptance demo: a deliberately re-introduced off-by-one (the
    once-fixed migrated-warning double count, planted in front of the
    conservation audit) must be *found* by the fuzzer, *shrunk* to a
    <= 5-line JSON repro, and *persisted* as a corpus entry that stops
    failing once the plant is gone."""

    @pytest.fixture
    def planted(self, monkeypatch):
        audit_scenario = audit_module.audit_scenario

        def double_counted(scenario):
            _double_count(scenario)
            return audit_scenario(scenario)

        monkeypatch.setattr(audit_module, "audit_scenario", double_counted)
        yield monkeypatch

    def test_found_shrunk_and_persisted(self, planted, tmp_path):
        config = FuzzConfig(
            seed=0, examples=10, max_failures=1, corpus_dir=tmp_path
        )
        report = FuzzRunner(config).run()

        assert not report.ok
        failure = report.failures[0]
        assert any(
            "conservation_audit" in message for message in failure.failures
        )

        # Shrunk to a minimal spec: its JSON fits in five lines.
        repro_json = failure.spec.to_json()
        assert len(repro_json.splitlines()) <= 5

        # Persisted as a replayable corpus entry.
        assert failure.corpus_path is not None
        corpus_file = Path(failure.corpus_path)
        assert corpus_file.parent == tmp_path
        payload = json.loads(corpus_file.read_text())
        assert payload["expect"] == "fail"
        assert payload["spec"] == failure.spec.to_payload()

        # With the plant gone, the shrunk spec is green again: exactly
        # what a fixed bug looks like on replay.
        planted.undo()
        assert run_oracles(failure.spec).ok


class PlantedCrash(RuntimeError):
    pass


class TestPlantedCrash:
    """A crash is a finding: a ``raise`` planted in an RSU callback
    escapes nothing — ``repro fuzz`` finds it, shrinks it without
    sliding onto another bug, and writes it to ``--corpus-dir``."""

    @pytest.fixture
    def crashing_handover(self, monkeypatch):
        def handover(self, car_id, target_name):
            raise PlantedCrash(f"{self.name} -> {target_name}")

        monkeypatch.setattr(RsuNode, "handover", handover)

    def test_found_shrunk_and_persisted(
        self, crashing_handover, tmp_path, capsys
    ):
        code = main(
            ["fuzz", "--smoke", "--seed", "0", "--budget", "10",
             "--corpus-dir", str(tmp_path), "--format", "json"]
        )
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        (failure,) = report["failures"]
        assert failure["error"] == "PlantedCrash"
        assert failure["failures"][0].startswith("crash: PlantedCrash: ")
        assert "(in handover, test_fuzzer.py:" in failure["failures"][0]

        # Shrunk: only what makes an RSU hand a car over is left.
        found = FuzzSpec.from_payload(failure["found_spec"])
        spec = FuzzSpec.from_payload(failure["spec"])
        assert spec.handover_fraction > 0
        assert spec.shards == 1 and not spec.faults
        assert spec.vehicles <= found.vehicles
        assert spec.to_payload().keys() <= {"seed", "handover_fraction", "vehicles"}

        # Persisted as a replayable expect-fail entry naming the crash.
        (entry,) = tmp_path.glob("*.json")
        assert str(entry) == failure["corpus_path"]
        payload = json.loads(entry.read_text())
        assert payload["expect"] == "fail"
        assert payload["spec"] == failure["spec"]
        assert "PlantedCrash" in payload["failures"][0]
        assert replay_corpus_entry(entry)["ok"]

    def test_shrinks_only_onto_the_same_exception(self, monkeypatch):
        """A simpler spec that fails differently is not a shrink step."""
        seen = []

        def run_oracles(spec):
            seen.append(spec)
            if spec.vehicles > 2:
                raise PlantedCrash("planted")
            raise KeyError("a different bug")

        monkeypatch.setattr(runner_module, "run_oracles", run_oracles)
        spec, failures = minimize_spec(FuzzSpec(vehicles=6))
        assert spec == FuzzSpec(vehicles=3)
        (failure,) = failures
        assert failure.startswith("crash: PlantedCrash: planted (in run_oracles")
        assert FuzzSpec(vehicles=2) in seen  # tried, and refused
