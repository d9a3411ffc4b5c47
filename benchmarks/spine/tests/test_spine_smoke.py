"""The command end to end at ``--smoke`` sizes, and ``repeat_check``."""

import copy
import json
import math
import re

import pytest

import harness
import layers
import repeat_check
import run
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
FAMILY_METRICS = {
    "corridor_paper": layers.CORRIDOR_SERIAL_METRICS,
    "corridor_chaos": layers.CORRIDOR_SERIAL_METRICS,
    "corridor_sharded": layers.CORRIDOR_SHARDED_METRICS,
    "city_day": layers.CITY_SERIAL_METRICS,
    "city_sharded": layers.CITY_SHARDED_METRICS + layers._CITY_PHASE_METRICS,
}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("spine") / "smoke.json"
    code = run.main(["--smoke", "--trace", "--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())


def test_benchmark_json_names_what_the_harness_measures():
    spec = json.loads(run.BENCHMARK_PATH.read_text())
    assert spec["paths"] == ["benchmarks/spine"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in harness.HOST_METRICS
    ]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.catalogue()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + list(WORKLOADS)
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))


def test_every_named_metric_is_reported_with_a_unit(smoke):
    assert set(smoke["workloads"]) == set(WORKLOADS)
    for key in ("nproc", "cpu_model", "python", "numpy", "platform", "git_sha", "seed"):
        assert key in smoke["host"]
    for name, entry in smoke["workloads"].items():
        assert [m.name for m in harness.END_TO_END] == list(entry["metrics"])
        for metric in harness.END_TO_END:
            cell = entry["metrics"][metric.name]
            assert NAME.match(metric.name) and cell["unit"] == metric.unit
            city_null = WORKLOADS[name].family == "city" and metric.clock == "sim"
            if city_null and metric.name != "failed_ops_ratio":
                assert cell["value"] is None
            else:
                assert isinstance(cell["value"], (int, float))
        for metric, unit in FAMILY_METRICS[name] + layers.COMMON_METRICS:
            cell = entry["layers"][metric]
            assert NAME.match(metric) and cell["unit"] == unit
        assert entry["layers"]["trace_overhead_ratio"]["value"] > 0
        assert entry["effective_spec"]["dropped_knobs"] == []
        assert not entry["missing_targets"]


def test_layer_rows_add_up_to_the_traced_wall(smoke):
    for name in ("corridor_paper", "corridor_chaos", "city_day"):
        entry = smoke["workloads"][name]
        rows = entry["layers"]
        total = sum(
            cell["value"]
            for metric, cell in rows.items()
            if metric.endswith(".self_s") or metric in ("city.kernel.tick_s", "unattributed_s")
        )
        assert math.isclose(total, entry["traced_wall_s"], rel_tol=0, abs_tol=1e-9)
        assert rows["unattributed_s"]["value"] <= 0.10 * entry["traced_wall_s"]


def test_the_two_uses_of_one_layer_show(smoke):
    paper = smoke["workloads"]["corridor_paper"]["layers"]
    chaos = smoke["workloads"]["corridor_chaos"]["layers"]
    assert paper["net.dsrc.flushes"]["value"] > 0 == chaos["net.dsrc.flushes"]["value"]
    assert paper["faults.events_injected"]["value"] == 0 < chaos["faults.events_injected"]["value"]
    assert chaos["streaming.producer.retries"]["value"] > 0
    assert chaos["streaming.broker.refused"]["value"] > 0
    assert smoke["workloads"]["corridor_chaos"]["metrics"]["failed_ops_ratio"]["value"] > 0


def test_checks_ran_and_tracing_had_no_observer_effect(smoke):
    for name, entry in smoke["workloads"].items():
        ran = {c["name"]: c["ok"] for c in entry["checks"]}
        assert all(ran.values()), ran
        assert {"repetitions_agree", "expected_digest", "expected_exact_metrics",
                "traced_digest"} <= set(ran)
        # The audit reads a scenario's live objects: single-process runs.
        assert ("conservation_audit" in ran) == (name != "corridor_sharded")
    sharded = {c["name"] for c in smoke["workloads"]["city_sharded"]["checks"]}
    assert {"rebalance_fired", "equals_city_day"} <= sharded
    assert (
        smoke["workloads"]["corridor_sharded"]["digest"]
        == run.load_expected(True, smoke["host"]["seed"])["corridor_sharded"]["digest"]
    )


def test_a_failed_check_fails_the_command(tmp_path, monkeypatch, capsys):
    pinned = json.loads(run.EXPECTED_PATH.read_text())
    pinned["smoke"]["city_day"]["digest"] = "0" * 64
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps(pinned))
    monkeypatch.setattr(run, "EXPECTED_PATH", wrong)
    out = tmp_path / "out.json"
    assert run.main(["--smoke", "--workload", "city_day", "--out", str(out)]) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 1
    entry = json.loads(out.read_text())["workloads"]["city_day"]
    assert entry["metrics"]["failed_ops_ratio"]["value"] == 1.0


def test_driver_line_has_every_listed_metric_as_a_number(smoke):
    spec = json.loads(run.BENCHMARK_PATH.read_text())
    for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        one = {"city_day": smoke["workloads"]["city_day"]}
        line = run.driver_line(one, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in listed]
        for cell in line["metrics"].values():
            assert isinstance(cell["value"], (int, float)) and cell["unit"]
    assert line["metrics"]["simkernel.self_s"]["value"] == run.NOT_MEASURED
    assert line["metrics"]["city.kernel.tick_s"]["value"] > 0


# ----------------------------------------------------------------------
# repeat_check
# ----------------------------------------------------------------------
def _verdicts(a, b):
    return {(w, m): v for w, m, _a, _b, _worse, v in repeat_check.compare(a, b)}


def test_repeat_check_passes_a_result_against_itself(smoke):
    verdicts = _verdicts(smoke, smoke)
    assert len(verdicts) == len(WORKLOADS) * len(harness.END_TO_END)
    assert "fail" not in verdicts.values()


def test_repeat_check_flags_a_planted_throughput_drop(smoke):
    bound = repeat_check.bounds()["throughput_per_s"]
    factor = 1 - (bound + 0.05)  # five points past the bound
    slower = copy.deepcopy(smoke)
    entry = slower["workloads"]["corridor_paper"]
    entry["metrics"]["throughput_per_s"]["value"] *= factor
    entry["samples"]["throughput_per_s"] = [
        v * factor for v in entry["samples"]["throughput_per_s"]
    ]
    verdicts = _verdicts(smoke, slower)
    assert verdicts[("corridor_paper", "throughput_per_s")] == "fail"
    assert verdicts[("corridor_chaos", "throughput_per_s")] != "fail"
    # The same change the other way round is a gain, not a regression.
    assert _verdicts(slower, smoke)[("corridor_paper", "throughput_per_s")] != "fail"


def test_repeat_check_flags_a_one_ulp_change_of_an_exact_metric(smoke):
    drifted = copy.deepcopy(smoke)
    cell = drifted["workloads"]["corridor_chaos"]["metrics"]["sim_e2e_p99_ms"]
    cell["value"] = math.nextafter(cell["value"], math.inf)
    verdicts = _verdicts(smoke, drifted)
    assert verdicts[("corridor_chaos", "sim_e2e_p99_ms")] == "fail"
    assert verdicts[("corridor_chaos", "sim_e2e_p50_ms")] == "pass"
    assert verdicts[("city_day", "sim_e2e_p99_ms")] == "pass"  # null == null


def test_repeat_check_calls_a_noisy_metric_unresolved():
    metric = harness.HOST_METRICS[1]  # throughput_per_s
    noisy = {"value": 100.0, "samples": [80.0, 100.0, 125.0]}
    assert repeat_check.verdict(metric, 0.10, noisy, dict(noisy))[1] == "unresolved"
    steady = {"value": 100.0, "samples": [99.0, 100.0, 101.0]}
    assert repeat_check.verdict(metric, 0.10, steady, dict(steady))[1] == "pass"
    faster = {"value": 300.0, "samples": [250.0, 300.0, 380.0]}
    assert repeat_check.verdict(metric, 0.10, noisy, faster)[1] == "pass"
