#!/usr/bin/env python3
"""The bench spine: five named workloads, ten end-to-end metrics, a
per-layer table.  One command prints every metric by name with its
unit, checks that the outputs are correct, and exits non-zero if they
are not.

    python3 benchmarks/spine/run.py [--workload NAME]... [--seed 7]
        [--seconds S] [--trace] [--smoke] [--out FILE]

Every repetition runs in a fresh probe process (``probe.py``).  The
first repetition's ``run()`` wall sizes the rest: ``round(seconds /
wall)`` repetitions, at least two, so a run measures for about
``--seconds`` whatever the host.  End-to-end metrics come from those
untraced repetitions; ``--trace`` adds one traced repetition per
workload for the layer table.

The last line of standard output is one JSON object, ``{"correct",
"attempted", "failed", "metrics"}``: the end-to-end metrics of
``BENCHMARK.json``, or with ``--trace 1`` its per-layer metrics, where
``-1`` stands for *not measured on this workload* (the full result
under ``--out`` says ``null``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import harness
from harness import END_TO_END
from workloads import WORKLOADS

EXPECTED_PATH = harness.SPINE_DIR / "expected.json"
BENCHMARK_PATH = harness.REPO_ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = tuple(WORKLOADS)
FAULTY = ("corridor_chaos",)
MAX_REPETITIONS = 9
#: The driver's value for "not measured on this workload".
NOT_MEASURED = -1


def repetitions_for(seconds: float, first_wall_s: float) -> int:
    return max(2, min(MAX_REPETITIONS, round(seconds / first_wall_s)))


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float, smoke: bool, trace: bool) -> dict:
    """Untraced repetitions, the optional traced one, and the checks."""
    reps = [harness.run_probe(name, seed, smoke, trace=False)]
    wanted = repetitions_for(seconds, reps[0]["run_wall_s"])
    while len(reps) < wanted:
        reps.append(harness.run_probe(name, seed, smoke, trace=False))
    first = reps[0]
    work = first["work"]
    walls = [rep["run_wall_s"] for rep in reps]
    samples = {
        "setup_s": [rep["setup_wall_s"] for rep in reps],
        "throughput_per_s": [work / wall for wall in walls],
        "cpu_s": [rep["run_cpu_s"] for rep in reps],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in reps],
        "run_wall_s": walls,
    }
    median_wall = statistics.median(walls)
    values = dict(first["exact"])
    values.update(
        setup_s=statistics.median(samples["setup_s"]),
        throughput_per_s=work / median_wall,
        cpu_s=statistics.median(samples["cpu_s"]),
        peak_rss_mb=statistics.median(samples["peak_rss_mb"]),
    )

    checks = []

    def check(label: str, ok: bool, detail: str = "") -> None:
        checks.append({"name": label, "ok": bool(ok), "detail": detail})

    check(
        "repetitions_agree",
        all(
            rep["digest"] == first["digest"] and rep["exact"] == first["exact"]
            and rep["work"] == work
            for rep in reps
        ),
        f"{len(reps)} repetitions, digest {first['digest'][:16]}",
    )
    if name not in FAULTY:
        check(
            "nothing_lost",
            first["exact"]["failed_ops_ratio"] == 0.0,
            f"failed_ops_ratio {first['exact']['failed_ops_ratio']!r}",
        )
    if "audit" in first["facts"]:
        failures = [f for rep in reps for f in rep["facts"]["audit"]]
        check("conservation_audit", not failures, "; ".join(failures))
    if name == "city_sharded" and first["effective_spec"].get("shards", 1) > 1:
        moves = first["facts"]["rebalance_moves"]
        check("rebalance_fired", moves >= 1, f"{moves} RSU moves")
    expected = load_expected(smoke, seed).get(name)
    if expected is not None:
        check(
            "expected_digest",
            first["digest"] == expected["digest"],
            f"pinned {expected['digest'][:16]} (a serial run of the same spec)",
        )
        drift = [
            f"{k}: {first['exact'].get(k)!r} != {v!r}"
            for k, v in expected["exact"].items()
            if first["exact"].get(k) != v
        ]
        check("expected_exact_metrics", not drift, "; ".join(drift))

    entry = {
        "why": WORKLOADS[name].why,
        "work": {"units": work, "unit": WORKLOADS[name].work_unit},
        "repetitions": len(reps),
        "samples": samples,
        "quartiles": {k: harness.quartiles(v) for k, v in samples.items()},
        "digest": first["digest"],
        "facts": first["facts"],
        "effective_spec": first["effective_spec"],
        "layers": None,
        "missing_targets": None,
    }
    if trace:
        traced = harness.run_probe(name, seed, smoke, trace=True)
        table = traced["layers"]
        table["trace_overhead_ratio"]["value"] = traced["run_wall_s"] / median_wall
        entry["layers"] = table
        entry["missing_targets"] = traced.get("missing_targets")
        entry["traced_wall_s"] = traced["run_wall_s"]
        check(
            "traced_digest",
            traced["digest"] == first["digest"],
            "the wrappers and observability=True have no observer effect",
        )
        if "audit" in traced["facts"] and "audit" not in first["facts"]:
            failures = traced["facts"]["audit"]
            check("conservation_audit", not failures, "; ".join(failures))
    entry["checks"] = checks
    entry["metrics"] = {
        m.name: {"value": values[m.name], "unit": m.unit, "clock": m.clock}
        for m in END_TO_END
    }
    return entry


# ----------------------------------------------------------------------
# Pinned expectations
# ----------------------------------------------------------------------
def _expected_file() -> dict:
    try:
        return json.loads(EXPECTED_PATH.read_text())
    except OSError:
        return {}


def load_expected(smoke: bool, seed: int) -> dict:
    """The pinned section for this size, if ``seed`` is the pinned one."""
    data = _expected_file()
    if seed != data.get("seed"):
        return {}
    return data.get("smoke" if smoke else "full", {})


def update_expected(names, seed: int, smoke: bool) -> None:
    """Pin digests and exact metrics from one *serial* run of every
    workload's spec, so a sharded workload is held to the serial
    result."""
    data = _expected_file()
    data["seed"] = seed
    section = data.setdefault("smoke" if smoke else "full", {})
    for name in names:
        rep = harness.run_probe(name, seed, smoke, trace=False, serial=True)
        section[name] = {"digest": rep["digest"], "exact": rep["exact"]}
        print(f"pinned {name}: {rep['digest']}")
    EXPECTED_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_workload(name: str, entry: dict) -> None:
    work = entry["work"]
    print(f"\n== {name}: {work['units']} {work['unit']} per repetition, "
          f"{entry['repetitions']} repetitions, digest {entry['digest'][:16]}")
    for metric, cell in entry["metrics"].items():
        extra = ""
        if metric in entry["samples"]:
            q = entry["quartiles"][metric]
            extra = f"  [q1 {_fmt(q['q1'])}, q3 {_fmt(q['q3'])}, {cell['clock']}]"
        print(f"  {metric:<26} {_fmt(cell['value']):>14} {cell['unit']}{extra}")
    if entry["layers"] is not None:
        wall = statistics.median(entry["samples"]["run_wall_s"])
        print(f"  -- layers (traced wall {_fmt(entry['traced_wall_s'])} s; "
              f"shares of the untraced wall {_fmt(wall)} s)")
        for metric, cell in entry["layers"].items():
            share = ""
            if cell["unit"] == "s" and cell["value"] is not None:
                share = f"  {100 * cell['value'] / wall:5.1f} %"
            print(f"  {metric:<38} {_fmt(cell['value']):>14} {cell['unit']}{share}")
        if entry["missing_targets"]:
            print(f"  missing targets: {', '.join(entry['missing_targets'])}")
    for c in entry["checks"]:
        print(f"  check {c['name']:<24} {'ok' if c['ok'] else 'FAILED'}  {c['detail']}")


def driver_line(results: dict, trace: bool) -> dict:
    """The last line: the metrics ``BENCHMARK.json`` names, flat for
    one workload, ``workload:metric`` for several."""
    spec = json.loads(BENCHMARK_PATH.read_text())
    metrics = {}
    for name, entry in results.items():
        prefix = f"{name}:" if len(results) > 1 else ""
        for listed in spec["per_layer" if trace else "end_to_end"]:
            source = entry["layers"] if trace else entry["metrics"]
            value = (source.get(listed["name"]) or {}).get("value")
            metrics[prefix + listed["name"]] = {
                "value": NOT_MEASURED if value is None else value,
                "unit": listed["unit"],
            }
    checks = [c for entry in results.values() for c in entry["checks"]]
    failed = sum(not c["ok"] for c in checks)
    return {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                        "BENCHMARK.json's run_seconds; two repetitions with --smoke)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--update-expected", action="store_true")
    args = parser.parse_args(argv)

    names = args.workload or list(WORKLOAD_NAMES)
    if args.update_expected:
        update_expected(names, args.seed, args.smoke)
        return 0
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.smoke else json.loads(BENCHMARK_PATH.read_text())["run_seconds"]

    results = {}
    for name in names:
        print(f"spine: measuring {name} ...", file=sys.stderr)
        results[name] = measure(name, args.seed, seconds, args.smoke, bool(args.trace))
    if "city_day" in results and "city_sharded" in results:
        results["city_sharded"]["checks"].append(
            {
                "name": "equals_city_day",
                "ok": results["city_day"]["digest"] == results["city_sharded"]["digest"],
                "detail": "digest of this invocation's city_day",
            }
        )
    for name, entry in results.items():
        if not all(c["ok"] for c in entry["checks"]):
            # A wrong answer is a failed operation, whatever it counted.
            entry["metrics"]["failed_ops_ratio"]["value"] = 1.0
        print_workload(name, entry)

    document = {
        "host": harness.host_fingerprint(args.seed),
        "benchmark": {"seconds": seconds, "smoke": args.smoke, "trace": bool(args.trace)},
        "workloads": results,
    }
    if args.out:
        args.out.write_text(json.dumps(document, indent=2) + "\n")
    line = driver_line(results, bool(args.trace))
    print()
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except harness.ProbeError as error:
        print(f"spine: {error}", file=sys.stderr)
        sys.exit(2)
