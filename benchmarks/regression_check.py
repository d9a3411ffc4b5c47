#!/usr/bin/env python
"""Throughput-regression gate against a committed BENCH_*.json.

Compares a freshly produced benchmark artifact (``--candidate``)
against the committed baseline of the same bench id and fails when any
shared metric regresses by more than ``--tolerance`` (default 20 %).

Two metric classes:

- **ratio metrics** (speedups, decode ratios) are same-host relative,
  so they transfer across machines; they are always compared.
- **absolute throughputs** (``*_per_s``) only mean something when the
  candidate ran on comparable hardware; they are compared only with
  ``--absolute``.

A ratio metric present in the baseline but absent from the candidate
fails the gate (the harness stopped measuring a guaranteed ratio);
absolute metrics missing from the candidate are reported and skipped.

For ``BENCH_3`` and ``BENCH_6`` the comparison is mode-aware: a
``--smoke`` candidate is compared against the smoke-sized section the
full harness embeds in the committed artifact, so CI checks like
against like.

Exit status: 0 when no compared metric regressed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

DEFAULT_TOLERANCE = 0.20

#: Metric names that were renamed across harness versions, mapped
#: old -> current.  Applied to the *baseline* side after extraction, so
#: a committed artifact produced by an older harness still gates the
#: metric under its current name instead of reporting it missing.
METRIC_ALIASES = {
    "simulator_events_per_s": "kernel_events_per_s",
    "corridor_wall_speedup": "corridor_speedup",
    # Early BENCH_6 drafts reported the city scaling figure under the
    # generic name before it was prefixed with its bench family.
    "critical_path_speedup_city": "city_critical_path_speedup",
    "city_speedup": "city_critical_path_speedup",
}


def apply_aliases(metrics: dict) -> dict:
    out = {}
    for name, value in metrics.items():
        name = METRIC_ALIASES.get(name, name)
        out.setdefault(name, value)
    return out


#: Benches whose artifacts carry per-mode sections (a full artifact
#: embeds its smoke section so CI compares like against like).
MODE_AWARE_BENCHES = ("BENCH_3", "BENCH_6", "BENCH_7", "BENCH_8")


def _mode_section_metrics(report: dict, mode: str) -> dict:
    """The regression_metrics dict for the requested mode, from either
    a full artifact (which embeds both sections) or a smoke one."""
    bench = report.get("bench")
    section = report.get(mode)
    if section is None and mode == "full" and report.get("mode") == "smoke":
        raise SystemExit(
            "baseline/candidate is smoke-mode only; no full section to "
            "compare"
        )
    if section is None:
        raise SystemExit(f"no {mode!r} section in {bench} artifact")
    return dict(section["regression_metrics"])


def extract_metrics(report: dict, mode: str) -> dict:
    bench = report.get("bench")
    if bench in MODE_AWARE_BENCHES:
        metrics = _mode_section_metrics(report, mode)
        # The BENCH_8 full artifact carries the paper-scale day as its
        # own section; fold its metrics in so the full-mode gate sees
        # them (smoke candidates never run the scale day).
        if bench == "BENCH_8" and mode == "full" and report.get("scale"):
            metrics.update(report["scale"]["regression_metrics"])
        return metrics
    if bench == "BENCH_1":
        metrics = {
            "rsu_micro_batch_speedup": report["rsu_micro_batch"]["speedup"],
            "serde_decode_ratio": report["serde"]["decode_throughput_ratio"],
            "columnar_struct_records_per_s": report["rsu_micro_batch"][
                "variants"
            ]["columnar+struct"]["records_per_s"],
            "struct_batch_decode_records_per_s": report["serde"]["struct"][
                "batch_decode_records_per_s"
            ],
        }
        # Added by the observability PR; older artifacts predate it.
        if "obs_overhead" in report:
            metrics["obs_overhead_ratio"] = report["obs_overhead"]["ratio"]
        # The event-kernel overhaul moved the simulator bench into the
        # kernel harness (BENCH_4); older BENCH_1 artifacts still carry
        # the section, so keep reporting it under the current name.
        if "simulator" in report:
            metrics["kernel_events_per_s"] = report["simulator"][
                "events_per_s"
            ]
        return metrics
    if bench == "BENCH_4":
        return {
            # vs_seed_bench1 divides by a constant recorded on the seed
            # host, so it is an absolute throughput in disguise — named
            # without the _ratio suffix to keep it out of the
            # cross-host gate (the harness's own >= 3x gate covers it).
            "kernel_events_vs_seed_bench1": report["pure_events"][
                "vs_seed_bench1"
            ],
            "kernel_vs_reference_ratio": report["pure_events"]["ratio"],
            "churn_vs_reference_ratio": report["recurrence_churn"]["ratio"],
            "cancel_vs_reference_ratio": report["cancel_heavy"]["ratio"],
            "corridor_speedup": report["corridor"]["speedup"],
            "kernel_events_per_s": report["pure_events"]["calendar"][
                "events_per_s"
            ],
        }
    if bench == "BENCH_5":
        # batched_vs_event is printed by the harness but not gated: a
        # faster per-event path lowers it without batched regressing.
        return {"dataplane_speedup": report["corridor"]["speedup"]}
    raise SystemExit(f"no metric extractor for bench id {bench!r}")


def extract_wall_seconds(report: dict) -> dict:
    """Absolute wall-clock seconds behind the ratio metrics, keyed by
    mode.  Informational (host-dependent, never gated): ``repro bench``
    prints them next to the ratios so a delta table shows what the
    speedups are made of.  Empty for benches without wall-clock modes.
    """
    bench = report.get("bench")
    if bench == "BENCH_4":
        corridor = report.get("corridor", {})
        return {
            f"corridor_{name}_wall_s": corridor[name]["wall_ms"] / 1000.0
            for name in ("baseline", "optimized")
            if name in corridor
        }
    if bench == "BENCH_5":
        modes = report.get("corridor", {}).get("modes", {})
        return {
            f"corridor_{name}_wall_s": mode["wall_ms"] / 1000.0
            for name, mode in sorted(modes.items())
        }
    if bench == "BENCH_6":
        walls = {}
        for mode_name in ("full", "smoke"):
            section = report.get(mode_name)
            if not section:
                continue
            walls[f"city_{mode_name}_serial_wall_s"] = section["serial"][
                "wall_s"
            ]
            walls[f"city_{mode_name}_sharded_wall_s"] = section["sharded"][
                "wall_s"
            ]
        return walls
    if bench == "BENCH_8":
        walls = {}
        for mode_name in ("full", "smoke"):
            section = report.get(mode_name)
            if not section:
                continue
            walls[f"kernel_{mode_name}_fused_wall_s"] = section["fused"][
                "wall_s"
            ]
            walls[f"kernel_{mode_name}_reference_wall_s"] = section[
                "reference"
            ]["wall_s"]
        scale = report.get("scale")
        if scale:
            walls["kernel_scale_day_wall_s"] = scale["wall_s"]
        return walls
    return {}


def is_ratio_metric(name: str) -> bool:
    return "speedup" in name or name.endswith("_ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--candidate",
        type=Path,
        required=True,
        help="freshly produced BENCH_*.json to check",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="committed artifact (default: repo-root <bench>.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional regression (default: 0.20)",
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="also compare absolute *_per_s throughputs (same-host runs)",
    )
    args = parser.parse_args(argv)

    candidate = json.loads(args.candidate.read_text())
    bench = candidate.get("bench")
    baseline_path = args.baseline or REPO_ROOT / f"{bench}.json"
    if not baseline_path.exists():
        # A brand-new benchmark has nothing to regress against yet:
        # report its metrics informationally and pass, so the first CI
        # run of a new harness is green and committing its artifact is
        # what establishes the gate.
        mode = (
            candidate.get("mode", "full")
            if bench in MODE_AWARE_BENCHES
            else "full"
        )
        print(
            f"{bench}: no committed baseline at {baseline_path.name} — "
            f"new benchmark, nothing to compare"
        )
        for name, value in sorted(extract_metrics(candidate, mode).items()):
            print(f"  {name:<36} {value:>12,.3f}  (new metric — no baseline)")
        print("PASS: commit the artifact to establish the baseline")
        return 0
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("bench") != bench:
        raise SystemExit(
            f"bench mismatch: candidate {bench!r} vs baseline "
            f"{baseline.get('bench')!r}"
        )
    if not baseline.get("pass", False):
        raise SystemExit(f"committed baseline {baseline_path} is failing")

    mode = (
        candidate.get("mode", "full")
        if bench in MODE_AWARE_BENCHES
        else "full"
    )
    candidate_metrics = apply_aliases(extract_metrics(candidate, mode))
    baseline_metrics = apply_aliases(extract_metrics(baseline, mode))

    failures = []
    compared = 0
    print(
        f"{bench} regression check ({mode} mode, "
        f"tolerance {args.tolerance:.0%}) vs {baseline_path.name}"
    )
    # A ratio metric that the baseline carries but the candidate lost is
    # a gate escape, not a skip: the harness stopped measuring something
    # it used to guarantee.  Absolute throughputs stay soft — they are
    # host-dependent and an old candidate artifact may simply not have
    # them.
    for name in sorted(baseline_metrics):
        if name in candidate_metrics:
            continue
        if is_ratio_metric(name):
            print(
                f"  {name:<36} MISSING from candidate "
                f"(baseline {baseline_metrics[name]:,.3f})"
            )
            failures.append(f"{name} (missing)")
        else:
            print(f"  {name:<36} missing from candidate (absolute; skipped)")
    for name in sorted(set(candidate_metrics) & set(baseline_metrics)):
        if not is_ratio_metric(name) and not args.absolute:
            print(f"  {name:<36} skipped (absolute; use --absolute)")
            continue
        compared += 1
        base, cand = baseline_metrics[name], candidate_metrics[name]
        floor = base * (1.0 - args.tolerance)
        verdict = "ok" if cand >= floor else "REGRESSED"
        print(
            f"  {name:<36} {cand:>12,.3f} vs {base:>12,.3f} "
            f"(floor {floor:,.3f})  {verdict}"
        )
        if cand < floor:
            failures.append(name)
    if compared == 0 and not failures:
        raise SystemExit("no comparable metrics between the two artifacts")
    if failures:
        print(
            f"FAIL: {len(failures)} metric(s) regressed or went missing "
            f"(tolerance {args.tolerance:.0%}): {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    print(f"PASS: {compared} metric(s) within {args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
