#!/usr/bin/env python3
"""Compare two spine result sets metric by metric.

    python3 benchmarks/spine/repeat_check.py A.json B.json

``A`` and ``B`` are ``run.py --out`` files: the parent and the change,
or two sets of runs of one commit (the repeatability criterion).  One
row per (workload, metric) with both values, how much worse ``B`` reads
as a share of ``A``, and a verdict against the metric's bound — from
``BENCHMARK.json`` for the host-time metrics it lists, 0 for the
simulated statistics, which must repeat bit for bit:

- ``pass``        B is no worse than A by more than the bound;
- ``fail``        B is worse by more than the bound (any difference at
                  all, for an exact metric);
- ``unresolved``  within the bound, but a side's own repetitions spread
                  (inter-quartile, as a share of the median) wider than
                  the bound, and B's samples do not all beat A's: the
                  runs cannot tell *unchanged* from *changed*.

Exits non-zero if any row fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import harness


def bounds() -> dict:
    listed = {}
    try:
        spec = json.loads((harness.REPO_ROOT / "BENCHMARK.json").read_text())
        listed = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    except OSError:
        pass
    return {m.name: listed.get(m.name, m.bound) for m in harness.END_TO_END}


def worsening(metric: harness.Metric, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    change = (b - a) / abs(a) if a else float(b != a)
    return change if metric.better == "lower" else -change


def verdict(metric: harness.Metric, bound: float, a: dict, b: dict):
    """``(worse_by, verdict)`` for one (workload, metric) pair; ``a``
    and ``b`` are ``{"value": ..., "samples": [...] | None}``."""
    va, vb = a["value"], b["value"]
    if metric.clock == "sim":
        # Bit for bit, and null only equals null.
        return (None, "pass") if va == vb else (None, "fail")
    worse = worsening(metric, va, vb)
    if worse > bound:
        return worse, "fail"
    sa, sb = a.get("samples"), b.get("samples")
    if sa and sb and max(harness.spread(sa), harness.spread(sb)) > bound:
        if metric.better == "lower":
            all_beat = max(sb) < min(sa)
        else:
            all_beat = min(sb) > max(sa)
        if not all_beat:
            return worse, "unresolved"
    return worse, "pass"


def compare(doc_a: dict, doc_b: dict):
    """Rows ``(workload, metric, a, b, worse_by, verdict)``."""
    limit = bounds()
    rows = []
    for name, entry_a in doc_a["workloads"].items():
        entry_b = doc_b["workloads"].get(name)
        if entry_b is None:
            rows.append((name, "*", None, None, None, "fail"))
            continue
        for metric in harness.END_TO_END:
            sides = [
                {
                    "value": entry["metrics"][metric.name]["value"],
                    "samples": entry["samples"].get(metric.name),
                }
                for entry in (entry_a, entry_b)
            ]
            worse, result = verdict(metric, limit[metric.name], *sides)
            rows.append(
                (name, metric.name, sides[0]["value"], sides[1]["value"], worse, result)
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    rows = compare(json.loads(args.a.read_text()), json.loads(args.b.read_text()))
    print(f"{'workload':<18}{'metric':<24}{'A':>16}{'B':>16}{'worse by':>10}  verdict")
    for name, metric, a, b, worse, result in rows:
        share = "" if worse is None else f"{100 * worse:+.1f} %"
        print(f"{name:<18}{metric:<24}{a!s:>16.14}{b!s:>16.14}{share:>10}  {result}")
    failed = [row for row in rows if row[-1] == "fail"]
    unresolved = [row for row in rows if row[-1] == "unresolved"]
    print(f"{len(rows)} rows: {len(failed)} fail, {len(unresolved)} unresolved")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
