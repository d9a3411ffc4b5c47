#!/usr/bin/env python
"""Testbed scalability: the paper's Fig. 6 experiments, end to end.

Spins up the simulated testbed (vehicles -> DSRC channel -> RSU broker
-> 50 ms micro-batch detection -> OUT-DATA warnings -> vehicle
consumers) and sweeps the vehicle count like Fig. 6a/6c, then runs the
5-RSU collaborative topology of Fig. 6b/6d with mid-run handovers.

Run:  python examples/testbed_latency.py  [--quick]
"""

import argparse

from repro.core.system import default_training_dataset
from repro.experiments.latency import fig6a_latency_sweep, format_fig6a
from repro.experiments.multirsu import fig6bd_corridor


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller sweep and shorter runs (for CI smoke tests)",
    )
    args = parser.parse_args()

    counts = (8, 32, 128) if args.quick else (8, 16, 32, 64, 128, 256)
    duration = 2.0 if args.quick else 5.0
    dataset = default_training_dataset(seed=11, n_cars=80)

    print("=== Fig. 6a / 6c: single RSU, 8-256 vehicles ===")
    rows = fig6a_latency_sweep(counts, duration_s=duration, dataset=dataset)
    print(format_fig6a(rows))
    print()
    print("total latency (ms): "
          + "  ".join(f"{row.total_ms:.1f}" for row in rows))
    print("RSU bandwidth (Mb/s): "
          + "  ".join(f"{row.total_bandwidth_mbps:.3f}" for row in rows))
    worst = max(row.total_ms for row in rows)
    print(f"\n  -> end-to-end latency stays under 50 ms "
          f"(worst: {worst:.1f} ms); paper claims < 50 ms up to 256 vehicles")

    print("\n=== Fig. 6b / 6d: 4 motorway RSUs + 1 link RSU ===")
    corridor = fig6bd_corridor(
        n_vehicles_per_rsu=32 if args.quick else 128,
        duration_s=duration,
        handover_fraction=0.25,
        dataset=dataset,
    )
    print(corridor.format_table())
    link = corridor.link_row
    motorway_max = max(r.bandwidth_mbps for r in corridor.motorway_rows)
    print(f"\n  -> link RSU bandwidth {link.bandwidth_mbps:.3f} Mb/s vs "
          f"motorway max {motorway_max:.3f} Mb/s "
          f"(collaboration overhead is visible but small, as in Fig. 6d)")


if __name__ == "__main__":
    main()
