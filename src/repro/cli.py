"""Command-line interface: ``python -m repro <command>``.

One subcommand per workflow a downstream user needs:

- ``generate``  — synthesise a labelled dataset and write it to CSV;
- ``stats``     — Table III statistics of a dataset (CSV or fresh);
- ``profiles``  — the Fig. 2 speed-profile series;
- ``evaluate``  — the Fig. 7 / Table IV model comparison;
- ``mesoscopic``— the Fig. 8 trip-level stability analysis;
- ``testbed``   — the Fig. 6 latency/bandwidth scalability runs;
- ``deploy``    — Tables V-VI and Fig. 9 deployment planning;
- ``mac``       — Eq. 5-6 analytic medium-access times;
- ``city``      — the city-scale trip-churn workload with dynamic
  shard rebalancing.

The scenario-running subcommands (``obs``, ``resilience``, ``city``)
share one scenario parent parser (``--seed`` / ``--shards``)
and, together with ``fuzz``, one output parent (``--out`` /
``--format``), so the flags mean the same thing everywhere.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.dataset.io import read_telemetry_csv, write_telemetry_csv
from repro.dataset.stats import compute_statistics


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.experiments.datasets import corridor_dataset

    dataset = corridor_dataset(
        n_cars=args.cars,
        trips_per_car=args.trips,
        seed=args.seed,
        erroneous_rate=args.erroneous_rate,
    )
    write_telemetry_csv(args.output, dataset.records)
    print(f"wrote {len(dataset.records)} labelled records to {args.output}")
    return 0


def _load_or_generate(args: argparse.Namespace):
    from repro.experiments.datasets import corridor_dataset

    if args.input:
        records = read_telemetry_csv(args.input)
        print(f"loaded {len(records)} records from {args.input}")
        from repro.dataset.generator import SyntheticDataset
        from repro.dataset.speed_profiles import SpeedProfileLibrary
        from repro.geo.network_builder import CityNetworkBuilder

        return SyntheticDataset.from_records(
            records,
            network=CityNetworkBuilder(seed=args.seed).build_corridor(),
            profiles=SpeedProfileLibrary(),
        )
    return corridor_dataset(n_cars=args.cars, seed=args.seed)


def _cmd_stats(args: argparse.Namespace) -> int:
    dataset = _load_or_generate(args)
    print(compute_statistics(dataset.records).format_table())
    return 0


def _cmd_profiles(args: argparse.Namespace) -> int:
    from repro.experiments.profiles import fig2_speed_profiles

    dataset = _load_or_generate(args) if (args.input or args.empirical) else None
    result = fig2_speed_profiles(dataset.records if dataset else None)
    print(result.format_table())
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.experiments.models import fig7_table4_comparison

    dataset = _load_or_generate(args)
    comparison = fig7_table4_comparison(dataset, seed=args.split_seed)
    print(comparison.format_fig7())
    print()
    print(comparison.format_table4())
    return 0


def _cmd_mesoscopic(args: argparse.Namespace) -> int:
    from repro.dataset.schema import AnomalyKind
    from repro.experiments.models import fig8_mesoscopic

    dataset = _load_or_generate(args)
    result = fig8_mesoscopic(
        dataset, seed=args.split_seed, anomaly=AnomalyKind(args.anomaly)
    )
    print(result.format_aggregate())
    print()
    print(result.format_timeline())
    return 0


def _cmd_testbed(args: argparse.Namespace) -> int:
    from repro.core.system import default_training_dataset
    from repro.experiments.latency import fig6a_latency_sweep, format_fig6a
    from repro.experiments.multirsu import fig6bd_corridor

    dataset = default_training_dataset(seed=11, n_cars=args.cars)
    if args.topology == "single":
        rows = fig6a_latency_sweep(
            tuple(args.vehicles), duration_s=args.duration, dataset=dataset
        )
        print(format_fig6a(rows))
    else:
        corridor = fig6bd_corridor(
            n_vehicles_per_rsu=args.vehicles[0],
            duration_s=args.duration,
            handover_fraction=args.handover_fraction,
            dataset=dataset,
        )
        print(corridor.format_table())
        print(f"mean end-to-end: {corridor.mean_e2e_ms:.1f} ms")
    return 0


def _cmd_deploy(args: argparse.Namespace) -> int:
    from repro.deploy import format_table_vi
    from repro.experiments.deployment import (
        build_city,
        city_scale_capacity,
        fig9_coverage,
        table5_placement,
        table6_infrastructure,
    )

    city = build_city(seed=args.seed, count_scale=args.scale)
    plan = table5_placement(network=city)
    print(plan.format_table())
    print(f"\ncity-scale capacity: {city_scale_capacity():,} vehicles\n")
    rows, _ = table6_infrastructure(network=city, count_scale=args.scale)
    print(format_table_vi(rows))
    report = fig9_coverage(network=city)
    print(f"\n{report.format_summary()}")
    return 0


def _cmd_mac(args: argparse.Namespace) -> int:
    from repro.experiments.mac import eq5_access_times, format_eq5

    rows = eq5_access_times(vehicle_counts=tuple(args.vehicles))
    print(format_eq5(rows))
    return 0


def _emit_report(args: argparse.Namespace, markdown: str, payload: dict) -> None:
    """Uniform ``--out`` / ``--format`` handling for report commands.

    ``--format`` selects the stdout rendering; ``--out`` additionally
    writes the JSON payload (machine consumers always get JSON,
    whatever the terminal shows).
    """
    import json as _json
    from pathlib import Path

    if getattr(args, "out", None):
        Path(args.out).write_text(
            _json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    if getattr(args, "format", "md") == "json":
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(markdown)


def _cmd_resilience(args: argparse.Namespace) -> int:
    from repro.experiments.resilience import resilience_corridor
    from repro.faults.events import corridor_profiles

    if args.profile == "list":
        for name, prof in corridor_profiles(args.duration).items():
            kinds = ", ".join(type(e).__name__ for e in prof.events)
            print(f"{name:<14} {kinds}")
        return 0
    if args.shards != 1:
        print(
            "repro resilience: fault injection is single-process; "
            "--shards must be 1",
            file=sys.stderr,
        )
        return 2
    report = resilience_corridor(
        profile_name=args.profile,
        n_vehicles=args.vehicles,
        duration_s=args.duration,
        motorways=args.motorways,
        seed=args.seed,
    )
    _emit_report(args, report.format_report(), report.to_json())
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.experiments.observability import (
        observability_corridor,
        write_report,
    )

    report = observability_corridor(
        n_vehicles=args.vehicles,
        duration_s=args.duration,
        motorways=args.motorways,
        seed=args.seed,
        profile_name=None if args.profile == "none" else args.profile,
        shards=args.shards,
    )
    write_report(report, json_path=args.out, prometheus_path=args.prom)
    if args.format == "json":
        import json as _json

        print(_json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.format_markdown())
    if report.invariants is not None and not report.invariants.ok:
        return 1
    return 0


def _cmd_city(args: argparse.Namespace) -> int:
    from repro.experiments.city import city_report

    report = city_report(
        seed=args.seed,
        shards=args.shards,
        duration_s=args.duration,
        count_scale=args.scale,
        rebalance_interval_ticks=args.rebalance_every,
        wave=args.wave,
        observability=args.observe,
        profile=args.profile_phases,
    )
    _emit_report(args, report.format_markdown(), report.to_json())
    return 0 if report.ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import FuzzConfig, FuzzRunner, replay_corpus_entry
    from repro.fuzz.runner import fuzz_dataset_warmup

    if args.replay:
        result = replay_corpus_entry(
            args.replay, update_digest=args.update_digests
        )
        lines = [f"### repro fuzz --replay `{result['path']}`", ""]
        lines.append(f"- expect: {result['expect']}")
        lines.append(f"- digest: `{result['digest'][:16]}…`")
        lines.append(f"- oracles: {', '.join(result['oracles_run'])}")
        if result["ok"]:
            lines.append("- result: **ok**")
        else:
            lines.append("- result: **mismatch**")
            lines.extend(f"  - {problem}" for problem in result["problems"])
        _emit_report(args, "\n".join(lines), result)
        return 0 if result["ok"] else 1

    from dataclasses import replace as _replace

    if args.smoke:
        config = FuzzConfig.smoke(seed=args.seed)
        if args.budget is not None:
            config = _replace(config, examples=args.budget)
        if args.time_budget is not None:
            config = _replace(config, time_budget_s=args.time_budget)
    else:
        config = FuzzConfig(
            seed=args.seed,
            examples=args.budget if args.budget is not None else 50,
            time_budget_s=args.time_budget,
        )
    if args.corpus_dir:
        config = _replace(config, corpus_dir=args.corpus_dir)
    fuzz_dataset_warmup()
    report = FuzzRunner(config).run()
    _emit_report(args, report.format_markdown(), report.to_dict())
    return 0 if report.ok else 1


def _cmd_reproduce(args: argparse.Namespace) -> int:
    """Run every paper experiment at reduced scale, in order."""
    from repro.core.system import default_training_dataset
    from repro.deploy import format_table_vi
    from repro.experiments.datasets import corridor_dataset
    from repro.experiments.deployment import (
        build_city,
        fig9_coverage,
        table5_placement,
        table6_infrastructure,
    )
    from repro.experiments.latency import fig6a_latency_sweep, format_fig6a
    from repro.experiments.mac import eq5_access_times, format_eq5
    from repro.experiments.models import fig7_table4_comparison, fig8_mesoscopic
    from repro.experiments.multirsu import fig6bd_corridor
    from repro.experiments.profiles import fig2_speed_profiles

    quick = args.quick
    banner = lambda title: print(f"\n{'=' * 8} {title} {'=' * 8}")

    banner("Fig. 2: speed profiles")
    print(fig2_speed_profiles().format_table())

    banner("Fig. 7 / Table IV / Fig. 8: model comparison")
    dataset = corridor_dataset(n_cars=120 if quick else 300)
    comparison = fig7_table4_comparison(dataset)
    print(comparison.format_fig7())
    print()
    print(comparison.format_table4())
    print()
    print(fig8_mesoscopic(dataset).format_aggregate())

    banner("Fig. 6a/6c: latency & bandwidth scalability")
    training = default_training_dataset(seed=11, n_cars=60)
    counts = (8, 64) if quick else (8, 16, 32, 64, 128, 256)
    print(format_fig6a(fig6a_latency_sweep(
        counts, duration_s=2.0 if quick else 5.0, dataset=training)))

    banner("Fig. 6b/6d: 5-RSU collaboration")
    corridor = fig6bd_corridor(
        n_vehicles_per_rsu=16 if quick else 128,
        duration_s=2.0 if quick else 5.0,
        dataset=training,
    )
    print(corridor.format_table())

    banner("Eq. 5-6: MAC access times")
    print(format_eq5(eq5_access_times()))

    banner("Tables V-VI / Fig. 9: deployment")
    city = build_city(seed=3, count_scale=0.1 if quick else 1.0)
    print(table5_placement(network=city).format_table())
    rows, _ = table6_infrastructure(
        network=city, count_scale=0.1 if quick else 1.0
    )
    print(format_table_vi(rows))
    print(fig9_coverage(network=city).format_summary())

    print("\nall experiments regenerated; see EXPERIMENTS.md for the "
          "paper-vs-measured comparison.")
    return 0


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="telemetry CSV to load instead of generating")
    parser.add_argument("--cars", type=int, default=300, help="cars to generate")
    parser.add_argument("--seed", type=int, default=1, help="generator seed")


def _scenario_parent() -> argparse.ArgumentParser:
    """Shared scenario flags: every runnable subcommand means the same
    thing by ``--seed`` and ``--shards``."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=7, help="scenario seed")
    parent.add_argument(
        "--shards",
        type=int,
        default=1,
        help="worker processes (1 = single-process)",
    )
    return parent


def _output_parent() -> argparse.ArgumentParser:
    """Shared output flags: ``--format`` picks the stdout rendering,
    ``--out`` additionally writes the JSON report to a file."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--format", default="md", choices=["md", "json"], help="stdout format"
    )
    parent.add_argument(
        "--out", help="also write the JSON report to this path"
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CAD3 (ICDCS 2021) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="synthesise a dataset CSV")
    generate.add_argument("output", help="output CSV path")
    generate.add_argument("--cars", type=int, default=300)
    generate.add_argument("--trips", type=int, default=8)
    generate.add_argument("--seed", type=int, default=1)
    generate.add_argument("--erroneous-rate", type=float, default=0.0)
    generate.set_defaults(func=_cmd_generate)

    stats = commands.add_parser("stats", help="Table III dataset statistics")
    _add_dataset_args(stats)
    stats.set_defaults(func=_cmd_stats)

    profiles = commands.add_parser("profiles", help="Fig. 2 speed profiles")
    _add_dataset_args(profiles)
    profiles.add_argument(
        "--empirical",
        action="store_true",
        help="measure from generated data instead of the profile library",
    )
    profiles.set_defaults(func=_cmd_profiles)

    evaluate = commands.add_parser(
        "evaluate", help="Fig. 7 / Table IV model comparison"
    )
    _add_dataset_args(evaluate)
    evaluate.add_argument("--split-seed", type=int, default=0)
    evaluate.set_defaults(func=_cmd_evaluate)

    mesoscopic = commands.add_parser(
        "mesoscopic", help="Fig. 8 trip-level stability"
    )
    _add_dataset_args(mesoscopic)
    mesoscopic.add_argument("--split-seed", type=int, default=0)
    mesoscopic.add_argument(
        "--anomaly",
        default="slowing",
        choices=["slowing", "speeding", "sudden_acceleration"],
    )
    mesoscopic.set_defaults(func=_cmd_mesoscopic)

    testbed = commands.add_parser(
        "testbed", help="Fig. 6 latency/bandwidth scalability"
    )
    testbed.add_argument(
        "--topology", default="single", choices=["single", "corridor"]
    )
    testbed.add_argument(
        "--vehicles",
        type=int,
        nargs="+",
        default=[8, 64, 256],
        help="vehicle counts (single) or per-RSU count (corridor)",
    )
    testbed.add_argument("--duration", type=float, default=5.0)
    testbed.add_argument("--handover-fraction", type=float, default=0.25)
    testbed.add_argument("--cars", type=int, default=80)
    testbed.set_defaults(func=_cmd_testbed)

    deploy = commands.add_parser(
        "deploy", help="Tables V-VI and Fig. 9 deployment planning"
    )
    deploy.add_argument("--seed", type=int, default=3)
    deploy.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="city size scale (1.0 = the paper's Table V inventory)",
    )
    deploy.set_defaults(func=_cmd_deploy)

    mac = commands.add_parser("mac", help="Eq. 5-6 MAC access times")
    mac.add_argument(
        "--vehicles", type=int, nargs="+", default=[8, 64, 256, 400]
    )
    mac.set_defaults(func=_cmd_mac)

    scenario_parent = _scenario_parent()
    output_parent = _output_parent()

    resilience = commands.add_parser(
        "resilience",
        help="fault-injected corridor run (crash, kill, partition, loss)",
        parents=[scenario_parent, output_parent],
    )
    resilience.add_argument(
        "--profile",
        default="chaos",
        help="fault profile name, or 'list' to enumerate (default: chaos)",
    )
    resilience.add_argument(
        "--vehicles", type=int, default=16, help="vehicles per RSU"
    )
    resilience.add_argument(
        "--duration", type=float, default=6.0, help="simulated seconds"
    )
    resilience.add_argument(
        "--motorways", type=int, default=2, help="motorway RSUs in the corridor"
    )
    resilience.set_defaults(func=_cmd_resilience)

    obs = commands.add_parser(
        "obs",
        help="instrumented corridor run: metrics, spans, invariant audit",
        parents=[scenario_parent, output_parent],
    )
    obs.add_argument(
        "--vehicles", type=int, default=16, help="vehicles per RSU"
    )
    obs.add_argument(
        "--duration", type=float, default=5.0, help="simulated seconds"
    )
    obs.add_argument(
        "--motorways", type=int, default=2, help="motorway RSUs in the corridor"
    )
    obs.add_argument(
        "--profile",
        default="none",
        help="fault profile to inject (serial runs only; default: none)",
    )
    obs.add_argument(
        "--prom", help="also write Prometheus text exposition to this path"
    )
    obs.set_defaults(func=_cmd_obs)

    city = commands.add_parser(
        "city",
        help="city-scale trip churn over the Table V fleet, with dynamic "
        "shard rebalancing",
        parents=[scenario_parent, output_parent],
    )
    city.add_argument(
        "--duration",
        type=float,
        default=3600.0,
        help="simulated seconds (86400 = a full demand-wave day)",
    )
    city.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="city size scale (1.0 = the paper's Table V inventory)",
    )
    city.add_argument(
        "--rebalance-every",
        type=int,
        default=10,
        help="rebalance check interval in ticks (multi-shard runs)",
    )
    city.add_argument(
        "--wave",
        default="commute",
        choices=["commute", "flat"],
        help="hour-of-day demand wave",
    )
    city.add_argument(
        "--observe",
        action="store_true",
        help="collect metrics/span snapshots from the workers",
    )
    city.add_argument(
        "--profile",
        dest="profile_phases",
        action="store_true",
        help="per-phase tick-time breakdown (arrivals/churn/moves/"
        "detect/digest) from the repro.obs spans; implies --observe "
        "on multi-shard runs",
    )
    city.set_defaults(func=_cmd_city)

    fuzz = commands.add_parser(
        "fuzz",
        help="property-based scenario fuzzing under differential oracles",
        parents=[output_parent],
    )
    fuzz.add_argument(
        "--seed", type=int, default=0, help="fuzzer base seed (default 0)"
    )
    fuzz.add_argument(
        "--budget",
        type=int,
        help="number of generated scenarios to run (default 50)",
    )
    fuzz.add_argument(
        "--time-budget",
        type=float,
        help="wall-clock budget in seconds (checked between chunks)",
    )
    fuzz.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke config: 30 scenarios, small corridor space",
    )
    fuzz.add_argument(
        "--corpus-dir",
        help="write shrunk failing repro specs to this directory",
    )
    fuzz.add_argument(
        "--replay",
        metavar="FILE",
        help="replay one corpus entry instead of fuzzing",
    )
    fuzz.add_argument(
        "--update-digests",
        action="store_true",
        help="with --replay: rewrite the entry's pinned digest",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    reproduce = commands.add_parser(
        "reproduce",
        help="regenerate every paper table/figure in one run",
    )
    reproduce.add_argument(
        "--quick",
        action="store_true",
        help="reduced scale (seconds instead of minutes)",
    )
    reproduce.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
