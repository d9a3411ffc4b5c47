"""One repetition of one workload, in a process of its own.

Protocol (one JSON object per line on the original stdout):

- ``{"event": "ready"}`` once the interpreter is up, ``repro`` is
  imported, the training dataset is generated, the detectors are fitted
  and the scenario or engine is built — everything but ``run()``.  The
  parent times spawn → ready as ``setup_s``.
- ``{"event": "result", ...}`` after ``run()``: its wall and CPU, peak
  RSS, the work done, the behaviour digest, the exact metrics and, on a
  traced repetition, the layer table.

Anything the program itself prints goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from contextlib import nullcontext


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--serial", type=int, default=0)
    args = parser.parse_args(argv)

    # Keep the protocol channel to ourselves: forked shard workers and
    # stray prints share fd 1 otherwise.
    protocol = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def emit(message: dict) -> None:
        protocol.write(json.dumps(message) + "\n")
        protocol.flush()

    import harness
    import layers
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)
    # Wrappers only where the work happens in this process; a sharded
    # run's forked workers would inherit them for nothing.
    tracer = None
    if traced and not workload.sharded:
        tracer = Tracer(layers.layer_of_module)
        tracer.install(
            layers.CORRIDOR_TARGETS
            if workload.family == "corridor"
            else layers.CITY_TARGETS
        )
    try:
        engine, effective_spec = workloads.build(
            args.workload, args.seed, bool(args.smoke), traced,
            shards=1 if args.serial else workloads.shard_count(),
        )
        gc.collect()
        emit({"event": "ready"})
        root = (
            tracer.root("city.engine" if workload.family == "city" else None)
            if tracer
            else nullcontext()
        )
        cpu_start = harness.cpu_seconds()
        wall_start = time.perf_counter()
        with root:
            result = engine.run()
        # On a wrapped run the root span *is* the traced wall, so the
        # layer rows add up to it exactly.
        run_wall_s = tracer.root_s if tracer else time.perf_counter() - wall_start
        run_cpu_s = harness.cpu_seconds() - cpu_start
    finally:
        if tracer:
            tracer.remove()

    message = workloads.summarize(args.workload, result)
    message.update(
        event="result",
        run_wall_s=run_wall_s,
        run_cpu_s=run_cpu_s,
        effective_spec=effective_spec,
    )
    if traced:
        if workload.family == "corridor" and not workload.sharded:
            from repro.obs.audit import audit_scenario

            message["layers"] = layers.corridor_serial_table(
                tracer, engine, result, run_wall_s
            )
            message["facts"]["audit"] = list(audit_scenario(engine).failures)
        elif workload.family == "corridor":
            message["layers"] = layers.corridor_sharded_table(
                engine, result, run_wall_s
            )
        elif not workload.sharded:
            message["layers"] = layers.city_serial_table(tracer, result, run_wall_s)
        else:
            message["layers"] = layers.city_sharded_table(result)
        if tracer:
            message["missing_targets"] = sorted(tracer.missing)
    message["peak_rss_mb"] = harness.peak_rss_mb()
    emit(message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
