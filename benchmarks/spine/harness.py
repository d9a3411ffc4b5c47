"""Shared pieces of the bench spine, written once.

- the metric catalogue (names, units, direction, bound, which clock);
- probe-subprocess isolation with a *ready* handshake, so ``setup_s``
  is what the parent sees between spawning a probe and the probe
  reporting that it is about to call ``run()``;
- median / quartiles / raw samples;
- ``resource``-based CPU and peak RSS for a process and its reaped
  children;
- BLAS thread pinning for the probe environment;
- a host fingerprint for every result.

Nothing here imports ``repro``: the parent process only launches
probes, so a checkout without ``src/`` fails in the probe, loudly.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

SPINE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SPINE_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"

#: A probe that has said nothing for this long is killed; the driver
#: allows a whole run 180 s.
PROBE_TIMEOUT_S = 150.0

#: Pinned in every probe's environment and recorded in the host block:
#: numpy must not fan a vectorised pass out over a BLAS pool whose size
#: depends on the host.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may get worse;
    #: 0 for simulated statistics, which repeat bit for bit.
    bound: float
    #: ``"wall"`` / ``"cpu"`` / ``"rss"`` for host measurements,
    #: ``"sim"`` for simulated statistics (exact at a given seed).
    clock: str


#: The ten end-to-end metrics.  Later issues refer to them by name.
#: The three timing bounds are the widest the driver accepts: on the
#: shared 2-core sandbox this was written on, host speed drifts by
#: +-12 % over minutes (see README, "Steadiness"), which no statistic
#: over one run's repetitions can remove.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, "wall"),
    Metric("throughput_per_s", "1/s", "higher", 0.25, "wall"),
    Metric("cpu_s", "s", "lower", 0.25, "cpu"),
    Metric("peak_rss_mb", "MB", "lower", 0.10, "rss"),
    Metric("sim_e2e_p50_ms", "sim_ms", "lower", 0.0, "sim"),
    Metric("sim_e2e_p99_ms", "sim_ms", "lower", 0.0, "sim"),
    Metric("sim_vehicle_kbps", "sim_kb/s", "lower", 0.0, "sim"),
    Metric("warning_delivery_ratio", "ratio", "higher", 0.0, "sim"),
    Metric("detect_f1", "ratio", "higher", 0.0, "sim"),
    Metric("failed_ops_ratio", "ratio", "lower", 0.0, "sim"),
)
HOST_METRICS = tuple(m for m in END_TO_END if m.clock != "sim")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quartiles(values: List[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them
    (the driver's definition); a single sample is its own quartiles."""
    if len(values) < 2:
        only = float(values[0])
        return {"q1": only, "median": only, "q3": only}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3}


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q = quartiles(values)
    return (q["q3"] - q["q1"]) / q["median"] if q["median"] else 0.0


# ----------------------------------------------------------------------
# Resource accounting
# ----------------------------------------------------------------------
def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest reaped child's (Linux
    reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` directly: the driver's
    checkout is not a repository, and ``git`` would search upwards out
    of it."""
    git_dir = REPO_ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if head.startswith("ref:"):
            return (git_dir / head.split(None, 1)[1]).read_text().strip()
        return head
    except OSError:
        return None


def host_fingerprint(seed: int) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": usable_cpus(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "seed": seed,
        "env": dict(PINNED_ENV),
    }


# ----------------------------------------------------------------------
# Probe subprocess
# ----------------------------------------------------------------------
class ProbeError(RuntimeError):
    """A probe exited without a result."""


def run_probe(
    workload: str, seed: int, smoke: bool, trace: bool, serial: bool = False
) -> dict:
    """One repetition of ``workload`` in a fresh interpreter
    (``serial``: the same spec on one process, to pin expectations).

    The probe prints ``{"event": "ready"}`` when everything but
    ``run()`` is done and ``{"event": "result", ...}`` after it; the
    returned dict is that result plus ``setup_wall_s``, the spawn →
    ready time as this process saw it.
    """
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable,
        str(SPINE_DIR / "probe.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--smoke", str(int(smoke)),
        "--trace", str(int(trace)),
        "--serial", str(int(serial)),
    ]
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env, cwd=str(REPO_ROOT)
    )
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    watchdog.start()
    setup_wall_s = None
    result = None
    try:
        for line in proc.stdout:
            message = json.loads(line)
            if message["event"] == "ready":
                setup_wall_s = time.perf_counter() - spawned
            elif message["event"] == "result":
                result = message
    finally:
        proc.stdout.close()
        code = proc.wait()
        watchdog.cancel()
    if code != 0 or result is None or setup_wall_s is None:
        raise ProbeError(
            f"probe for {workload!r} exited with code {code} and no result"
        )
    result["setup_wall_s"] = setup_wall_s
    return result
