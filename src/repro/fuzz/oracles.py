"""The differential-oracle stack a generated scenario runs under.

The fuzzer's judgement problem — "was this randomly composed scenario
handled *correctly*?" — is answered without a hand-written expected
output, by the same equivalence guarantees the golden suites pin on
fixed presets:

1. **Conservation audit** — the four integer conservation laws of
   :mod:`repro.obs.audit` on an observability-enabled serial run.
2. **Observer effect** — the obs-on run must be bit-identical to an
   obs-off run of the same spec.
3. **Shard equivalence** — a ``shards=N`` spec must reproduce the
   ``shards=1`` warnings, vehicle stats, and latency samples exactly.
4. **Collab-disabled identity** — a present-but-disabled
   :class:`~repro.core.collab.CollabConfig` must change nothing against
   no config at all.

Oracles 3-4 only apply when the spec exercises the feature; the report
lists which ran.  Every run's *canonical digest* (a SHA-256 over the
obs-off serial signature) is recorded so corpus replays can assert
bit-identical behaviour across commits and CI runs.

``REPRO_FUZZ_PLANTED=1`` (or :func:`set_planted_bug`) re-introduces a
known-fixed off-by-one — the pre-PR-3 double-count of a migrated car's
warning at the busiest RSU — as a *planted regression*: the
demonstration test proves the fuzzer finds it and shrinks it to a
minimal committed repro.  It must never be set outside that test.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.fuzz.spec import FuzzSpec

# ----------------------------------------------------------------------
# Planted regression (demonstration only)
# ----------------------------------------------------------------------
_PLANTED = False


def set_planted_bug(enabled: bool) -> None:
    """Enable the demonstration regression (see module docs)."""
    global _PLANTED
    _PLANTED = enabled


def planted_bug_active() -> bool:
    return _PLANTED or os.environ.get("REPRO_FUZZ_PLANTED") == "1"


# ----------------------------------------------------------------------
# Signatures and digests
# ----------------------------------------------------------------------
def scenario_signature(scenario, result) -> Dict[str, Any]:
    """Everything a run's bit-identity is judged by, as plain JSON-able
    structure: per-RSU warning logs and event streams, per-vehicle
    stats with full latency sample lists."""
    return {
        "warnings": {
            name: [list(entry) for entry in rsu.warning_log()]
            for name, rsu in scenario.rsus.items()
        },
        "events": {
            name: [
                [
                    event.car_id,
                    event.generated_at,
                    event.arrived_at,
                    event.detected_at,
                    bool(event.abnormal),
                ]
                for event in rsu.events
            ]
            for name, rsu in scenario.rsus.items()
        },
        "vehicles": {
            str(car): [
                stats.records_sent,
                stats.bytes_sent,
                stats.warnings_received,
                stats.records_lost,
                list(stats.e2e_latencies_s),
                list(stats.dissemination_latencies_s),
            ]
            for car, stats in result.vehicle_stats.items()
        },
    }


def accounting_signature(scenario) -> Dict[str, Any]:
    """What the golden pins hold beyond the signature: each
    broker's downlink volume and each vehicle's OUT-DATA consumer state,
    including the read state left on every broker it departed."""
    return {
        "brokers": {
            name: [rsu.broker.records_out, rsu.broker.bytes_out]
            for name, rsu in scenario.rsus.items()
        },
        "vehicles": {
            str(v.car_id): [
                sorted(v._consumer._positions.items()),
                v._consumer.records_consumed,
                v._consumer.bytes_consumed,
                [
                    [broker.name, sorted(held.items()), sorted(ends.items())]
                    for broker, held, ends in v._departures
                ],
            ]
            for v in scenario.vehicles
        },
    }


def sharded_signature(scenario, result) -> Dict[str, Any]:
    """The subset of the signature a sharded engine exposes (warning
    logs come off the engine; per-RSU event streams stay in-worker)."""
    return {
        "warnings": {
            name: [list(entry) for entry in log]
            for name, log in scenario.warning_logs.items()
        },
        "vehicles": {
            str(car): [
                stats.records_sent,
                stats.bytes_sent,
                stats.warnings_received,
                stats.records_lost,
                list(stats.e2e_latencies_s),
                list(stats.dissemination_latencies_s),
            ]
            for car, stats in result.vehicle_stats.items()
        },
    }


def signature_digest(signature: Dict[str, Any]) -> str:
    """A stable SHA-256 over the canonical JSON of a signature."""
    canonical = json.dumps(signature, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _diff_hint(name: str, left: Dict[str, Any], right: Dict[str, Any]) -> str:
    """A one-line pointer at the first differing key, to keep oracle
    failures readable without dumping whole signatures."""
    for key in sorted(set(left) | set(right)):
        if left.get(key) != right.get(key):
            return f"{name}: first divergence under {key!r}"
    return f"{name}: signatures differ"


# ----------------------------------------------------------------------
# The oracle report
# ----------------------------------------------------------------------
@dataclass
class OracleReport:
    """What ran and what failed for one generated spec."""

    spec: FuzzSpec
    #: SHA-256 of the obs-off serial signature — the canonical digest a
    #: corpus entry pins.
    digest: str = ""
    oracles_run: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "digest": self.digest,
            "oracles_run": list(self.oracles_run),
            "failures": list(self.failures),
            "spec": self.spec.to_payload(),
        }


# ----------------------------------------------------------------------
# Dataset cache
# ----------------------------------------------------------------------
_DATASETS: Dict[Tuple[int, int], Any] = {}


def training_dataset(spec: FuzzSpec):
    """The (cached) labelled training dataset a spec's detectors fit on."""
    key = (spec.dataset_seed, spec.dataset_cars)
    if key not in _DATASETS:
        from repro.core.system import default_training_dataset

        _DATASETS[key] = default_training_dataset(
            seed=spec.dataset_seed, n_cars=spec.dataset_cars
        )
    return _DATASETS[key]


# ----------------------------------------------------------------------
# The stack
# ----------------------------------------------------------------------
def run_oracles(spec: FuzzSpec, dataset=None) -> OracleReport:
    """Execute ``spec`` under every applicable oracle.

    Run plan (two serial runs always, plus one comparator per exercised
    feature):

    - ``A``: serial (``shards=1``), observability **on** → conservation
      audit (the per-car warning attribution needs obs).
    - ``B``: serial, observability **off** → the canonical digest, and
      the observer-effect identity against ``A``.
    - ``C`` (``shards > 1``): the sharded engine vs ``B``.
    - ``D`` (collab present but disabled): no collab config vs ``B``.
    """
    if spec.city is not None:
        return run_city_oracles(spec)
    report = OracleReport(spec=spec)
    dataset = dataset if dataset is not None else training_dataset(spec)

    # --- A: conservation audit under observability ---------------------
    report.oracles_run.append("conservation_audit")
    scenario_a = spec.build(dataset, shards=1, observability=True)
    result_a = scenario_a.run()
    if planted_bug_active():
        _plant_regression(scenario_a)
    from repro.obs.audit import audit_scenario

    audit = audit_scenario(scenario_a)
    if not audit.ok:
        report.failures.extend(
            f"conservation_audit: {failure}" for failure in audit.failures
        )
    signature_a = scenario_signature(scenario_a, result_a)

    # --- B: observer-effect identity + canonical digest ----------------
    report.oracles_run.append("observer_effect")
    scenario_b = spec.build(dataset, shards=1, observability=False)
    result_b = scenario_b.run()
    signature_b = scenario_signature(scenario_b, result_b)
    report.digest = signature_digest(signature_b)
    if signature_a != signature_b:
        report.failures.append(
            _diff_hint("observer_effect", signature_a, signature_b)
        )

    # --- C: shards=N vs 1 ---------------------------------------------
    if spec.shards > 1:
        report.oracles_run.append("shard_equivalence")
        sharded = spec.build(dataset, observability=False)
        result_c = sharded.run()
        signature_c = sharded_signature(sharded, result_c)
        serial_view = {
            "warnings": signature_b["warnings"],
            "vehicles": signature_b["vehicles"],
        }
        if signature_c != serial_view:
            report.failures.append(
                _diff_hint(
                    f"shard_equivalence[shards={spec.shards}]",
                    signature_c,
                    serial_view,
                )
            )

    # --- D: disabled collab config vs none ----------------------------
    if spec.collab is not None and not spec.collab_enabled:
        report.oracles_run.append("collab_disabled_identity")
        scenario_d = spec.build(
            dataset, shards=1, observability=False, collab=None
        )
        result_d = scenario_d.run()
        signature_d = scenario_signature(scenario_d, result_d)
        if signature_d != signature_b:
            report.failures.append(
                _diff_hint("collab_disabled_identity", signature_d, signature_b)
            )

    return report


def _city_digest_hint(name: str, left, right) -> str:
    """Point at the first RSU whose rolling digest diverges."""
    for rsu in sorted(set(left.digests) | set(right.digests)):
        if left.digests.get(rsu) != right.digests.get(rsu):
            return f"{name}: first divergent RSU digest at {rsu!r}"
    return f"{name}: digest rollups differ"


def run_city_oracles(spec: FuzzSpec) -> OracleReport:
    """The city-workload oracle stack (no training dataset involved).

    - ``A``: serial **fused** run → conservation audit + the canonical
      digest (the city's per-RSU rollup, not a JSON signature).
    - ``B``: serial **reference** run → kernel equivalence: the fused
      arena kernel must reproduce the PR 7 engine's digests bit for bit.
    - ``C`` (``shards > 1``): the sharded fused engine (with whatever
      rebalance cadence the spec drew) vs ``A`` — shard-count
      invariance of the digest rollup, plus its own audit.
    """
    from repro.city import run_city

    report = OracleReport(spec=spec)

    report.oracles_run.append("city_conservation_audit")
    fused = run_city(spec.city_spec(shards=1, kernel="fused"))
    report.digest = fused.digest_signature()
    report.failures.extend(
        f"city_conservation_audit: {violation}"
        for violation in fused.audit()
    )

    report.oracles_run.append("city_kernel_equivalence")
    reference = run_city(spec.city_spec(shards=1, kernel="reference"))
    if reference.digest_signature() != report.digest:
        report.failures.append(
            _city_digest_hint("city_kernel_equivalence", fused, reference)
        )

    if int(spec.city.get("shards", 1)) > 1:
        report.oracles_run.append("city_shard_invariance")
        sharded = run_city(spec.city_spec(kernel="fused"))
        report.failures.extend(
            f"city_shard_invariance: {violation}"
            for violation in sharded.audit()
        )
        if sharded.digest_signature() != report.digest:
            report.failures.append(
                _city_digest_hint(
                    f"city_shard_invariance[shards={sharded.n_shards}]",
                    fused,
                    sharded,
                )
            )

    return report


def _plant_regression(scenario) -> None:
    """Re-introduce the pre-PR-3 off-by-one: the busiest RSU counts one
    extra issued warning (the migrated-car double count), which the
    warning-conservation law then catches.  Demonstration only."""
    busiest: Optional[Any] = None
    for _, rsu in sorted(scenario.rsus.items()):
        if rsu.warnings_issued > 0 and (
            busiest is None or rsu.warnings_issued > busiest.warnings_issued
        ):
            busiest = rsu
    if busiest is not None:
        busiest.warnings_issued += 1
