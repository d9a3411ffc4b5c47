"""The budgeted fuzz engine: generate → judge → shrink → persist.

:class:`FuzzRunner` drives :func:`~repro.fuzz.strategies.fuzz_specs`
through hypothesis in fixed-size *chunks* (each chunk is one
``@given`` invocation under an explicit ``@seed`` derived from the run
seed and chunk index), so a run is reproducible from its seed alone
and a wall-clock budget can stop between chunks without leaving
hypothesis mid-shrink.

When an oracle fails — or the run crashes: an exception raised
inside the oracle stack is a finding too (:func:`judge`) — the failing
example is handed to the **spec-level minimizer** (:func:`minimize_spec`):
a greedy pass that re-runs the oracle stack while dropping fault events,
collapsing the feature branch, and walking every knob toward the
:class:`~repro.fuzz.spec.FuzzSpec` defaults.  The runner deliberately
skips hypothesis's own shrink phase — each example is a full
multi-run simulation, so hypothesis's hundreds of shrink attempts
cost minutes where the minimizer converges in ~20 — while tests that
``@given(fuzz_specs())`` directly still get normal hypothesis
shrinking.

The minimal spec is written to the corpus directory as a JSON repro
entry (`expect: "fail"`); ``tests/test_fuzz/test_corpus_replay.py``
replays every committed entry deterministically, so a bug found once
is pinned forever.  Passing entries carry the canonical digest of
their obs-off serial run and assert bit-identical replay.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.fuzz.oracles import OracleReport, run_oracles, training_dataset
from repro.fuzz.spec import FuzzSpec

#: Examples per hypothesis invocation; small enough that a wall-clock
#: budget check between chunks is responsive.
CHUNK_EXAMPLES = 5


class OracleViolation(AssertionError):
    """Raised inside the hypothesis property when any oracle fails."""


@dataclass
class FuzzFailure:
    """One shrunk, persisted oracle failure or crash."""

    spec: FuzzSpec
    failures: List[str]
    #: The example as hypothesis first found it, pre-minimization.
    found_spec: FuzzSpec
    corpus_path: Optional[str] = None
    #: Exception type name when the run crashed, ``None`` for an
    #: oracle violation.
    error: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_payload(),
            "failures": list(self.failures),
            "error": self.error,
            "found_spec": self.found_spec.to_payload(),
            "corpus_path": self.corpus_path,
        }


@dataclass
class FuzzReport:
    """The outcome of one budgeted fuzz run."""

    seed: int
    scenarios_run: int = 0
    chunks_run: int = 0
    elapsed_s: float = 0.0
    failures: List[FuzzFailure] = field(default_factory=list)
    oracle_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "seed": self.seed,
            "scenarios_run": self.scenarios_run,
            "chunks_run": self.chunks_run,
            "elapsed_s": round(self.elapsed_s, 3),
            "oracle_counts": dict(self.oracle_counts),
            "failures": [failure.to_dict() for failure in self.failures],
        }

    def format_markdown(self) -> str:
        lines = [
            "### repro fuzz",
            "",
            f"- seed: `{self.seed}`",
            f"- scenarios run: **{self.scenarios_run}** "
            f"({self.chunks_run} chunks, {self.elapsed_s:.1f} s)",
            "- oracles: "
            + ", ".join(
                f"{name} x{count}"
                for name, count in sorted(self.oracle_counts.items())
            ),
        ]
        if self.ok:
            lines.append("- result: **all oracles green**")
        else:
            lines.append(f"- result: **{len(self.failures)} failure(s)**")
            for failure in self.failures:
                lines.append("")
                lines.append("```json")
                lines.append(failure.spec.to_json())
                lines.append("```")
                if failure.error is not None:
                    lines.append(f"  - crashed with `{failure.error}`")
                for message in failure.failures:
                    lines.append(f"  - {message}")
                if failure.corpus_path:
                    lines.append(f"  - repro written to `{failure.corpus_path}`")
        return "\n".join(lines)


@dataclass(frozen=True)
class FuzzConfig:
    """A fuzz run's budget and generation bounds."""

    seed: int = 0
    #: Generated-scenario budget (scenarios actually judged; shrink
    #: re-executions do not count).
    examples: int = 50
    #: Wall-clock budget; checked between chunks, ``None`` = unbounded.
    time_budget_s: Optional[float] = None
    max_vehicles: int = 8
    max_motorways: int = 3
    max_shards: int = 3
    #: Stop after this many distinct failures (each is shrunk and
    #: persisted); keeps a badly broken tree from burning the budget.
    max_failures: int = 3
    corpus_dir: Optional[str] = None

    @classmethod
    def smoke(cls, seed: int = 0) -> "FuzzConfig":
        """The CI smoke profile: >= 25 scenarios, tight sizes."""
        return cls(
            seed=seed,
            examples=30,
            time_budget_s=600.0,
            max_vehicles=6,
            max_motorways=2,
            max_shards=2,
            max_failures=1,
        )


class FuzzRunner:
    """Drive the strategy/oracle loop under a budget."""

    def __init__(self, config: FuzzConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    def run(self) -> FuzzReport:
        report = FuzzReport(seed=self.config.seed)
        started = time.monotonic()
        chunk_index = 0
        while report.scenarios_run < self.config.examples:
            if (
                self.config.time_budget_s is not None
                and time.monotonic() - started > self.config.time_budget_s
            ):
                break
            if len(report.failures) >= self.config.max_failures:
                break
            remaining = self.config.examples - report.scenarios_run
            found = self._run_chunk(
                chunk_index, min(CHUNK_EXAMPLES, remaining), report
            )
            if found is not None:
                found_spec, oracle_report = found
                minimal, failures = minimize_spec(found_spec)
                failure = FuzzFailure(
                    spec=minimal,
                    failures=failures or oracle_report.failures,
                    found_spec=found_spec,
                    error=oracle_report.error,
                )
                if self.config.corpus_dir is not None:
                    failure.corpus_path = str(
                        write_corpus_entry(
                            Path(self.config.corpus_dir),
                            minimal,
                            expect="fail",
                            failures=failure.failures,
                            seed=self.config.seed,
                        )
                    )
                report.failures.append(failure)
            report.chunks_run += 1
            chunk_index += 1
        report.elapsed_s = time.monotonic() - started
        return report

    # ------------------------------------------------------------------
    def sample_specs(self, n: int) -> List[FuzzSpec]:
        """The first ``n`` specs this config's seed generates, without
        running any oracle — the determinism probe (same seed must give
        the same spec sequence)."""
        specs: List[FuzzSpec] = []
        chunk_index = 0
        while len(specs) < n:
            remaining = n - len(specs)
            self._drive_chunk(
                chunk_index,
                min(CHUNK_EXAMPLES, remaining),
                lambda spec: specs.append(spec),
            )
            chunk_index += 1
        return specs[:n]

    # ------------------------------------------------------------------
    def _chunk_seed(self, chunk_index: int) -> int:
        # Deterministic per-chunk derivation; spacing keeps chunk
        # streams disjoint for any reasonable run length.
        return self.config.seed * 1_000_003 + chunk_index

    def _run_chunk(self, chunk_index: int, examples: int, report: FuzzReport):
        """One hypothesis invocation; returns the shrunk failing
        (spec, oracle report) or ``None``."""
        holder: Dict[str, Any] = {}

        def body(spec: FuzzSpec) -> None:
            oracle_report = judge(spec)
            if "failed" not in holder:
                # Count only the exploration phase, not shrink re-runs.
                report.scenarios_run += 1
                for name in oracle_report.oracles_run:
                    report.oracle_counts[name] = (
                        report.oracle_counts.get(name, 0) + 1
                    )
            if not oracle_report.ok:
                holder["failed"] = True
                # Overwritten on every failing shrink attempt;
                # hypothesis re-runs the minimal example last.
                holder["spec"] = spec
                holder["report"] = oracle_report
                raise OracleViolation("; ".join(oracle_report.failures))

        try:
            self._drive_chunk(chunk_index, examples, body)
        except OracleViolation:
            return holder["spec"], holder["report"]
        return None

    def _drive_chunk(self, chunk_index: int, examples: int, body) -> None:
        from hypothesis import HealthCheck, Phase, given
        from hypothesis import seed as hypothesis_seed
        from hypothesis import settings

        from repro.fuzz.strategies import fuzz_specs

        strategy = fuzz_specs(
            max_vehicles=self.config.max_vehicles,
            max_motorways=self.config.max_motorways,
            max_shards=self.config.max_shards,
        )

        @hypothesis_seed(self._chunk_seed(chunk_index))
        @settings(
            max_examples=examples,
            deadline=None,
            database=None,
            derandomize=False,
            print_blob=False,
            suppress_health_check=list(HealthCheck),
            # No hypothesis shrink phase here: every example is a full
            # multi-run simulation, so hypothesis's hundreds of shrink
            # attempts cost minutes.  The strategy space is ordered
            # simplest-first and the greedy spec-level minimizer
            # (~20 oracle runs) produces the minimal repro instead.
            # Strategy-level @given tests still shrink normally.
            phases=(Phase.explicit, Phase.reuse, Phase.generate),
        )
        @given(strategy)
        def property_(spec: FuzzSpec) -> None:
            body(spec)

        property_()


# ----------------------------------------------------------------------
# Judging and the spec-level minimizer
# ----------------------------------------------------------------------
def judge(spec: FuzzSpec) -> OracleReport:
    """:func:`run_oracles`, with an exception raised inside it reported
    as a failure that names the exception type instead of propagating:
    a crash is a finding, shrunk and persisted like any other."""
    try:
        return run_oracles(spec)
    except Exception as exc:
        name = type(exc).__name__
        where = traceback.extract_tb(exc.__traceback__)[-1]
        report = OracleReport(spec=spec, error=name)
        report.failures.append(
            f"crash: {name}: {exc} (in {where.name}, "
            f"{Path(where.filename).name}:{where.lineno})"
        )
        return report


def _simplifications(spec: FuzzSpec):
    """Candidate one-step simplifications, most structural first."""
    if spec.city is not None:
        # City specs shrink along their own axes; the corridor knobs
        # are already at their defaults and inert.
        city = dict(spec.city)
        if city.get("shards", 1) > 1:
            collapsed = {
                key: value
                for key, value in city.items()
                if key not in ("shards", "rebalance_interval_ticks")
            }
            yield spec.replace(city=collapsed)
        if city.get("rebalance_interval_ticks", 0):
            yield spec.replace(
                city={
                    key: value
                    for key, value in city.items()
                    if key != "rebalance_interval_ticks"
                }
            )
        if city.get("duration_s", 600.0) > 600.0:
            yield spec.replace(city={**city, "duration_s": 600.0})
        if city.get("count_scale", 0.002) > 0.002:
            yield spec.replace(city={**city, "count_scale": 0.002})
        return
    for index in range(len(spec.faults)):
        events = spec.faults[:index] + spec.faults[index + 1 :]
        yield spec.replace(faults=events)
    if spec.channel != "stable" and not spec.faults:
        # An unstable channel implies a burst fault; only drop it once
        # the scheduled events are gone so has_faults stays consistent.
        yield spec.replace(channel="stable")
    elif spec.channel == "lossy":
        yield spec.replace(channel="stable")
    if spec.shards > 1:
        yield spec.replace(shards=1)
    if spec.motorways > 1:
        yield spec.replace(motorways=spec.motorways - 1)
    if spec.vehicles > 2:
        yield spec.replace(vehicles=max(2, spec.vehicles // 2))
    if spec.vehicles == 2:
        yield spec.replace(vehicles=1)
    if spec.duration_s > 1.0:
        yield spec.replace(duration_s=1.0)
    if spec.handover_fraction > 0.0:
        yield spec.replace(handover_fraction=0.0)
    if spec.serde_profile != "json":
        yield spec.replace(serde_profile="json")


def minimize_spec(
    spec: FuzzSpec, max_attempts: int = 80
) -> tuple:
    """Greedy spec-level shrink: keep applying the first simplification
    that still fails the same way, until none does (or the attempt
    budget runs out).  Returns ``(minimal_spec, failures)``.

    "The same way" is the same exception type for a crash, and an
    oracle violation (no crash) for a violation, so the shrinker cannot
    slide from one bug onto a different one."""
    found = judge(spec)
    if found.ok:
        # The caller saw a failure but it does not reproduce stand-alone
        # (e.g. planted flag raced off); return the spec untouched.
        return spec, []
    failures = found.failures
    attempts = 0
    progressed = True
    while progressed and attempts < max_attempts:
        progressed = False
        for candidate in _simplifications(spec):
            attempts += 1
            candidate_report = judge(candidate)
            if not candidate_report.ok and candidate_report.error == found.error:
                spec = candidate
                failures = candidate_report.failures
                progressed = True
                break
            if attempts >= max_attempts:
                break
    return spec, failures


# ----------------------------------------------------------------------
# Corpus I/O
# ----------------------------------------------------------------------
def write_corpus_entry(
    corpus_dir: Path,
    spec: FuzzSpec,
    expect: str = "pass",
    digest: Optional[str] = None,
    failures: Sequence[str] = (),
    seed: Optional[int] = None,
) -> Path:
    """Persist one replayable corpus entry; returns its path."""
    corpus_dir.mkdir(parents=True, exist_ok=True)
    payload: Dict[str, Any] = {"expect": expect, "spec": spec.to_payload()}
    if digest is not None:
        payload["digest"] = digest
    if failures:
        payload["failures"] = list(failures)
    if seed is not None:
        payload["found_by_seed"] = seed
    canonical = json.dumps(payload["spec"], sort_keys=True)
    import hashlib

    stem = hashlib.sha256(canonical.encode()).hexdigest()[:12]
    path = corpus_dir / f"repro-{stem}.json"
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return path


def replay_corpus_entry(path: Path, update_digest: bool = False) -> dict:
    """Replay one corpus entry; returns a result dict.

    ``expect: "pass"`` entries must come back green, and — when they
    pin a ``digest`` — bit-identical.  ``expect: "fail"`` entries must
    still fail (a fixed bug flips the entry to ``pass`` with a fresh
    digest, which ``update_digest`` writes for you).
    """
    path = Path(path)
    payload = json.loads(path.read_text())
    spec = FuzzSpec.from_payload(payload["spec"])
    oracle_report = judge(spec)
    expect = payload.get("expect", "pass")
    problems: List[str] = []
    if expect == "pass":
        problems.extend(oracle_report.failures)
        pinned = payload.get("digest")
        if pinned is not None and pinned != oracle_report.digest:
            problems.append(
                f"digest drift: corpus pins {pinned[:12]}…, "
                f"replay produced {oracle_report.digest[:12]}…"
            )
    elif expect == "fail":
        if oracle_report.ok:
            problems.append(
                "entry expected to fail but all oracles passed — the bug "
                "is fixed; flip expect to 'pass' and pin the digest "
                "(repro fuzz --replay <file> --update-digests)"
            )
    else:
        problems.append(f"unknown expect value {expect!r}")
    if update_digest and oracle_report.ok:
        payload["expect"] = "pass"
        payload["digest"] = oracle_report.digest
        payload.pop("failures", None)
        path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return {
        "path": str(path),
        "expect": expect,
        "ok": not problems,
        "problems": problems,
        "digest": oracle_report.digest,
        "oracles_run": oracle_report.oracles_run,
    }


def fuzz_dataset_warmup(spec: Optional[FuzzSpec] = None) -> None:
    """Pre-build the shared training dataset (keeps timing out of the
    first chunk's wall-clock accounting)."""
    training_dataset(spec if spec is not None else FuzzSpec())
