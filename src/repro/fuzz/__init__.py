"""Property-based scenario fuzzing with differential oracles.

The fuzzer composes corridor scenarios the hand-written suites never
tried — topology x demand x channel preset x fault schedule x shard
count — and judges each one with the equivalence guarantees the repo
already pins on fixed presets: the four conservation-law audits,
shards=N-vs-1 and obs on-vs-off.  Failures shrink (hypothesis
plus a spec-level minimizer) to minimal JSON repro specs in
``tests/fuzz_corpus/``, which tier-1 CI replays forever.

Entry points: ``repro fuzz`` (CLI), :class:`~repro.fuzz.runner.FuzzRunner`
(library), :func:`~repro.fuzz.strategies.fuzz_specs` (hypothesis).
"""

from repro.fuzz.oracles import (
    OracleReport,
    run_city_oracles,
    run_oracles,
    scenario_signature,
    signature_digest,
)
from repro.fuzz.runner import (
    FuzzConfig,
    FuzzFailure,
    FuzzReport,
    FuzzRunner,
    minimize_spec,
    replay_corpus_entry,
    write_corpus_entry,
)
from repro.fuzz.spec import (
    CHANNEL_PRESETS,
    FUZZ_DATASET_CARS,
    GOLDEN_DATASET_SEED,
    GOLDEN_SCENARIO_SEED,
    FuzzSpec,
)

__all__ = [
    "CHANNEL_PRESETS",
    "FUZZ_DATASET_CARS",
    "FuzzConfig",
    "FuzzFailure",
    "FuzzReport",
    "FuzzRunner",
    "FuzzSpec",
    "GOLDEN_DATASET_SEED",
    "GOLDEN_SCENARIO_SEED",
    "OracleReport",
    "minimize_spec",
    "replay_corpus_entry",
    "run_city_oracles",
    "run_oracles",
    "scenario_signature",
    "signature_digest",
    "write_corpus_entry",
]
