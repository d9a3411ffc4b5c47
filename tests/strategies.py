"""Shared hypothesis strategies for the test suites and the fuzzer.

Each strategy here used to live ad-hoc inside one test module; they are
single-sourced so the scenario fuzzer (:mod:`repro.fuzz.strategies`
builds on the same value spaces) and every property suite draw from
identical distributions.  Keep strategies *data-shaped* (JSON values,
wire frames, summary dicts) — scenario-level strategies belong in
:func:`repro.fuzz.strategies.fuzz_specs`.
"""

from hypothesis import strategies as st

#: Arbitrary JSON-able values — the serde round-trip surface.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**31), max_value=2**31)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=30),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=10), children, max_size=5),
    max_leaves=20,
)

#: (kind, payload) frame lists for shm-ring interleaving tests.
ring_frames = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=255),
        st.binary(min_size=0, max_size=48),
    ),
    min_size=1,
    max_size=40,
)

#: One wire-shaped prediction-summary dict — the struct-serde surface.
summary_dict = st.fixed_dictionaries(
    {
        "car": st.integers(min_value=1, max_value=10_000),
        "p": st.floats(0.0, 1.0, allow_nan=False, width=32),
        "n": st.integers(min_value=0, max_value=100_000),
        "cls": st.integers(min_value=0, max_value=1),
        "rd": st.integers(min_value=0, max_value=500),
        "ts": st.floats(0.0, 1e4, allow_nan=False),
    }
)

summary_dicts = st.lists(summary_dict, min_size=1, max_size=20)

#: (mean_normal_prob, n_predictions, timestamp) triples for the
#: PredictionSummary merge algebra.
summary_merge_entries = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=100),
        st.floats(min_value=0.0, max_value=1e6),
    ),
    min_size=1,
    max_size=8,
)

#: Metric instrument names and label sets for registry/snapshot tests.
metric_names = st.sampled_from(["a.b", "c", "rsu.batch", "x.y.z"])
metric_labels = st.dictionaries(
    st.sampled_from(["rsu", "shard", "kind"]),
    st.sampled_from(["1", "2", "north"]),
    max_size=2,
)
