"""Fused-kernel golden equivalence and the _PickStream RNG fast path.

The fused arena kernel must be *bit-identical* to the reference per-RSU
engine: every RSU's rolling SHA-256 digest chain — which folds in the
exact flagged-vehicle identities drawn from that RSU's RNG stream —
must match, serially and under sharded runs with live rebalancing.
These are the golden differential tests; the fuzz oracle
(``city_kernel_equivalence``) explores the same property over random
configurations.
"""

import numpy as np
import pytest

from repro.city import COMMUTE_WAVE, CitySpec, run_city
from repro.city.kernel import _PickStream
from tests.test_city.test_engine import skewed_assignments

#: Small but real: ~60 RSUs, 30 ticks, commute wave for demand swings.
SMALL = dict(
    count_scale=0.01,
    duration_s=1800.0,
    demand_wave=COMMUTE_WAVE,
)


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", [11, 23])
    def test_serial_fused_matches_reference(self, seed):
        fused = run_city(CitySpec(seed=seed, kernel="fused", **SMALL))
        reference = run_city(CitySpec(seed=seed, kernel="reference", **SMALL))
        assert fused.digests == reference.digests
        assert fused.digest_signature() == reference.digest_signature()
        assert fused.warnings == reference.warnings
        assert fused.spawned == reference.spawned
        assert fused.retired == reference.retired
        assert fused.peak_concurrent == reference.peak_concurrent

    @pytest.mark.parametrize("seed", [11, 23])
    def test_four_shards_with_rebalancing_matches_reference(self, seed):
        reference = run_city(CitySpec(seed=seed, kernel="reference", **SMALL))
        spec = CitySpec(
            seed=seed,
            kernel="fused",
            shards=4,
            rebalance_interval_ticks=10,
            **SMALL,
        )
        spec = spec.replace(initial_assignments=skewed_assignments(spec))
        sharded = run_city(spec)
        # The skewed start must actually provoke RSU handovers, or the
        # detach/adopt path (arena extract + RNG state transfer) went
        # untested.
        assert sharded.rebalance_events
        assert sharded.audit() == []
        assert sharded.digest_signature() == reference.digest_signature()

    def test_reference_kernel_is_selectable_and_audited(self):
        result = run_city(
            CitySpec(seed=11, kernel="reference", count_scale=0.01,
                     duration_s=600.0)
        )
        assert result.audit() == []
        with pytest.raises(ValueError):
            CitySpec(kernel="vectorized")


def _canonical_state(bit_generator):
    """The observable bit-generator state: with ``has_uint32 == 0`` the
    ``uinteger`` field is dead storage numpy never reads, and the two
    engines park different stale values there."""
    state = dict(bit_generator.state)
    if not state["has_uint32"]:
        state["uinteger"] = 0
    return state


class TestPickStream:
    SIZES = [1, 2, 3, 1, 8, 5, 1, 2, 13, 4, 7, 1]

    @pytest.mark.parametrize(
        "n", [2, 3, 5, 7, 8, 100, 2**31 + 1, 2**32 - 5]
    )
    def test_matches_generator_integers_bitwise(self, n):
        # 2**31 + 1 rejects ~half of all candidate halves, driving the
        # _draw_slow sequential path and its advance() rewind hard.
        for seed in (0, 1, 7):
            mine = np.random.default_rng(seed)
            twin = np.random.default_rng(seed)
            pick = _PickStream(mine, n)
            dest = np.empty(sum(self.SIZES), dtype=np.int64)
            cursor = 0
            expected = []
            for size in self.SIZES:
                pick.draw_into(dest, cursor, cursor + size)
                cursor += size
                expected.append(twin.integers(0, n, size))
            np.testing.assert_array_equal(dest, np.concatenate(expected))
            pick.sync_out()
            assert _canonical_state(mine.bit_generator) == _canonical_state(
                twin.bit_generator
            )

    def test_interleaved_choice_stays_bit_identical(self):
        mine = np.random.default_rng(3)
        twin = np.random.default_rng(3)
        pick = _PickStream(mine, 5)
        dest = np.empty(64, dtype=np.int64)
        cursor = 0
        for size in (3, 1, 2, 5, 1, 4):
            pick.draw_into(dest, cursor, cursor + size)
            np.testing.assert_array_equal(
                dest[cursor : cursor + size], twin.integers(0, 5, size)
            )
            cursor += size
            # choice consumes buffered 32-bit halves inside the bit
            # generator, so the shadow must shuttle out and back.
            pick.sync_out()
            ours = mine.choice(10, size=2, replace=False)
            pick.sync_in()
            np.testing.assert_array_equal(
                ours, twin.choice(10, size=2, replace=False)
            )
        pick.sync_out()
        assert _canonical_state(mine.bit_generator) == _canonical_state(
            twin.bit_generator
        )

    def test_degenerate_ranges_fall_back(self):
        for n in (1, 2**32, 2**40):
            mine = np.random.default_rng(5)
            twin = np.random.default_rng(5)
            pick = _PickStream(mine, n)
            assert not pick.fast
            dest = np.empty(6, dtype=np.int64)
            pick.draw_into(dest, 0, 6)
            if n == 1:
                np.testing.assert_array_equal(dest, np.zeros(6))
            else:
                np.testing.assert_array_equal(dest, twin.integers(0, n, 6))


class TestProfile:
    def test_serial_profile_breakdown(self):
        result = run_city(
            CitySpec(seed=11, count_scale=0.005, duration_s=600.0,
                     profile=True)
        )
        assert result.profile is not None
        for phase in ("city.arrivals", "city.churn", "city.moves",
                      "city.detect"):
            assert phase in result.profile
            assert result.profile[phase]["count"] > 0
            assert result.profile[phase]["total_ms"] >= 0.0
