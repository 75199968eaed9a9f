import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamtrain.metrics import (
    EmpiricalCdf,
    aggregate_snr,
    empirical_cdf,
    grouped_cdf,
    power_ratio,
)


class TestPowerRatio:
    def test_definition(self):
        # field power equal to the preamble variance gives gamma = 1/3
        samples = np.ones(100, dtype=complex)
        assert power_ratio([1.0], samples) == pytest.approx([1.0 / 3.0])

    def test_zero_power_field(self):
        out = power_ratio([0.0, 2.0], np.ones(10, dtype=complex))
        assert out.shape == (2,)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(2.0 / 3.0)

    def test_zero_variance_preamble_rejected(self):
        with pytest.raises(ValueError):
            power_ratio([1.0], np.zeros(8, dtype=complex))
        with pytest.raises(ValueError):
            power_ratio([1.0], np.array([]))

    def test_population_variance_about_zero(self):
        samples = np.array([1.0, -1.0, 1j, -1j])
        # mean squared magnitude is 1 even though the sample mean is 0
        assert power_ratio([3.0], samples) == pytest.approx([1.0])

    def test_invariant_to_joint_rescaling(self):
        rng = np.random.default_rng(5)
        powers = rng.uniform(0.1, 5.0, size=8)
        samples = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        base = power_ratio(powers, samples)
        for c in (1e-3, 7.2, 1e4):
            assert np.allclose(power_ratio(c**2 * powers, c * samples), base, rtol=1e-12)


# Ten distinct values, two of them equal zeros, for heavy ties.
_TIED = st.sampled_from(
    [-math.inf, -2.5, -0.0, 0.0, 5e-324, 1.0, 1.0 + 2**-52, 3.0, 1e300, math.inf]
)


def pairs(cdf):
    """The CDF's jump points as (value, fraction) pairs of Python floats."""
    values, fractions = cdf.points()
    return list(zip(values.tolist(), fractions.tolist()))


class TestEmpiricalCdf:
    def test_three_samples(self):
        cdf = empirical_cdf([3.0, 1.0, 2.0])
        assert pairs(cdf) == [(1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)]

    def test_all_equal_jump(self):
        # one jump, straight from 0 to 1
        assert pairs(empirical_cdf([4.0] * 10)) == [(4.0, 1.0)]

    def test_right_continuity(self):
        # the fraction at a jump counts the samples equal to its value
        assert pairs(empirical_cdf([2.0, 1.0])) == [(1.0, 0.5), (2.0, 1.0)]
        assert pairs(empirical_cdf([1.0, 1.0 - 1e-12])) == [(1.0 - 1e-12, 0.5), (1.0, 1.0)]

    def test_nondecreasing_limits(self):
        rng = np.random.default_rng(11)
        values, fracs = empirical_cdf(rng.standard_normal(500)).points()
        assert np.all(np.diff(values) > 0)
        assert np.all(np.diff(fracs) > 0)
        assert fracs[0] > 0.0
        assert fracs[-1] == 1.0

    def test_points_table(self):
        cdf = empirical_cdf([2.0, 1.0, 2.0])
        assert pairs(cdf) == [(1.0, pytest.approx(1 / 3)), (2.0, pytest.approx(1.0))]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    def test_nan_rejected_with_its_count(self):
        with pytest.raises(ValueError, match="2 of 5 are NaN"):
            empirical_cdf([1.0, math.nan, 2.0, -math.nan, 3.0])
        with pytest.raises(ValueError, match="1 of 1 are NaN"):
            EmpiricalCdf(np.array([math.nan]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_TIED, min_size=1, max_size=80))
    def test_points_equal_unique_and_cumsum(self, samples):
        # Heavy ties: ten distinct values (two of them equal zeros) over up
        # to 80 samples.  A run holding both zeros may report either sign,
        # as np.unique's own sort may too; == compares them as equal.
        cdf = empirical_cdf(samples)
        values, counts = np.unique(cdf.sorted_values, return_counts=True)
        fracs = np.cumsum(counts) / cdf.sorted_values.size
        want = [(float(v), float(f)) for v, f in zip(values, fracs)]
        assert pairs(cdf) == want
        assert all(a.dtype == np.float64 and a.ndim == 1 for a in cdf.points())


def _bits(*arrays):
    return [a.tobytes() for a in arrays]


class TestGroupedCdf:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.lists(_TIED | st.floats(allow_nan=False), min_size=1, max_size=12),
                # all-equal groups
                st.tuples(_TIED, st.integers(1, 6)).map(lambda t: [t[0]] * t[1]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @example([[5.0]])
    @example([[4.0, 4.0], [4.0], [4.0, 4.0, 4.0]])
    @example([[1.0, 2.0], [2.0, 1.0], [-0.0], [0.0, -0.0]])
    def test_each_group_is_its_own_cdf_bit_for_bit(self, groups):
        samples = [x for g in groups for x in g]
        values, fractions, counts = grouped_cdf(samples, list(map(len, groups)))
        own = [empirical_cdf(g).points() for g in groups]
        assert counts.tolist() == [len(v) for v, _ in own]
        want = [np.concatenate(column) for column in zip(*own)]
        assert _bits(values, fractions) == _bits(*want)
        assert counts.dtype == np.intp

    def test_equal_values_do_not_merge_across_groups(self):
        values, fractions, counts = grouped_cdf([4.0, 4.0, 4.0], [2, 1])
        assert values.tolist() == [4.0, 4.0]
        assert fractions.tolist() == [1.0, 1.0]
        assert counts.tolist() == [1, 1]

    def test_nan_rejected_with_its_count(self):
        with pytest.raises(ValueError, match="1 of 4 are NaN"):
            grouped_cdf([1.0, 2.0, math.nan, 3.0], [2, 2])


class TestAggregateSnr:
    def test_fixed_point_all_ones(self):
        assert aggregate_snr([1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_hand_computed_pair(self):
        # {3, 0}: 2 ** ((log2(4) + log2(1)) / 2) - 1 = 1
        assert aggregate_snr([3.0, 0.0]) == pytest.approx(1.0)

    def test_all_zero(self):
        assert aggregate_snr([0.0] * 5) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            aggregate_snr([1.0, -0.1])
        with pytest.raises(ValueError):
            aggregate_snr([])

    def test_between_min_and_max(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            snrs = rng.uniform(0.0, 50.0, size=12)
            agg = aggregate_snr(snrs)
            assert snrs.min() - 1e-12 <= agg <= snrs.max() + 1e-12

    def test_scale_monotone(self):
        rng = np.random.default_rng(4)
        snrs = rng.uniform(0.1, 10.0, size=16)
        base = aggregate_snr(snrs)
        for c in (1.5, 3.0):
            boosted = aggregate_snr(c * (1.0 + snrs) - 1.0)
            assert boosted > base
