import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamtrain.metrics import aggregate_snr, grouped_cdf

# Ten distinct values, two of them equal zeros, for heavy ties.
_TIED = st.sampled_from(
    [-math.inf, -2.5, -0.0, 0.0, 5e-324, 1.0, 1.0 + 2**-52, 3.0, 1e300, math.inf]
)


def one_group(samples):
    """The jump points of ``samples`` as one group, as (value, fraction)
    pairs of Python floats."""
    values, fractions, counts = grouped_cdf(samples, [len(samples)])
    assert counts.tolist() == [len(values)]
    return list(zip(values.tolist(), fractions.tolist()))


def unique_cdf(group):
    """Independent oracle: the distinct values of ``group`` and the
    fraction of samples at or below each, from np.unique's counts."""
    values, counts = np.unique(np.asarray(group, dtype=float), return_counts=True)
    return values, np.cumsum(counts) / len(group)


class TestGroupedCdf:
    def test_three_samples(self):
        assert one_group([3.0, 1.0, 2.0]) == [(1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)]

    def test_ties_jump_once(self):
        # one jump, straight from 0 to 1
        assert one_group([4.0] * 10) == [(4.0, 1.0)]
        assert one_group([2.0, 1.0, 2.0]) == [(1.0, 1 / 3), (2.0, 1.0)]

    def test_right_continuity(self):
        # the fraction at a jump counts the samples equal to its value
        assert one_group([2.0, 1.0]) == [(1.0, 0.5), (2.0, 1.0)]
        assert one_group([1.0, 1.0 - 1e-12]) == [(1.0 - 1e-12, 0.5), (1.0, 1.0)]

    def test_signed_zeros_share_one_jump(self):
        # -0.0 == 0.0, so the two zeros are one run, reported at either sign
        points = one_group([0.0, 1.0, -0.0])
        assert points == [(0.0, 2 / 3), (1.0, 1.0)]

    def test_nondecreasing_limits(self):
        rng = np.random.default_rng(11)
        values, fracs, _ = grouped_cdf(rng.standard_normal(500), [500])
        assert np.all(np.diff(values) > 0)
        assert np.all(np.diff(fracs) > 0)
        assert fracs[0] > 0.0
        assert fracs[-1] == 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.lists(_TIED | st.floats(allow_nan=False), min_size=1, max_size=12),
                # heavy ties: ten distinct values over up to 80 samples
                st.lists(_TIED, min_size=1, max_size=80),
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
    def test_each_group_equals_unique_and_cumsum(self, groups):
        samples = [x for g in groups for x in g]
        values, fractions, counts = grouped_cdf(samples, list(map(len, groups)))
        own = [unique_cdf(g) for g in groups]
        assert counts.tolist() == [len(v) for v, _ in own]
        want_values, want_fractions = (np.concatenate(column) for column in zip(*own))
        # A run holding both zeros may report either sign, as np.unique's
        # own sort may too; == compares them as equal.  The fractions are
        # the same integer ratios, so they agree bit for bit.
        assert values.tolist() == want_values.tolist()
        assert fractions.tobytes() == want_fractions.tobytes()
        assert values.dtype == fractions.dtype == np.float64
        assert counts.dtype == np.intp

    def test_equal_values_do_not_merge_across_groups(self):
        values, fractions, counts = grouped_cdf([4.0, 4.0, 4.0], [2, 1])
        assert values.tolist() == [4.0, 4.0]
        assert fractions.tolist() == [1.0, 1.0]
        assert counts.tolist() == [1, 1]

    def test_nan_rejected_with_its_count(self):
        with pytest.raises(ValueError, match="2 of 5 are NaN"):
            grouped_cdf([1.0, math.nan, 2.0, -math.nan, 3.0], [5])
        with pytest.raises(ValueError, match="1 of 1 are NaN"):
            grouped_cdf([math.nan], [1])
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
