import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrain import beam_coding
from beamtrain.array_model import ArrayConfig, dft_codebook, steering_vector
from beamtrain.beam_coding import (
    GolayPair,
    ce_field_powers,
    coded_fields,
    decode_per_tap,
    encode_ce_field,
    golay_pair,
    walsh_codes,
    walsh_decode,
)
from beamtrain.channel import ChannelRealization, Ray, cascade_gains
from beamtrain.protocols import _argmax_pair


def aperiodic_autocorrelation(x):
    """Aperiodic autocorrelation of ``x`` at lags 0 .. len(x)-1."""
    arr = np.asarray(x)
    n = arr.size
    return np.array([np.sum(arr[k:] * np.conj(arr[: n - k])) for k in range(n)])


@st.composite
def orthogonal_subsets(draw):
    """A DFT codebook and a nonempty subset of its (mutually orthogonal) beams."""
    n = draw(st.sampled_from([1, 2, 4, 8, 16]))
    spacing = draw(st.sampled_from([0.5, 0.6, 0.75, 1.0]))
    cb = dft_codebook(ArrayConfig(n, spacing))
    indices = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    return cb, cb.subset(indices)


def walsh_codes_for(k):
    """The first k Walsh codes of the shortest order that separates k beams."""
    return walsh_codes(max(0, (k - 1).bit_length()))[:k]


def chip_matrix(chips):
    """The chips as one complex (K, T) matrix, as the decoders take them."""
    return chips.astype(np.complex128)


_rays = st.lists(
    st.builds(
        Ray,
        aod_deg=st.floats(0.0, 180.0),
        aoa_deg=st.floats(0.0, 180.0),
        # Subnormal gains make the decode test's tolerance, which scales
        # with the gains, underflow to zero.
        gain=st.builds(
            complex,
            st.floats(-1.0, 1.0, allow_subnormal=False),
            st.floats(-1.0, 1.0, allow_subnormal=False),
        ),
        tap=st.integers(0, 4),
    ),
    min_size=1,
    max_size=6,
)


@st.composite
def ce_tap_rows(draw):
    """A +/-1 pair (a Golay pair, or random chips) and a (rows, T) tap
    matrix: nonzero taps on a sparse or dense column set, exact zeros among
    them, a negated row and an all-zero row."""
    n = draw(st.integers(0, 9))
    if draw(st.booleans()):
        golay = golay_pair(n)
    else:
        chips = st.lists(st.sampled_from([1, -1]), min_size=2**n, max_size=2**n)
        golay = GolayPair(draw(chips), draw(chips))
    t = draw(st.integers(1, 21))
    columns = st.integers(0, t - 1)
    support = sorted(
        draw(
            st.one_of(
                st.sets(columns, min_size=1, max_size=3),
                st.sets(columns, min_size=max(1, t - 2)),
            )
        )
    )
    values = st.one_of(
        st.just(0j),
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    )
    rows = draw(
        st.lists(
            st.lists(values, min_size=len(support), max_size=len(support)),
            min_size=1,
            max_size=4,
        )
    )
    taps = np.zeros((len(rows) + 2, t), dtype=np.complex128)
    taps[: len(rows), support] = rows
    taps[len(rows)] = -taps[0]
    return golay, taps


def autocorr_oracle(seq, lag):
    """Independent aperiodic autocorrelation: explicit python loop."""
    return sum(int(seq[i]) * int(seq[i - lag]) for i in range(lag, len(seq)))


class TestWalshCodes:
    def test_order_two_exact_rows(self):
        chips = walsh_codes(2)
        expected = [
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, 1],
        ]
        assert chips.tolist() == expected
        assert chips.dtype == np.int64
        assert not chips.flags.writeable and not chips[:2].flags.writeable

    def test_order_zero(self):
        assert walsh_codes(0).tolist() == [[1]]

    def test_order_three_all_pairs_orthogonal(self):
        for a, b in itertools.combinations(walsh_codes(3), 2):
            assert int(np.dot(a, b)) == 0

    def test_gram_is_t_identity(self):
        for k in range(5):
            s = walsh_codes(k)
            assert np.array_equal(s @ s.T, (2**k) * np.eye(2**k, dtype=np.int64))

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            walsh_codes(-1)


class TestGolayPair:
    def test_length_one(self):
        g = golay_pair(0)
        assert g.a.tolist() == [1] and g.b.tolist() == [1]
        total = aperiodic_autocorrelation(g.a) + aperiodic_autocorrelation(g.b)
        assert total.tolist() == [2]

    def test_length_four_exact_sequences(self):
        g = golay_pair(2)
        assert g.a.tolist() == [1, 1, 1, -1]
        assert g.b.tolist() == [1, 1, -1, 1]
        # hand-computable lags via the independent oracle
        for lag in range(4):
            s = autocorr_oracle(g.a, lag) + autocorr_oracle(g.b, lag)
            assert s == (8 if lag == 0 else 0)

    def test_length_128_complementary(self):
        g = golay_pair(7)
        total = aperiodic_autocorrelation(g.a) + aperiodic_autocorrelation(g.b)
        assert total[0] == 256
        assert np.all(total[1:] == 0)

    def test_complementarity_exact_integers(self):
        for m in range(9):
            g = golay_pair(m)
            total = aperiodic_autocorrelation(g.a) + aperiodic_autocorrelation(g.b)
            assert total[0] == 2 * len(g)
            assert int(np.abs(total[1:]).sum()) == 0

    def test_pair_shape_validation(self):
        with pytest.raises(ValueError):
            GolayPair(a=np.array([1, 1]), b=np.array([1, 1, 1, -1]))

    def test_pair_chips_must_be_plus_or_minus_one(self):
        with pytest.raises(ValueError, match="chips"):
            GolayPair(a=np.array([1, 2]), b=np.array([1, -1]))
        with pytest.raises(ValueError, match="chips"):
            GolayPair(a=np.array([1, -1]), b=np.array([0, -1]))


class TestBuildSchedule:
    """The coded field schedule that :func:`coded_fields` builds."""

    def test_four_beam_field_weights_match_hand_formula(self):
        cfg = ArrayConfig(16)
        cb = dft_codebook(cfg)
        beams = [cb.vectors[i] for i in (1, 5, 9, 13)]
        chips = walsh_codes(2)
        fields = coded_fields(beams, chips)
        for t in range(4):
            manual = 0.5 * sum(chips[p, t] * beams[p].entries for p in range(4))
            assert np.allclose(fields[t].weights, manual, atol=1e-15)

    def test_single_beam_schedule_is_constant(self):
        sv = steering_vector(ArrayConfig(8), 70.0)
        fields = coded_fields([sv], walsh_codes(0))
        assert len(fields) == 1
        assert np.allclose(fields[0].weights, sv.entries)

    def test_power_flat_across_fields(self):
        cfg = ArrayConfig(16)
        cb = dft_codebook(cfg)
        for k in (1, 2, 4, 8, 16):
            beams = [cb.vectors[i] for i in range(0, 16, 16 // k)]
            chips = walsh_codes(int(math.log2(k)) if k > 1 else 0)[:k]
            energies = [w.energy() for w in coded_fields(beams, chips)]
            assert max(energies) - min(energies) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(orthogonal_subsets())
    def test_orthogonal_schedule_fields_have_unit_energy(self, books):
        _, subset = books
        for w in coded_fields(subset.vectors, walsh_codes_for(len(subset))):
            assert w.energy() == pytest.approx(1.0, rel=1e-12)

    def test_longer_codes_than_beams(self):
        cfg = ArrayConfig(8)
        cb = dft_codebook(cfg)
        chips = walsh_codes(2)[:2]  # first 2 rows of order 4
        assert len(coded_fields([cb.vectors[0], cb.vectors[3]], chips)) == 4

    def test_non_orthogonal_beams_lose_power_flatness(self):
        cfg = ArrayConfig(16)
        beams = [steering_vector(cfg, 60.0), steering_vector(cfg, 61.0)]
        energies = [w.energy() for w in coded_fields(beams, walsh_codes(1))]
        assert max(energies) - min(energies) > 0.5

    def test_validation(self):
        cfg = ArrayConfig(8)
        cb = dft_codebook(cfg)
        with pytest.raises(ValueError):
            coded_fields([], np.zeros((0, 1), dtype=np.int64))
        with pytest.raises(ValueError, match="2 chip rows for 1 beams"):
            coded_fields([cb.vectors[0]], walsh_codes(1))
        with pytest.raises(ValueError, match="orthogonal"):
            # 4 beams cannot be separated by 2-chip codes
            coded_fields([cb.vectors[i] for i in range(4)], np.vstack([walsh_codes(1)] * 2))

    @pytest.mark.parametrize(
        "chips, message",
        [
            (np.array([1, -1]), "matrix"),
            (np.zeros((0, 4)), "matrix"),
            (np.array([[1, 2]]), "chips must be"),
            (np.array([[1, 0]]), "chips must be"),
            (np.array([[1j, 1]]), "chips must be"),
            (np.array([[1, 1], [1, 1]]), "orthogonal"),
            (np.array([[1, 1, 1], [1, -1, 1]]), "orthogonal"),
        ],
    )
    def test_rejects_a_bad_chip_matrix(self, chips, message):
        g = golay_pair(2)
        beams = [steering_vector(ArrayConfig(4), 60.0)] * max(1, len(np.atleast_2d(chips)))
        with pytest.raises(ValueError, match=message):
            coded_fields(beams, chips)
        with pytest.raises(ValueError, match=message):
            decode_per_tap(np.zeros((4, 16)), g, chips)

    def test_accepts_any_orthogonal_sign_matrix(self):
        # Not Walsh rows, not starting with +1, length not a power of two.
        chips = np.array([[-1, 1], [1, 1]])
        beams = [steering_vector(ArrayConfig(4), a) for a in (60.0, 120.0)]
        fields = coded_fields(beams, chips)
        assert np.allclose(fields[0].weights, (beams[1].entries - beams[0].entries) / math.sqrt(2))


class TestDecodeCorrelations:
    def test_round_trip_recovers_gains_scaled(self):
        # oracle: transmitting one beam at a time returns the gain directly,
        # so coded fields must decode to (T / sqrt(K)) * gain
        rng = np.random.default_rng(21)
        k = 4
        chips = walsh_codes(2)
        gains = rng.standard_normal((k, 3)) + 1j * rng.standard_normal((k, 3))
        received = np.zeros((3, 4), dtype=complex)
        for t in range(4):
            for q in range(3):
                received[q, t] = sum(chips[p, t] / math.sqrt(k) * gains[p, q] for p in range(k))
        out = walsh_decode(chip_matrix(chips), received, axis=1)
        scale = 4 / math.sqrt(4)
        assert np.allclose(out, scale * gains.T, atol=1e-12)

    def test_sign_channel_gains_recover_exactly(self):
        rng = np.random.default_rng(2)
        chips = walsh_codes(2)
        gains = rng.choice([-1.0, 1.0], size=(4, 4))
        received = (chips.T / 2.0) @ gains
        out = walsh_decode(chip_matrix(chips), received)
        assert np.allclose(out, 2.0 * gains, atol=1e-12)

    def test_zero_row(self):
        received = np.zeros((2, 4))
        assert np.all(walsh_decode(chip_matrix(walsh_codes(2)), received, axis=1) == 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            walsh_decode(chip_matrix(walsh_codes(2)), np.zeros((2, 3)), axis=1)

    def test_best_pair_lexicographic_ties(self):
        out = walsh_decode(chip_matrix(walsh_codes(0)), np.array([[1.0], [1.0]]), axis=1)
        assert _argmax_pair(np.abs(out.T)) == (0, 0)


class TestWalshDecode:
    def test_matches_explicit_sum_along_either_axis(self):
        rng = np.random.default_rng(3)
        chips = chip_matrix(walsh_codes(2)[:3])
        fields = rng.standard_normal((5, 4, 2)) + 1j * rng.standard_normal((5, 4, 2))
        want = np.einsum("pt,dtg->dpg", chips, fields)
        np.testing.assert_allclose(walsh_decode(chips, fields), want, rtol=1e-14)
        np.testing.assert_allclose(walsh_decode(chips, fields, axis=1), want, rtol=1e-14)
        swapped = walsh_decode(chips, np.swapaxes(fields, 1, 2), axis=2)
        np.testing.assert_allclose(swapped, np.swapaxes(want, 1, 2), rtol=1e-14)
        assert np.array_equal(walsh_decode(chips, fields[0], axis=0), chips @ fields[0])

    @settings(max_examples=60, deadline=None)
    @given(orthogonal_subsets(), _rays)
    def test_noiseless_coded_decode_equals_the_gain_table(self, books, rays):
        # Per tap, the decoded field estimates are the beam-pair gains
        # scaled by T / sqrt(K).
        cb, subset = books
        k = len(subset)
        chips = walsh_codes_for(k)
        fields = np.stack([w.weights for w in coded_fields(subset.vectors, chips)])
        ch = ChannelRealization(rays=tuple(rays))
        est = cascade_gains(fields, cb.matrix(), ch, cb.cfg, cb.cfg)
        decoded = walsh_decode(chip_matrix(chips), est) * math.sqrt(k) / len(fields)
        table = cascade_gains(subset.matrix(), cb.matrix(), ch, cb.cfg, cb.cfg)
        # Largest magnitude a unit-norm beam pair can see through these rays.
        bound = sum(abs(r.gain) for r in rays) * cb.cfg.num_antennas
        np.testing.assert_allclose(decoded, table, rtol=0, atol=1e-12 * bound)


class TestPerTapDecoding:
    def test_single_tap_impulse(self):
        g = golay_pair(9)
        field = encode_ce_field([1.0], g, guard=0)
        decoded = decode_per_tap(field[None, :], g, walsh_codes(0), num_taps=1)
        assert decoded.shape == (1, 1)
        assert decoded[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_two_taps_two_beams(self):
        g = golay_pair(9)
        chips = walsh_codes(2)
        k = 4
        gains = np.zeros((k, 4), dtype=complex)
        gains[0, 0] = 1.0
        gains[1, 3] = 0.5
        fields = []
        for t in range(4):
            taps = sum(chips[p, t] / math.sqrt(k) * gains[p] for p in range(k))
            fields.append(encode_ce_field(taps, g, guard=8))
        decoded = decode_per_tap(np.array(fields), g, chips, num_taps=4)
        assert np.abs(decoded - gains).max() < 1e-9

    def test_two_path_scene_with_excess_delay(self):
        # one aligned pair at tap 0 with gain 1, the other at tap 2 with gain a
        a = 0.37
        g = golay_pair(8)
        chips = walsh_codes(2)
        gains = np.zeros((4, 3), dtype=complex)
        gains[1, 0] = 1.0
        gains[0, 2] = a
        fields = [
            encode_ce_field(sum(chips[p, t] / 2.0 * gains[p] for p in range(4)), g, guard=4)
            for t in range(4)
        ]
        decoded = decode_per_tap(np.array(fields), g, chips, num_taps=3)
        assert decoded[1, 0] == pytest.approx(1.0, abs=1e-12)
        assert decoded[0, 2] == pytest.approx(a, abs=1e-12)
        mask = np.ones_like(gains, dtype=bool)
        mask[1, 0] = mask[0, 2] = False
        assert np.abs(decoded[mask]).max() < 1e-12

    def test_random_gains_property(self):
        rng = np.random.default_rng(77)
        g = golay_pair(7)
        for _ in range(10):
            k = rng.choice([2, 4])
            chips = walsh_codes(int(math.log2(k)))
            taps = rng.integers(1, 6)
            gains = rng.standard_normal((k, taps)) + 1j * rng.standard_normal((k, taps))
            fields = [
                encode_ce_field(
                    sum(chips[p, t] / math.sqrt(k) * gains[p] for p in range(k)),
                    g,
                    guard=int(taps),
                )
                for t in range(k)
            ]
            decoded = decode_per_tap(np.array(fields), g, chips, num_taps=int(taps))
            assert np.abs(decoded - gains).max() < 1e-9

    def test_field_too_short(self):
        g = golay_pair(9)
        with pytest.raises(ValueError):
            decode_per_tap(np.zeros((1, 100)), g, walsh_codes(0))

    def test_guard_too_small_for_channel(self):
        g = golay_pair(4)
        with pytest.raises(ValueError):
            encode_ce_field(np.ones(5), g, guard=2)


class TestCeFieldPowers:
    @staticmethod
    def oracle(taps, golay):
        guard = taps.shape[1] - 1
        return [np.mean(np.abs(encode_ce_field(h, golay, guard)) ** 2) for h in taps]

    @settings(max_examples=300, deadline=None)
    @given(ce_tap_rows())
    def test_equals_encode_ce_field_bit_for_bit(self, case):
        golay, taps = case
        assert ce_field_powers(taps, golay).tolist() == self.oracle(taps, golay)

    def test_rows_across_blocks_and_both_layouts(self):
        rng = np.random.default_rng(5)
        golay = golay_pair(9)
        for support in ([0, 4, 9, 16], range(17)):
            taps = np.zeros((37, 17), dtype=np.complex128)
            taps[:, support] = rng.standard_normal((37, len(support))) + 1j * rng.standard_normal(
                (37, len(support))
            )
            assert ce_field_powers(taps, golay).tolist() == self.oracle(taps, golay)

    def test_layout_choice(self):
        golay = golay_pair(9)
        # Four nonzero taps of 17: at most 8 windows up to sign, one sequence.
        seqs, index = beam_coding._ce_frame(golay, 17, np.array([0, 4, 9, 16]))
        assert len(seqs) == 1 and len(seqs[0]) <= 2 * 16 + 8 * 17
        assert len(index) == 2 * (512 + 16)
        # Six of 17: 32 windows of 17 chips are no fewer than the 512 of a.
        seqs, index = beam_coding._ce_frame(golay, 17, np.arange(6))
        assert index is None and seqs[0] is golay.a and seqs[1] is golay.b
        # Far past int64 pattern ids, still the full field.
        assert beam_coding._ce_frame(golay, 70, np.arange(70))[1] is None
        # Edges of b that are not those of a up to sign.
        odd = GolayPair(golay.a, np.concatenate([golay.b[:-1], -golay.b[-1:]]))
        assert beam_coding._ce_frame(odd, 3, np.array([0, 2]))[1] is None

    def test_shapes(self):
        golay = golay_pair(4)
        assert ce_field_powers(np.zeros((0, 3)), golay).shape == (0,)
        assert ce_field_powers(np.zeros((2, 3)), golay).tolist() == [0.0, 0.0]
        for bad in (np.zeros(3), np.zeros((2, 0)), np.zeros((1, 2, 3))):
            with pytest.raises(ValueError):
                ce_field_powers(bad, golay)


class TestWaveformRouteAgainstFieldRoute:
    def test_golay_decode_recovers_beam_domain_gains_of_a_real_scene(self):
        # independent route: synthesize the actual chip streams each coded
        # field produces through a two-tap scene and decode them; the result
        # must match the beam-domain pair gains computed analytically
        from beamtrain.channel import toy_channel, toy_codebooks

        tx_cb, rx_cb = toy_codebooks()
        ch = toy_channel(0.4, nlos_excess_tap=2)
        chips = walsh_codes(2)
        g = golay_pair(9)
        norm = math.sqrt(4 * 4)
        field_weights = np.stack([w.weights for w in coded_fields(tx_cb.vectors, chips)])
        field_taps = cascade_gains(field_weights, rx_cb.matrix(), ch, tx_cb.cfg, rx_cb.cfg) / norm
        table = cascade_gains(tx_cb.matrix(), rx_cb.matrix(), ch, tx_cb.cfg, rx_cb.cfg) / norm
        for q in range(4):
            fields = [encode_ce_field(taps, g, guard=4) for taps in field_taps[:, :, q].T]
            decoded = decode_per_tap(np.array(fields), g, chips, num_taps=3)
            expected = table[:, :, q].T
            assert np.abs(decoded - expected).max() < 1e-9
