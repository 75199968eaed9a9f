import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from beamtrain import beam_coding
from beamtrain.array_model import ArrayConfig, BeamCodebook, dft_codebook, steering_vector
from beamtrain.beam_coding import (
    CE_GOLAY,
    ce_field_powers,
    coded_fields,
    golay_pair,
    walsh_codes,
    walsh_decode,
)
from beamtrain.channel import ChannelRealization, cascade_gains
from beamtrain.protocols import _argmax_pair
from oracles import decode_per_tap, encode_ce_field


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
    return cb, BeamCodebook(cb.cfg, tuple(cb.angles_deg[i] for i in indices), cb.matrix[indices])


def walsh_codes_for(k):
    """The first k Walsh codes of the shortest order that separates k beams."""
    return walsh_codes(max(0, (k - 1).bit_length()))[:k]


def chip_matrix(chips):
    """The chips as one complex (K, T) matrix, as the decoders take them."""
    return chips.astype(np.complex128)


@st.composite
def realizations(draw):
    """One to six rays at taps 0 to 4."""
    n = draw(st.integers(1, 6))
    angles = hnp.arrays(float, n, elements=st.floats(0.0, 180.0))
    # Subnormal gains make the decode test's tolerance, which scales with
    # the gains, underflow to zero.
    part = st.floats(-1.0, 1.0, allow_subnormal=False)
    return ChannelRealization(
        aods_deg=draw(angles),
        aoas_deg=draw(angles),
        gains=draw(hnp.arrays(np.complex128, n, elements=st.builds(complex, part, part))),
        taps=draw(hnp.arrays(np.intp, n, elements=st.integers(0, 4))),
    )


@st.composite
def ce_tap_rows(draw):
    """A (rows, T) tap matrix of 1 to 140 taps: nonzero taps on a sparse
    column set of up to 20 columns or on all but up to two columns, exact
    zeros among them, a negated row and an all-zero row.  Both sides of
    ce_field_powers' 128-tap and 16-nonzero bounds are drawn."""
    t = draw(st.integers(1, 140))
    columns = st.integers(0, t - 1)
    if draw(st.booleans()):
        support = sorted(draw(st.sets(columns, min_size=1, max_size=min(20, t))))
    else:
        support = sorted(set(range(t)) - draw(st.sets(columns, max_size=min(2, t - 1))))
    values = st.one_of(
        st.just(0j),
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    )
    shape = (draw(st.integers(1, 4)), len(support))
    rows = draw(hnp.arrays(np.complex128, shape, elements=values, fill=st.nothing()))
    taps = np.zeros((len(rows) + 2, t), dtype=np.complex128)
    taps[: len(rows), support] = rows
    taps[len(rows)] = -taps[0]
    return taps


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
        assert g.tolist() == [[1], [1]]
        total = aperiodic_autocorrelation(g[0]) + aperiodic_autocorrelation(g[1])
        assert total.tolist() == [2]

    def test_length_four_exact_sequences(self):
        g = golay_pair(2)
        assert g.tolist() == [[1, 1, 1, -1], [1, 1, -1, 1]]
        # hand-computable lags via the independent oracle
        for lag in range(4):
            s = autocorr_oracle(g[0], lag) + autocorr_oracle(g[1], lag)
            assert s == (8 if lag == 0 else 0)

    def test_length_128_complementary(self):
        g = golay_pair(7)
        total = aperiodic_autocorrelation(g[0]) + aperiodic_autocorrelation(g[1])
        assert total[0] == 256
        assert np.all(total[1:] == 0)

    def test_complementarity_exact_integers(self):
        for m in range(9):
            g = golay_pair(m)
            total = aperiodic_autocorrelation(g[0]) + aperiodic_autocorrelation(g[1])
            assert total[0] == 2 * g.shape[1]
            assert int(np.abs(total[1:]).sum()) == 0

    def test_read_only_int64_chip_matrix(self):
        for m in (0, 3, 9):
            g = golay_pair(m)
            assert g.shape == (2, 2**m) and g.dtype == np.int64
            assert not g.flags.writeable and not g[0].flags.writeable

    def test_rejects_a_bad_length(self):
        for bad in (-1, 1.5):
            with pytest.raises(ValueError, match="length_log2"):
                golay_pair(bad)


class TestBuildSchedule:
    """The coded field schedule that :func:`coded_fields` builds."""

    def test_four_beam_field_weights_match_hand_formula(self):
        cfg = ArrayConfig(16)
        cb = dft_codebook(cfg)
        beams = cb.matrix[[1, 5, 9, 13]]
        chips = walsh_codes(2)
        fields = coded_fields(beams, chips)
        for t in range(4):
            manual = 0.5 * sum(chips[p, t] * beams[p] for p in range(4))
            assert np.allclose(fields[t], manual, atol=1e-15)

    def test_single_beam_schedule_is_constant(self):
        sv = steering_vector(ArrayConfig(8), 70.0)
        fields = coded_fields([sv], walsh_codes(0))
        assert len(fields) == 1
        assert np.allclose(fields[0], sv)

    def test_power_flat_across_fields(self):
        cfg = ArrayConfig(16)
        cb = dft_codebook(cfg)
        for k in (1, 2, 4, 8, 16):
            beams = cb.matrix[:: 16 // k]
            chips = walsh_codes(int(math.log2(k)) if k > 1 else 0)[:k]
            energies = np.sum(np.abs(coded_fields(beams, chips)) ** 2, axis=1)
            assert max(energies) - min(energies) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(orthogonal_subsets())
    def test_orthogonal_schedule_fields_have_unit_energy(self, books):
        _, subset = books
        for w in coded_fields(subset.matrix, walsh_codes_for(len(subset))):
            assert np.sum(np.abs(w) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_longer_codes_than_beams(self):
        cfg = ArrayConfig(8)
        cb = dft_codebook(cfg)
        chips = walsh_codes(2)[:2]  # first 2 rows of order 4
        assert len(coded_fields(cb.matrix[[0, 3]], chips)) == 4

    def test_non_orthogonal_beams_lose_power_flatness(self):
        cfg = ArrayConfig(16)
        beams = np.stack([steering_vector(cfg, 60.0), steering_vector(cfg, 61.0)])
        energies = np.sum(np.abs(coded_fields(beams, walsh_codes(1))) ** 2, axis=1)
        assert max(energies) - min(energies) > 0.5

    def test_validation(self):
        cfg = ArrayConfig(8)
        cb = dft_codebook(cfg)
        with pytest.raises(ValueError):
            coded_fields([], np.zeros((0, 1), dtype=np.int64))
        with pytest.raises(ValueError, match="2 chip rows for 1 beams"):
            coded_fields(cb.matrix[:1], walsh_codes(1))
        with pytest.raises(ValueError, match="orthogonal"):
            # 4 beams cannot be separated by 2-chip codes
            coded_fields(cb.matrix[:4], np.vstack([walsh_codes(1)] * 2))

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
        beam = steering_vector(ArrayConfig(4), 60.0)
        beams = np.stack([beam] * max(1, len(np.atleast_2d(chips))))
        with pytest.raises(ValueError, match=message):
            coded_fields(beams, chips)
        with pytest.raises(ValueError, match=message):
            decode_per_tap(np.zeros((4, 16)), g, chips)

    def test_accepts_any_orthogonal_sign_matrix(self):
        # Not Walsh rows, not starting with +1, length not a power of two.
        chips = np.array([[-1, 1], [1, 1]])
        beams = np.stack([steering_vector(ArrayConfig(4), a) for a in (60.0, 120.0)])
        fields = coded_fields(beams, chips)
        assert np.allclose(fields[0], (beams[1] - beams[0]) / math.sqrt(2))


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
    @given(orthogonal_subsets(), realizations())
    def test_noiseless_coded_decode_equals_the_gain_table(self, books, ch):
        # Per tap, the decoded field estimates are the beam-pair gains
        # scaled by T / sqrt(K).
        cb, subset = books
        k = len(subset)
        chips = walsh_codes_for(k)
        fields = coded_fields(subset.matrix, chips)
        est = cascade_gains(fields, cb.matrix, ch, cb.cfg, cb.cfg)
        decoded = walsh_decode(chip_matrix(chips), est) * math.sqrt(k) / len(fields)
        table = cascade_gains(subset.matrix, cb.matrix, ch, cb.cfg, cb.cfg)
        # Largest magnitude a unit-norm beam pair can see through these rays.
        bound = np.abs(ch.gains).sum() * cb.cfg.num_antennas
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
    def oracle(taps):
        guard = taps.shape[1] - 1
        return [np.mean(np.abs(encode_ce_field(h, CE_GOLAY, guard)) ** 2) for h in taps]

    @staticmethod
    def convolves(monkeypatch, taps):
        """Whether ce_field_powers convolves these tap rows, and its output."""
        calls = []
        convolved = beam_coding._convolved_field_powers
        monkeypatch.setattr(
            beam_coding, "_convolved_field_powers", lambda t: calls.append(t) or convolved(t)
        )
        got = ce_field_powers(taps)
        monkeypatch.undo()
        return bool(calls), got

    # As many examples as the Hypothesis profile asks for (see conftest.py).
    @settings(deadline=None)
    @given(ce_tap_rows())
    def test_equals_encode_ce_field_bit_for_bit(self, taps):
        assert ce_field_powers(taps).tolist() == self.oracle(taps)

    # Golay complementarity: the autocorrelations of a and b sum to 2L at
    # lag 0 and to 0 elsewhere, so the 2(L + T - 1) samples of [a * h | b * h]
    # hold 2L |h|^2 in all, on either kernel.  Rows whose power is under
    # 1e-300 are skipped with the all-zero rows: their squares underflow.
    @settings(deadline=None)
    @given(ce_tap_rows())
    def test_equals_the_golay_closed_form(self, taps):
        length = CE_GOLAY.shape[1]
        closed = length * np.sum(np.abs(taps) ** 2, axis=1) / (length + taps.shape[1] - 1)
        rows = closed >= 1e-300
        got = ce_field_powers(taps)[rows]
        assert np.allclose(got, closed[rows], rtol=1e-12, atol=0.0)

    @staticmethod
    def random_taps(rng, rows, t, support):
        taps = np.zeros((rows, t), dtype=np.complex128)
        taps[:, support] = rng.standard_normal((rows, len(support))) + 1j * rng.standard_normal(
            (rows, len(support))
        )
        return taps

    @pytest.mark.parametrize("t", [512, 600])
    def test_taps_as_long_as_the_sequence_or_longer(self, t, monkeypatch):
        # T == L and T > L, where np.convolve swaps its operands: always the
        # whole field.
        rng = np.random.default_rng(t)
        for support in ([0], [0, t - 1], range(t)):
            taps = self.random_taps(rng, 3, t, list(support))
            convolved, got = self.convolves(monkeypatch, taps)
            assert convolved
            assert got.tolist() == self.oracle(taps)

    # Each side of the 128-tap and 16-nonzero bounds, sparse and dense.
    SIZES = [
        (17, [0, 4, 9, 16]),
        (17, [0, 3, 7, 12, 16]),
        (17, [0, 1, 2, 3]),
        (17, list(range(17))),
        (128, [0, 127]),
        (128, np.linspace(0, 127, 16).round().astype(int).tolist()),
        (128, np.linspace(0, 127, 17).round().astype(int).tolist()),
        (129, [0, 128]),
        (129, np.linspace(0, 128, 16).round().astype(int).tolist()),
    ]

    def test_rows_across_blocks_and_both_layouts(self, monkeypatch):
        # Several row counts, each with an all-zero row.  The convolution
        # equals the oracle on every size, and ce_field_powers takes the
        # windows up to 128 taps with at most 16 of them nonzero.
        for t, support in self.SIZES:
            for rows in (1, 17, 37, 77):
                taps = self.random_taps(np.random.default_rng(rows), rows, t, support)
                taps[rows // 2] = 0.0
                want = self.oracle(taps)
                nonzero = np.count_nonzero(np.any(taps != 0, axis=0))
                convolved, got = self.convolves(monkeypatch, taps)
                assert convolved == (t > 128 or nonzero > 16)
                assert got.tolist() == want
                assert beam_coding._convolved_field_powers(taps).tolist() == want
                assert got[rows // 2] == 0.0

    @pytest.mark.parametrize("t, support", SIZES)
    def test_windowed_samples_equal_the_field_bit_for_bit(self, t, support):
        # Sample by sample, not only through the mean: a dot product that
        # rounds differently often leaves the mean as it was.  The window
        # kernel is checked past its bounds too.
        taps = self.random_taps(np.random.default_rng(len(support)), 80, t, support)
        windows, index = beam_coding._ce_frame(t, np.array(support))
        got = np.abs(beam_coding._frame_dots(taps, windows)[:, index])
        want = np.abs([encode_ce_field(h, CE_GOLAY, t - 1) for h in taps])
        assert np.array_equal(got, want)

    def test_windowed_kernel_calls_do_not_grow_with_rows(self, monkeypatch):
        # One stacked matmul for the windows and one per edge length, for
        # any number of rows; no per-row convolution.
        cases = [self.random_taps(np.random.default_rng(r), r, 17, [0, 4, 9, 16]) for r in (16, 160)]
        want = [self.oracle(taps) for taps in cases]
        calls = []
        for name in ("matmul", "convolve", "dot", "einsum"):
            kernel = getattr(np, name)
            counted = lambda *args, _kernel=kernel, _name=name, **kwargs: (
                calls.append(_name) or _kernel(*args, **kwargs)
            )
            monkeypatch.setattr(np, name, counted)
        got, counts = [], []
        for taps in cases:
            calls.clear()
            got.append(ce_field_powers(taps).tolist())
            counts.append(list(calls))
        monkeypatch.undo()
        assert got == want
        assert counts[0] == counts[1] == ["matmul"] * 17

    @pytest.mark.parametrize("t", [1, 2, 5, 17, 40])
    def test_edge_chips_equal_the_loop_reference(self, t):
        a = CE_GOLAY[0]
        want = [[[[*a[:n]], [*a[-n:]]]] for n in range(1, t)]
        got = beam_coding._edge_chips(t)
        assert [edges.shape for edges in got] == [(1, 2, 1, n) for n in range(1, t)]
        assert all(e.dtype == np.complex128 and not e.flags.writeable for e in got)
        assert [edges[:, :, 0].tolist() for edges in got] == want

    def test_layout_choice(self, monkeypatch):
        # Four nonzero taps of 17: at most 8 windows up to sign, and 16
        # edge dot products on each side.
        windows, index = beam_coding._ce_frame(17, np.array([0, 4, 9, 16]))
        assert windows.shape[1] == 17 and len(windows) <= 8
        assert len(index) == 2 * (512 + 16)
        assert set(index.tolist()) == set(range(2 * 16 + len(windows)))
        # The size rule: windows up to 128 taps and 16 nonzero ones.
        rng = np.random.default_rng(0)
        for t, nonzero, convolved in [
            (1, 1, False),
            (17, 6, False),
            (128, 16, False),
            (129, 1, True),
            (128, 17, True),
            (17, 17, True),
        ]:
            taps = self.random_taps(rng, 2, t, list(range(nonzero)))
            assert self.convolves(monkeypatch, taps)[0] == convolved
        # The windows take b's edges from a's: they agree up to sign for
        # every length up to 256, so the window path is right only while
        # its edges (shorter than _WINDOW_TAPS) stay within that.
        a, b = CE_GOLAY
        for n in range(1, 257):
            for edge in (slice(0, n), slice(512 - n, 512)):
                assert np.array_equal(a[edge], b[edge]) or np.array_equal(a[edge], -b[edge])
        assert beam_coding._WINDOW_TAPS - 1 <= 256
        assert CE_GOLAY.shape == (2, 512) and not CE_GOLAY.flags.writeable

    def test_shapes(self):
        assert ce_field_powers(np.zeros((0, 3))).shape == (0,)
        assert ce_field_powers(np.zeros((2, 3))).tolist() == [0.0, 0.0]
        for bad in (np.zeros(3), np.zeros((2, 0)), np.zeros((1, 2, 3))):
            with pytest.raises(ValueError):
                ce_field_powers(bad)


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
        field_weights = coded_fields(tx_cb.matrix, chips)
        field_taps = cascade_gains(field_weights, rx_cb.matrix, ch, tx_cb.cfg, rx_cb.cfg) / norm
        table = cascade_gains(tx_cb.matrix, rx_cb.matrix, ch, tx_cb.cfg, rx_cb.cfg) / norm
        for q in range(4):
            fields = [encode_ce_field(taps, g, guard=4) for taps in field_taps[:, :, q].T]
            decoded = decode_per_tap(np.array(fields), g, chips, num_taps=3)
            expected = table[:, :, q].T
            assert np.abs(decoded - expected).max() < 1e-9
