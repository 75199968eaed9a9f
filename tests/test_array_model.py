import cmath
import itertools
import math

import numpy as np
import pytest

from beamtrain.array_model import (
    ArrayConfig,
    WeightVector,
    are_orthogonal,
    array_factor_many,
    codebook_from_cosines,
    dft_codebook,
    project_uniform,
    quantize_phases,
    sidelobe_level,
    steering_vector,
    subarray_beam,
    superpose_beams,
)


def brute_inner(a, b):
    """Independent inner-product oracle: plain python summation."""
    return sum(x * y.conjugate() for x, y in zip(a, b))


class TestArrayConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArrayConfig(0)
        with pytest.raises(ValueError):
            ArrayConfig(4, spacing=-0.5)
        assert ArrayConfig(4).spacing == 0.5


class TestWeightVector:
    def test_energy(self):
        w = WeightVector(np.array([1.0, 1j, -1.0]))
        assert w.energy() == pytest.approx(3.0)
        assert len(w) == 3

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([]))
        with pytest.raises(ValueError):
            WeightVector(np.array([np.nan + 0j]))

    def test_immutable(self):
        w = WeightVector(np.ones(4, dtype=complex))
        with pytest.raises(ValueError):
            w.weights[0] = 0.0


class TestSteeringVector:
    def test_broadside_uniform(self):
        sv = steering_vector(ArrayConfig(4), 90.0)
        assert np.allclose(sv.entries, 0.5, atol=1e-12)

    def test_sixty_degrees_phases(self):
        sv = steering_vector(ArrayConfig(16), 60.0)
        assert np.allclose(np.abs(sv.entries), 0.25, atol=1e-12)
        for n in range(16):
            expected = cmath.exp(-1j * 2 * math.pi * n * 0.5 * 0.5) / 4.0
            assert sv.entries[n] == pytest.approx(expected, abs=1e-12)

    def test_unit_norm_summation_oracle(self):
        sv = steering_vector(ArrayConfig(16), 60.0)
        assert abs(brute_inner(sv.entries, sv.entries) - 1.0) < 1e-12

    def test_angle_validation(self):
        cfg = ArrayConfig(4)
        with pytest.raises(ValueError):
            steering_vector(cfg, float("nan"))
        with pytest.raises(ValueError):
            steering_vector(cfg, -5.0)
        # the endfire endpoints are valid directions
        for endfire in (0.0, 180.0):
            assert steering_vector(cfg, endfire).angle_deg == endfire


class TestArrayFactor:
    def test_coherent_peak_is_n(self):
        cfg = ArrayConfig(16)
        sv = steering_vector(cfg, 73.0)
        unnormalized = WeightVector(sv.entries * math.sqrt(16))
        (peak,) = array_factor_many(unnormalized, np.array([73.0]), cfg)
        assert abs(peak) == pytest.approx(16.0, abs=1e-9)

    def test_zero_weights(self):
        cfg = ArrayConfig(8)
        w = WeightVector(np.zeros(8) + 0j)
        assert np.all(array_factor_many(w, np.array([10.0, 90.0, 144.0]), cfg) == 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            array_factor_many(WeightVector(np.ones(4) + 0j), np.array([90.0]), ArrayConfig(8))

    def test_superposition_peaks_at_both_angles(self):
        # dense-grid scan oracle at 0.1 deg
        cfg = ArrayConfig(16)
        cb = dft_codebook(cfg)
        a1, a2 = cb.angles_deg[5], cb.angles_deg[10]
        w = superpose_beams([cb.vectors[5], cb.vectors[10]], [1, 1])
        grid = np.arange(0.1, 180.0, 0.1)
        power = np.abs(array_factor_many(w, grid, cfg)) ** 2
        is_max = (power[1:-1] >= power[:-2]) & (power[1:-1] >= power[2:])
        peaks = grid[1:-1][is_max & (power[1:-1] > 0.45 * power.max())]
        for target in (a1, a2):
            assert np.min(np.abs(peaks - target)) < 1.5

    def test_many_matches_scalar(self):
        cfg = ArrayConfig(8)
        w = WeightVector(np.exp(1j * np.linspace(0, 3, 8)))
        grid = np.array([12.5, 90.0, 170.0])
        batch = array_factor_many(w, grid, cfg)
        for angle, value in zip(grid, batch):
            scalar = sum(
                wn * cmath.exp(2j * math.pi * n * cfg.spacing * math.cos(math.radians(angle)))
                for n, wn in enumerate(w.weights)
            )
            assert value == pytest.approx(scalar, abs=1e-12)


class TestSuperposeBeams:
    def test_identity(self):
        cfg = ArrayConfig(8)
        sv = steering_vector(cfg, 40.0)
        w = superpose_beams([sv], [1])
        assert np.allclose(w.weights, sv.entries, atol=1e-15)

    def test_orthogonal_pair_energy_one_any_signs(self):
        cfg = ArrayConfig(16)
        cb = dft_codebook(cfg)
        for signs in itertools.product((1, -1), repeat=2):
            w = superpose_beams([cb.vectors[3], cb.vectors[9]], list(signs))
            assert abs(w.energy() - 1.0) < 1e-12

    def test_identical_beams_fluctuate_between_two_and_zero(self):
        sv = steering_vector(ArrayConfig(16), 77.0)
        same = superpose_beams([sv, sv], [1, 1])
        opposite = superpose_beams([sv, sv], [1, -1])
        assert same.energy() == pytest.approx(2.0, abs=1e-12)
        assert opposite.energy() == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        sv = steering_vector(ArrayConfig(4), 90.0)
        with pytest.raises(ValueError):
            superpose_beams([], [])
        with pytest.raises(ValueError):
            superpose_beams([sv], [2])
        with pytest.raises(ValueError):
            superpose_beams([sv], [1, -1])

    def test_power_flat_for_orthogonal_subsets(self):
        # any subset of a mutually orthogonal codebook, all sign patterns
        cfg = ArrayConfig(16)
        cb = dft_codebook(cfg)
        rng = np.random.default_rng(11)
        for size in (2, 3, 4, 6, 8):
            subset = [cb.vectors[i] for i in rng.choice(16, size=size, replace=False)]
            patterns = (
                itertools.product((1, -1), repeat=size)
                if size <= 4
                else (rng.choice([1, -1], size=size) for _ in range(40))
            )
            for signs in patterns:
                w = superpose_beams(subset, list(signs))
                assert abs(w.energy() - 1.0) < 1e-12


class TestOrthogonality:
    def test_self_not_orthogonal(self):
        sv = steering_vector(ArrayConfig(16), 75.0)
        assert not are_orthogonal(sv, sv)
        assert abs(brute_inner(sv.entries, sv.entries)) == pytest.approx(1.0, abs=1e-12)

    def test_dft_grid_pairs_orthogonal(self):
        cfg = ArrayConfig(16)
        vs = [
            steering_vector(cfg, math.degrees(math.acos(2.0 * k / 16.0)))
            for k in range(-8, 8)
        ]
        for i in range(16):
            for j in range(i + 1, 16):
                assert are_orthogonal(vs[i], vs[j])
                assert abs(brute_inner(vs[i].entries, vs[j].entries)) < 1e-12

    def test_neighbouring_degrees_not_orthogonal(self):
        cfg = ArrayConfig(16)
        a = steering_vector(cfg, 60.0)
        b = steering_vector(cfg, 61.0)
        assert not are_orthogonal(a, b)
        assert abs(brute_inner(a.entries, b.entries)) > 1e-3

    def test_validation(self):
        a = steering_vector(ArrayConfig(4), 90.0)
        b = steering_vector(ArrayConfig(8), 90.0)
        with pytest.raises(ValueError):
            are_orthogonal(a, b)
        with pytest.raises(ValueError):
            are_orthogonal(a, a, tol=0.0)


class TestDftCodebook:
    def test_four_antennas_grid(self):
        cb = dft_codebook(ArrayConfig(4))
        cosines = sorted(math.cos(math.radians(a)) for a in cb.angles_deg)
        assert np.allclose(cosines, [-1.0, -0.5, 0.0, 0.5], atol=1e-12)
        assert cb.is_orthogonal

    def test_sixteen_all_pairs(self):
        cb = dft_codebook(ArrayConfig(16))
        assert len(cb) == 16
        for i in range(16):
            for j in range(i + 1, 16):
                assert cb.ortho[i, j]
                assert abs(brute_inner(cb.vectors[i].entries, cb.vectors[j].entries)) < 1e-9

    def test_single_antenna(self):
        cb = dft_codebook(ArrayConfig(1))
        assert len(cb) == 1
        assert cb.angles_deg[0] == pytest.approx(90.0)
        assert cb.is_orthogonal

    def test_small_spacing_reports_achievable(self):
        # k/(N*spacing) stays within [-1, 1] only for k in -4..4: 9 beams
        with pytest.raises(ValueError, match="9 of 16"):
            dft_codebook(ArrayConfig(16, spacing=0.25))

    def test_angles_sorted_ascending(self):
        cb = dft_codebook(ArrayConfig(16))
        assert list(cb.angles_deg) == sorted(cb.angles_deg)

    def test_no_seventeenth_orthogonal_beam(self):
        # appending any further steering vector breaks mutual orthogonality
        cfg = ArrayConfig(16)
        cb = dft_codebook(cfg)
        for angle in np.arange(0.7, 180.0, 3.7):
            candidate = steering_vector(cfg, float(angle))
            inners = [
                abs(brute_inner(candidate.entries, v.entries)) for v in cb.vectors
            ]
            assert max(inners) > 1e-9

    def test_subset_and_matrix(self):
        cb = dft_codebook(ArrayConfig(8))
        sub = cb.subset([1, 4, 6])
        assert len(sub) == 3
        assert sub.is_orthogonal
        assert sub.matrix().shape == (3, 8)


class TestQuantizePhases:
    def test_one_bit_rounds_small_phase_to_zero(self):
        w = WeightVector(np.array([cmath.exp(0.1j)]))
        q = quantize_phases(w, 1)
        assert np.angle(q.weights[0]) == pytest.approx(0.0, abs=1e-12)

    def test_midpoint_ties_round_down(self):
        # bits=2: levels every pi/2; pi/4 is exactly between 0 and pi/2
        w = WeightVector(np.array([cmath.exp(1j * math.pi / 4)]))
        q = quantize_phases(w, 2)
        assert np.angle(q.weights[0]) == pytest.approx(0.0, abs=1e-12)
        w = WeightVector(np.array([cmath.exp(-1j * math.pi / 4)]))
        q = quantize_phases(w, 2)
        assert np.angle(q.weights[0]) == pytest.approx(-math.pi / 2, abs=1e-12)

    def test_magnitude_preserved(self):
        rng = np.random.default_rng(3)
        w = WeightVector(rng.standard_normal(32) + 1j * rng.standard_normal(32))
        q = quantize_phases(w, 3)
        assert np.allclose(np.abs(q.weights), np.abs(w.weights), atol=1e-12)

    def test_error_bound_and_monotonicity(self):
        rng = np.random.default_rng(4)
        w = WeightVector(np.exp(1j * rng.uniform(-math.pi, math.pi, 256)))

        def max_err(bits):
            q = quantize_phases(w, bits)
            d = np.angle(q.weights * np.conj(w.weights))
            return np.max(np.abs(d))

        errors = [max_err(b) for b in (1, 2, 3, 4, 5, 6)]
        for b, e in zip((1, 2, 3, 4, 5, 6), errors):
            assert e <= math.pi / 2**b + 1e-12
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errors, errors[1:]))

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            quantize_phases(WeightVector(np.ones(2) + 0j), 0)

    def test_pointing_direction_survives_four_bits(self):
        # coded multi-beam weights keep their argmax direction
        cfg = ArrayConfig(16)
        cb = dft_codebook(cfg)
        w = superpose_beams([cb.vectors[i] for i in (2, 6, 10, 14)], [1, -1, 1, -1])
        grid = np.arange(0.05, 180.0, 0.05)
        ref = np.abs(array_factor_many(w, grid, cfg))
        quant = np.abs(array_factor_many(quantize_phases(w, 4), grid, cfg))
        assert abs(grid[np.argmax(ref)] - grid[np.argmax(quant)]) <= 0.05 + 1e-9

    def test_every_lobe_survives_four_bits_in_full_coded_schedule(self):
        # Fields of a 16-beam coded schedule can have near-tied lobes, so the
        # argmax may hop between them; the distortion statement that holds is
        # per lobe: every strong peak stays put to within a degree.
        from beamtrain.beam_coding import coded_fields, walsh_codes

        cfg = ArrayConfig(16)
        cb = dft_codebook(cfg)
        grid = np.arange(0.1, 180.0, 0.1)

        def strong_peaks(weights):
            p = np.abs(array_factor_many(weights, grid, cfg)) ** 2
            p = p / p.max()
            inner = (p[1:-1] >= p[:-2]) & (p[1:-1] >= p[2:])
            return grid[1:-1][inner & (p[1:-1] > 10 ** (-3 / 10))]

        for w in coded_fields(cb.vectors, walsh_codes(4)):
            ref = strong_peaks(w)
            quant = strong_peaks(quantize_phases(w, 4))
            for peak in ref:
                assert np.min(np.abs(quant - peak)) <= 1.0


class TestProjectUniform:
    def test_idempotent_and_uniform_unchanged(self):
        sv = steering_vector(ArrayConfig(16), 48.0)
        w = sv.as_weights()
        p1 = project_uniform(w)
        assert np.allclose(p1.weights, w.weights, atol=1e-12)
        p2 = project_uniform(p1)
        assert np.allclose(p2.weights, p1.weights, atol=1e-15)

    def test_zero_entries_get_phase_zero(self):
        w = WeightVector(np.array([0.0 + 0j, 1j, -2.0]))
        p = project_uniform(w)
        expected = np.array([1.0, 1j, -1.0]) / math.sqrt(3)
        assert np.allclose(p.weights, expected, atol=1e-12)

    def test_projection_preserves_phases(self):
        rng = np.random.default_rng(8)
        w = WeightVector(rng.standard_normal(16) + 1j * rng.standard_normal(16))
        p = project_uniform(w)
        assert np.allclose(np.angle(p.weights), np.angle(w.weights), atol=1e-12)
        assert np.allclose(np.abs(p.weights), 0.25, atol=1e-12)


class TestSidelobeLevel:
    def test_single_beam_sixteen_antennas(self):
        cfg = ArrayConfig(16)
        level = sidelobe_level(steering_vector(cfg, 90.0).as_weights(), cfg)
        assert level == pytest.approx(-13.2, abs=0.3)

    def test_two_element_pattern_has_no_sidelobe(self):
        cfg = ArrayConfig(2)
        assert sidelobe_level(steering_vector(cfg, 90.0).as_weights(), cfg) is None

    def test_two_beam_phase_only_projection(self):
        # the level depends on where the phase-only square-wave profile gets
        # sampled; this orthogonal pair shows the nominal third-harmonic level
        cfg = ArrayConfig(16)
        v1 = steering_vector(cfg, math.degrees(math.acos(0.375)))
        v2 = steering_vector(cfg, math.degrees(math.acos(0.125)))
        assert are_orthogonal(v1, v2)
        w = project_uniform(superpose_beams([v1, v2], [1, 1]))
        assert sidelobe_level(w, cfg) == pytest.approx(-9.0, abs=1.0)

    def test_multi_beam_raises_sidelobes_over_single(self):
        cfg = ArrayConfig(16)
        single = sidelobe_level(steering_vector(cfg, 90.0).as_weights(), cfg)
        v1 = steering_vector(cfg, math.degrees(math.acos(0.375)))
        v2 = steering_vector(cfg, math.degrees(math.acos(0.125)))
        double = sidelobe_level(project_uniform(superpose_beams([v1, v2], [1, 1])), cfg)
        assert double > single

    def test_all_zero_rejected(self):
        cfg = ArrayConfig(4)
        with pytest.raises(ValueError):
            sidelobe_level(WeightVector(np.zeros(4) + 0j), cfg)


class TestSubarrayBeam:
    def test_unit_energy_and_support(self):
        cfg = ArrayConfig(16)
        w = subarray_beam(cfg, 0.25, 4)
        assert w.energy() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w.weights[4:] == 0)

    def test_points_where_asked(self):
        cfg = ArrayConfig(16)
        w = subarray_beam(cfg, 0.0, 4)
        grid = np.arange(0.1, 180.0, 0.1)
        peak = grid[np.argmax(np.abs(array_factor_many(w, grid, cfg)))]
        assert peak == pytest.approx(90.0, abs=0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            subarray_beam(ArrayConfig(4), 0.0, 5)


class TestCodebookFromCosines:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            codebook_from_cosines(ArrayConfig(4), [1.5])

    def test_orthogonality_matrix_symmetric(self):
        cb = codebook_from_cosines(ArrayConfig(4), [0.75, 0.25, -0.25, -0.75])
        assert cb.is_orthogonal
        assert np.array_equal(cb.ortho, cb.ortho.T)
        assert not cb.ortho.diagonal().any()
