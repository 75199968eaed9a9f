import cmath
import dataclasses
import math
import pickle
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from beamtrain import protocols
from beamtrain.array_model import (
    ArrayConfig,
    array_factor_many,
    codebook_from_cosines,
    dft_codebook,
)
from beamtrain.channel import (
    TOY_BEAM_ANGLES_DEG,
    TOY_LOS_PAIR,
    TOY_NLOS_PAIR,
    ChannelConfig,
    ChannelRealization,
    LinkBudget,
    NormalStream,
    _fold_angle,
    cascade_gains,
    derive_seed,
    draw_cluster_loss,
    sample_channel,
    toy_channel,
    toy_codebooks,
)
from beamtrain.protocols import ProtocolConfig, Scheme
from oracles import add_noise


def rays_of(ch):
    """The realization's rays as (aod, aoa, gain, tap) tuples of Python
    scalars, in ray order."""
    return list(zip(*(a.tolist() for a in (ch.aods_deg, ch.aoas_deg, ch.gains, ch.taps))))


def from_rays(rays):
    """A realization from (aod, aoa, gain, tap) tuples, one per ray."""
    return ChannelRealization(*(list(zip(*rays)) or [()] * 4))


def session(ch, tx_cb, rx_cb, seed=0, scheme=Scheme.EXHAUSTIVE_PBP, **kwargs):
    """The realization's training session of a fresh config."""
    cfg = ProtocolConfig(tx_codebook=tx_cb, rx_codebook=rx_cb, scheme=scheme, **kwargs)
    return protocols._session(cfg, ch, seed)


def brute_force_gain(tx_w, rx_w, ch, tx_cfg, rx_cfg):
    """Ray-by-ray oracle with explicit python loops."""
    taps = [0j] * ch.num_taps
    for aod, aoa, gain, tap in rays_of(ch):
        tx = sum(
            w * cmath.exp(2j * math.pi * n * tx_cfg.spacing * math.cos(math.radians(aod)))
            for n, w in enumerate(tx_w)
        )
        rx = sum(
            w * cmath.exp(2j * math.pi * n * rx_cfg.spacing * math.cos(math.radians(aoa)))
            for n, w in enumerate(rx_w)
        )
        taps[tap] += gain * tx * rx
    return np.array(taps)


class TestToyChannel:
    def test_bounds(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                toy_channel(bad)

    def test_structure(self):
        ch = toy_channel(0.5)
        assert len(ch.gains) == 2
        assert ch.gains.tolist() == [1.0, 0.5] and ch.taps[0] == 0
        assert ch.aods_deg[0] == TOY_BEAM_ANGLES_DEG[TOY_LOS_PAIR[0]]
        assert ch.aoas_deg[1] == TOY_BEAM_ANGLES_DEG[TOY_NLOS_PAIR[1]]

    def test_exhaustive_search_finds_los_pair(self):
        tx_cb, rx_cb = toy_codebooks()
        ch = toy_channel(0.5)
        table = cascade_gains(tx_cb.matrix, rx_cb.matrix, ch, tx_cb.cfg, rx_cb.cfg)
        power = np.sum(np.abs(table) ** 2, axis=0)
        assert power.shape == (4, 4)
        best = np.unravel_index(np.argmax(power), power.shape)
        assert tuple(best) == TOY_LOS_PAIR

    def test_vanishing_nlos_leaves_one_path(self):
        tx_cb, rx_cb = toy_codebooks()
        ch = toy_channel(1e-9)
        table = cascade_gains(tx_cb.matrix, rx_cb.matrix, ch, tx_cb.cfg, rx_cb.cfg)
        power = np.sum(np.abs(table) ** 2, axis=0)
        strong = power > 1e-12
        assert strong.sum() == 1
        assert strong[TOY_LOS_PAIR]

    def test_composite_receive_trace_matches_half_a_one_structure(self):
        # transmit sweep into an all-beams receiver observes 0.5*[a 1 0 0]
        from beamtrain.array_model import superpose_beams

        a = 0.5
        tx_cb, rx_cb = toy_codebooks()
        ch = toy_channel(a)
        composite = superpose_beams(rx_cb.matrix, [1, 1, 1, 1])
        norm = math.sqrt(4 * 4)
        taps = cascade_gains(tx_cb.matrix, composite[None], ch, tx_cb.cfg, rx_cb.cfg)
        observed = taps[0, :, 0] / norm
        expected = [0.5 * a, 0.5, 0.0, 0.0]
        assert np.allclose(observed, expected, atol=1e-9)

    def test_excess_tap(self):
        ch = toy_channel(0.3, nlos_excess_tap=2)
        assert ch.num_taps == 3
        assert ch.taps[1] == 2


def sample_channel_drawing_every_tap(cfg, seed):
    """sample_channel with the generic uniform(0, b) and normal(0, s) draws,
    and one integers(0, spread + 1) draw per ray, even at a spread of 0."""
    rng = np.random.default_rng(seed)
    ref = cfg.los_amplitude()
    rays = []
    if cfg.los:
        aod = rng.uniform(0.0, 180.0)
        aoa = rng.uniform(0.0, 180.0)
        rays.append((aod, aoa, complex(ref), 0))
    for _ in range(cfg.num_clusters):
        center_aod = rng.uniform(0.0, 180.0)
        center_aoa = rng.uniform(0.0, 180.0)
        loss_db = draw_cluster_loss(cfg, rng)
        cluster_tap = int(rng.integers(0, cfg.max_excess_tap + 1))
        amp = ref * 10.0 ** (loss_db / 20.0) / math.sqrt(cfg.rays_per_cluster)
        for _ in range(cfg.rays_per_cluster):
            aod = _fold_angle(center_aod + rng.normal(0.0, cfg.intra_cluster_angle_std_deg))
            aoa = _fold_angle(center_aoa + rng.normal(0.0, cfg.intra_cluster_angle_std_deg))
            phase = rng.uniform(0.0, 2.0 * math.pi)
            tap = cluster_tap + int(rng.integers(0, cfg.intra_cluster_tap_spread + 1))
            rays.append((aod, aoa, amp * np.exp(1j * phase), tap))
    return from_rays(rays)


def ray_bits(ch):
    """The dtype, shape and bytes of each of the four ray arrays."""
    arrays = (ch.aods_deg, ch.aoas_deg, ch.gains, ch.taps)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


class TestSampleChannel:
    @pytest.mark.parametrize(
        "cfg",
        [
            ChannelConfig(),
            ChannelConfig(los=False),
            ChannelConfig(intra_cluster_tap_spread=4, num_clusters=7, rays_per_cluster=5),
            ChannelConfig(cluster_loss_truncation_db=-9.0),
        ],
        ids=["los", "nlos", "spread4", "truncated"],
    )
    def test_rays_equal_uniform_and_normal_draws_bit_for_bit(self, cfg):
        # b * random() and s * standard_normal() are uniform(0, b) and
        # normal(0, s) without the zero offset
        for seed in range(200):
            want = sample_channel_drawing_every_tap(cfg, derive_seed(31, seed))
            assert ray_bits(sample_channel(cfg, derive_seed(31, seed))) == ray_bits(want)

    def test_deterministic_under_seed(self):
        cfg = ChannelConfig()
        a = sample_channel(cfg, 1234)
        b = sample_channel(cfg, 1234)
        assert ray_bits(a) == ray_bits(b)
        c = sample_channel(cfg, 1235)
        assert ray_bits(a) != ray_bits(c)

    def test_ray_counts_and_los_flag(self):
        cfg = ChannelConfig(num_clusters=4, rays_per_cluster=3, los=True)
        ch = sample_channel(cfg, 7)
        assert len(ch.gains) == 1 + 12
        # The LOS ray comes first, at tap 0 with phase 0.
        assert ch.gains[0] == cfg.los_amplitude() and ch.taps[0] == 0
        nlos = sample_channel(ChannelConfig(los=False), 7)
        assert len(nlos.gains) == 12
        assert not np.any(nlos.gains == cfg.los_amplitude())

    def test_no_ray_beats_los_reference(self):
        cfg = ChannelConfig(los=False)
        ref = cfg.los_amplitude()
        for seed in range(50):
            ch = sample_channel(cfg, seed)
            assert np.all(np.abs(ch.gains) <= ref)

    def test_angles_folded_into_range(self):
        cfg = ChannelConfig(num_clusters=8, rays_per_cluster=3)
        for seed in range(30):
            ch = sample_channel(cfg, seed)
            for angles in (ch.aods_deg, ch.aoas_deg):
                assert np.all((0.0 <= angles) & (angles <= 180.0))

    def test_cluster_loss_truncated_mean_matches_analytic(self):
        # oracle: mean of a Gaussian truncated above at c is
        # mu - sigma * phi(alpha) / Phi(alpha) with alpha = (c - mu) / sigma
        cfg = ChannelConfig()
        mu, sigma, cap = -10.0, 4.0, -2.0
        alpha = (cap - mu) / sigma
        phi = math.exp(-0.5 * alpha * alpha) / math.sqrt(2 * math.pi)
        big_phi = 0.5 * (1 + math.erf(alpha / math.sqrt(2)))
        analytic = mu - sigma * phi / big_phi
        rng = np.random.default_rng(99)
        draws = [draw_cluster_loss(cfg, rng) for _ in range(10_000)]
        assert max(draws) <= cap
        assert np.mean(draws) == pytest.approx(analytic, abs=0.5)

    def test_truncation_never_violated(self):
        cfg = ChannelConfig()
        rng = np.random.default_rng(12345)
        cap = cfg.cluster_loss_truncation_db
        for _ in range(1_000_000):
            if draw_cluster_loss(cfg, rng) > cap:
                pytest.fail("cluster loss above the truncation cap")

    def test_tap_range(self):
        cfg = ChannelConfig(max_excess_tap=4, intra_cluster_tap_spread=2, los=False)
        for seed in range(40):
            taps = sample_channel(cfg, seed).taps
            assert np.all((0 <= taps) & (taps <= 6))

    @pytest.mark.parametrize("spread", [0, 2])
    @pytest.mark.parametrize("los", [True, False])
    def test_rays_equal_one_tap_draw_per_ray(self, spread, los):
        # A spread of 0 draws no tap offset; integers(0, 1) takes nothing
        # from the stream, so the rays equal those of a sampler that draws
        # one for every ray.
        cfg = ChannelConfig(intra_cluster_tap_spread=spread, los=los)
        for seed in (0, 1, 7, 123, 2**40 + 5):
            want = sample_channel_drawing_every_tap(cfg, seed)
            assert ray_bits(sample_channel(cfg, seed)) == ray_bits(want)
        assert any(len(set(sample_channel(cfg, s).taps.tolist())) > 1 for s in range(5))


def pair_taps(tx_w, rx_w, ch, tx_cfg, rx_cfg):
    """The cascade's per-tap gains for one pair of weight vectors."""
    return cascade_gains(tx_w[None], rx_w[None], ch, tx_cfg, rx_cfg)[:, 0, 0]


class TestEndToEndGain:
    def test_toy_los_pair_untouched_by_nlos_ray(self):
        tx_cb, rx_cb = toy_codebooks()
        ch = toy_channel(0.5)
        tx_w = tx_cb.matrix[TOY_LOS_PAIR[0]]
        rx_w = rx_cb.matrix[TOY_LOS_PAIR[1]]
        taps = pair_taps(tx_w, rx_w, ch, tx_cb.cfg, rx_cb.cfg)
        # aligned ray: both unit-norm array factors peak at sqrt(4)
        assert abs(taps[0]) == pytest.approx(4.0, abs=1e-9)
        only_nlos = from_rays(rays_of(ch)[1:])
        leak = pair_taps(tx_w, rx_w, only_nlos, tx_cb.cfg, rx_cb.cfg)
        assert abs(leak[0]) < 1e-12

    def test_zero_weights_zero_gain(self):
        ch = toy_channel(0.5)
        cfg = ArrayConfig(4)
        assert np.all(pair_taps(np.zeros(4) + 0j, np.ones(4) + 0j, ch, cfg, cfg) == 0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        tx_cfg, rx_cfg = ArrayConfig(8), ArrayConfig(4)
        rays = [
            (
                float(rng.uniform(0, 180)),
                float(rng.uniform(0, 180)),
                complex(rng.standard_normal(), rng.standard_normal()),
                int(rng.integers(0, 4)),
            )
            for _ in range(9)
        ]
        ch = from_rays(rays)
        tx_w = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        rx_w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = pair_taps(tx_w, rx_w, ch, tx_cfg, rx_cfg)
        want = brute_force_gain(tx_w, rx_w, ch, tx_cfg, rx_cfg)
        assert np.allclose(got, want, atol=1e-9)

    def test_reciprocity(self):
        rng = np.random.default_rng(17)
        cfg = ArrayConfig(8)
        rays = [
            (
                float(rng.uniform(0, 180)),
                float(rng.uniform(0, 180)),
                complex(rng.standard_normal(), rng.standard_normal()),
                int(rng.integers(0, 3)),
            )
            for _ in range(6)
        ]
        ch = from_rays(rays)
        swapped = ChannelRealization(ch.aoas_deg, ch.aods_deg, ch.gains, ch.taps)
        tx_w = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        rx_w = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        forward = pair_taps(tx_w, rx_w, ch, cfg, cfg)
        reverse = pair_taps(rx_w, tx_w, swapped, cfg, cfg)
        assert np.allclose(forward, reverse, atol=1e-12)

    def test_empty_channel(self):
        ch = from_rays([])
        cfg = ArrayConfig(2)
        out = pair_taps(np.ones(2) + 0j, np.ones(2) + 0j, ch, cfg, cfg)
        assert out.shape == (1,)
        assert np.all(out == 0)


_unit = st.floats(-1.0, 1.0)
_complex = st.builds(complex, _unit, _unit)


def _weight_matrix(rows: int, antennas: int):
    return st.lists(
        st.lists(_complex, min_size=antennas, max_size=antennas), min_size=rows, max_size=rows
    ).map(lambda m: np.array(m, dtype=np.complex128))


@st.composite
def realizations(draw, gains, max_tap, max_rays):
    """A realization of up to ``max_rays`` rays: angles in [0, 180], gains
    from ``gains`` and taps in [0, max_tap]."""
    n = draw(st.integers(0, max_rays))
    angles = hnp.arrays(float, n, elements=st.floats(0.0, 180.0))
    return ChannelRealization(
        aods_deg=draw(angles),
        aoas_deg=draw(angles),
        gains=draw(hnp.arrays(np.complex128, n, elements=gains)),
        taps=draw(hnp.arrays(np.intp, n, elements=st.integers(0, max_tap))),
    )


@st.composite
def cascade_inputs(draw):
    n_tx, n_rx = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    tx = draw(_weight_matrix(draw(st.integers(1, 4)), n_tx))
    rx = draw(_weight_matrix(draw(st.integers(1, 3)), n_rx))
    ch = draw(realizations(_complex, max_tap=5, max_rays=8))
    spacing = draw(st.sampled_from([0.25, 0.5, 0.7]))
    cfgs = ArrayConfig(n_tx, spacing), ArrayConfig(n_rx, spacing)
    return tx, rx, ch, cfgs


# Signed zeros, so that terms of both signs of zero reach the scatter.
_signed = st.one_of(st.sampled_from([0.0, -0.0]), _unit)
_signed_complex = st.builds(complex, _signed, _signed)


def _as_view(w: np.ndarray, layout: str) -> np.ndarray:
    """``w`` as a matrix of the given layout: its own contiguous data, every
    other row of a larger array, a read-only view, a row of a larger
    matrix raised to (1, antennas), or Fortran-ordered."""
    if layout == "strided":
        big = np.zeros((2 * len(w), w.shape[1]), dtype=np.complex128)
        big[::2] = w
        return big[::2]
    if layout == "read-only view":
        view = w[:]
        view.setflags(write=False)
        return view
    if layout == "raised row":
        # The shape of a composite beam and of _tap_rows' receive weights.
        return np.vstack([w[0], w[0]])[1][None, :]
    if layout == "fortran":
        return np.asfortranarray(w)
    return w


_LAYOUTS = st.sampled_from(["own", "strided", "read-only view", "raised row", "fortran"])
# One row as often as any other count: F = 1 is the shape of _tap_rows and
# of a coded feedback stage's best beam, G = 1 of a composite receiver.
_ROWS = st.one_of(st.just(1), st.integers(1, 16))


@st.composite
def scatter_inputs(draw):
    """Weights of 1 to 16 rows on small arrays, in any layout, and up to 20
    rays on at most four taps, so that many rays share a tap."""
    n_tx, n_rx = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    f, g = draw(_ROWS), draw(_ROWS)
    tx = draw(hnp.arrays(np.complex128, (f, n_tx), elements=_signed_complex))
    rx = draw(hnp.arrays(np.complex128, (g, n_rx), elements=_signed_complex))
    tx, rx = _as_view(tx, draw(_LAYOUTS)), _as_view(rx, draw(_LAYOUTS))
    ch = draw(realizations(_signed_complex, max_tap=3, max_rays=20))
    return tx, rx, ch, ArrayConfig(n_tx), ArrayConfig(n_rx)


class TestCascadeGains:
    @settings(max_examples=60, deadline=None)
    @given(cascade_inputs())
    def test_matches_naive_sum_and_per_pair_array_factors(self, inputs):
        tx, rx, ch, (tx_cfg, rx_cfg) = inputs
        got = cascade_gains(tx, rx, ch, tx_cfg, rx_cfg)
        assert got.shape == (ch.num_taps, len(tx), len(rx))
        for f, tx_w in enumerate(tx):
            for g, rx_w in enumerate(rx):
                naive = brute_force_gain(tx_w, rx_w, ch, tx_cfg, rx_cfg)
                # Largest magnitude any tap can reach, the base of the relative error.
                bound = np.abs(ch.gains).sum() * np.abs(tx_w).sum() * np.abs(rx_w).sum()
                np.testing.assert_allclose(got[:, f, g], naive, rtol=0, atol=1e-12 * bound)
                per_pair = np.zeros(ch.num_taps, dtype=np.complex128)
                if len(ch.gains):
                    contributions = (
                        ch.gains
                        * array_factor_many(tx_w, ch.aods_deg, tx_cfg)
                        * array_factor_many(rx_w, ch.aoas_deg, rx_cfg)
                    )
                    for tap, c in zip(ch.taps, contributions):
                        per_pair[tap] += c
                assert np.array_equal(got[:, f, g], per_pair)

    # No max_examples of its own: the ci profile runs it on 2,000 examples
    # (tests/conftest.py), because its bit-exactness rests on the cascade
    # adding each ray's terms into its tap in ray order, from +0.0.
    @settings(deadline=None)
    @given(scatter_inputs())
    @example((np.ones((1, 2)), np.ones((3, 1)), from_rays([]), ArrayConfig(2), ArrayConfig(1)))
    @example(
        (
            np.array([[0.5 - 0.25j, -1j, 0.75]]),
            np.array([[1.0, -0.5j], [-0.0, 0.25 + 1j]]).T[:1],
            from_rays([(30.0, 95.0, 0.5j, 0), (131.0, 12.5, -0.75 + 0.5j, 2), (60.0, 60.0, 1, 2)]),
            ArrayConfig(3),
            ArrayConfig(2),
        )
    )
    @example(
        (
            np.eye(3, dtype=np.complex128)[::2],
            np.array([[1.0, 1j, -1.0]])[:, ::-1],
            from_rays([(10.0, 170.0, -0.5, 1), (90.0, 45.0, 1j, 0), (75.0, 80.0, -0.0j, 1)]),
            ArrayConfig(3),
            ArrayConfig(3),
        )
    )
    def test_scatter_equals_a_ray_order_loop_bit_for_bit(self, inputs):
        tx, rx, ch, tx_cfg, rx_cfg = inputs
        got = cascade_gains(tx, rx, ch, tx_cfg, rx_cfg)
        # Summed from +0.0, so no entry is -0.0, which the training stages'
        # scaling by a reciprocal relies on.
        parts = got.view(np.float64)
        assert not np.any(np.signbit(parts) & (parts == 0.0))
        want = np.zeros((ch.num_taps, len(tx), len(rx)), dtype=np.complex128)
        if len(ch.gains):
            # The terms from full contiguous factors, each response from a
            # contiguous copy of its weights (array_factor_many rounds a
            # strided row differently).
            shape = (len(ch.gains), len(tx), len(rx))
            tx_rows, rx_rows = np.ascontiguousarray(tx), np.ascontiguousarray(rx)
            tx_resp = np.stack([array_factor_many(w, ch.aods_deg, tx_cfg) for w in tx_rows], axis=1)
            rx_resp = np.stack([array_factor_many(w, ch.aoas_deg, rx_cfg) for w in rx_rows], axis=1)
            factors = (ch.gains[:, None, None], tx_resp[:, :, None], rx_resp[:, None, :])
            gains, tx_f, rx_f = (np.broadcast_to(x, shape).copy() for x in factors)
            term = gains * tx_f * rx_f
            for r, t in enumerate(ch.taps):
                want[t] += term[r]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_rejects_weights_of_the_wrong_length(self):
        ch = toy_channel(0.5)
        with pytest.raises(ValueError, match="antennas"):
            cascade_gains(np.ones((2, 3)), np.ones((1, 4)), ch, ArrayConfig(4), ArrayConfig(4))


class TestChannelGeometry:
    def test_arrays_follow_the_rays(self):
        rays = [(60.0, 120.0, 1.0, 0), (30.5, 40.0, 0.5 - 0.25j, 3.0)]
        ch = from_rays(rays)
        assert rays_of(ch) == [(60.0, 120.0, 1 + 0j, 0), (30.5, 40.0, 0.5 - 0.25j, 3)]
        dtypes = [a.dtype for a in (ch.aods_deg, ch.aoas_deg, ch.gains, ch.taps)]
        assert dtypes == [np.float64, np.float64, np.complex128, np.intp]
        assert ch.num_taps == 4
        assert from_rays([]).num_taps == 1
        ch = sample_channel(ChannelConfig(intra_cluster_tap_spread=2), 31)
        assert ch.num_taps == ch.taps.max() + 1

    def test_derived_arrays_are_read_only(self):
        ch = toy_channel(0.5, nlos_excess_tap=2)
        for arr in (ch.aods_deg, ch.aoas_deg, ch.gains, ch.taps):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_steering_matrix_once_per_end_and_array(self):
        # a session steers each end through that end's array, once; a
        # session with transforms reads the matrices of the one without
        ch = sample_channel(ChannelConfig(), 32)
        half = dft_codebook(ArrayConfig(8, 0.5))
        # orthogonal beams on the 8-antenna quarter-wavelength grid
        quarter = codebook_from_cosines(ArrayConfig(8, 0.25), (0.5, 0.0, -0.5))
        for tx_cb, rx_cb in ((half, quarter), (quarter, half), (half, half)):
            s = session(ch, tx_cb, rx_cb)
            assert session(ch, tx_cb, rx_cb).steering is s.steering
            assert session(ch, tx_cb, rx_cb, quantize_bits=3).steering is s.steering
            assert s.steering[0] is not s.steering[1]
            for steering, cb, angles in zip(s.steering, (tx_cb, rx_cb), (ch.aods_deg, ch.aoas_deg)):
                assert not steering.flags.writeable
                n = np.arange(cb.cfg.num_antennas)[:, None]
                want = np.exp(2j * np.pi * cb.cfg.spacing * n * np.cos(np.radians(angles)))
                np.testing.assert_allclose(steering, want, rtol=0, atol=1e-12)
        wide = dft_codebook(ArrayConfig(16))
        tx_steering, rx_steering = session(ch, wide, half).steering
        assert tx_steering.shape == (16, len(ch.gains)) and rx_steering.shape == (8, len(ch.gains))

    def test_replace_derives_its_own_geometry(self):
        ch = sample_channel(ChannelConfig(), 33)
        cb = dft_codebook(ArrayConfig(16))
        s = session(ch, cb, cb)
        fresh = dataclasses.replace(ch)
        assert ray_bits(fresh) == ray_bits(ch)
        own = session(fresh, cb, cb)
        assert own is not s and session(ch, cb, cb) is s
        # a used realization still pickles, sessions and all
        assert ray_bits(pickle.loads(pickle.dumps(ch))) == ray_bits(ch)
        for mine, theirs in zip(own.steering, s.steering):
            assert mine is not theirs and np.array_equal(mine, theirs)


class TestPairGainTable:
    def test_matches_per_pair_calls(self):
        cfg = ChannelConfig(num_clusters=2, los=True)
        ch = sample_channel(cfg, 5)
        cb = dft_codebook(ArrayConfig(4))
        table = cascade_gains(cb.matrix, cb.matrix, ch, cb.cfg, cb.cfg)
        for p in range(4):
            for q in range(4):
                tx_w, rx_w = cb.matrix[p], cb.matrix[q]
                direct = pair_taps(tx_w, rx_w, ch, cb.cfg, cb.cfg)
                assert np.allclose(table[:, p, q], direct, atol=1e-10)


class TestPathLoss:
    def test_doubling_distance_costs_six_db(self):
        near = ChannelConfig(distance_m=3.0)
        far = ChannelConfig(distance_m=6.0)
        drop = 20 * math.log10(near.los_amplitude() / far.los_amplitude())
        assert drop == pytest.approx(6.02059991, abs=1e-6)

    def test_exponent_scaling(self):
        cfg = ChannelConfig(distance_m=10.0, path_loss_exponent=3.0)
        ref = ChannelConfig(distance_m=1.0, path_loss_exponent=3.0)
        drop = 20 * math.log10(ref.los_amplitude() / cfg.los_amplitude())
        assert drop == pytest.approx(30.0, abs=1e-9)


class TestLinkBudget:
    def test_default_noise_power(self):
        budget = LinkBudget()
        assert budget.noise_power_dbm == pytest.approx(-68.99, abs=0.01)

    def test_override(self):
        budget = LinkBudget(noise_override_dbm=-math.inf)
        assert budget.noise_to_signal == 0.0


class TestAddNoise:
    def test_zero_noise_is_identity(self):
        budget = LinkBudget(noise_override_dbm=-math.inf)
        samples = np.array([1 + 2j, -3j, 0.5])
        out = add_noise(samples, budget, seed=1)
        assert np.array_equal(out, samples)

    def test_noise_power_within_one_percent(self):
        budget = LinkBudget(tx_power_dbm=0.0, noise_override_dbm=-10.0)
        samples = np.zeros(1_000_000, dtype=complex)
        out = add_noise(samples, budget, seed=2)
        measured = np.mean(np.abs(out) ** 2)
        assert measured == pytest.approx(0.1, rel=0.01)

    def test_deterministic(self):
        budget = LinkBudget()
        samples = np.ones(64, dtype=complex)
        assert np.array_equal(add_noise(samples, budget, 9), add_noise(samples, budget, 9))


class TestNormalStream:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=3), min_size=1, max_size=6),
    )
    def test_slices_equal_successive_draws(self, seed, shapes):
        rng = np.random.default_rng(seed)
        want = [rng.standard_normal((2, *shape)) for shape in shapes]
        stream = NormalStream(seed)
        for _ in range(2):  # the second pass reads what the first one drew
            offset = 0
            for draw in want:
                got = stream.read(offset, draw.size).reshape(draw.shape)
                offset += draw.size
                assert got.tobytes() == draw.tobytes()
                assert not got.flags.writeable

    def test_readers_on_threads_see_one_stream(self):
        from concurrent.futures import ThreadPoolExecutor

        workers = 6
        want = np.random.default_rng(11).standard_normal(100_000 + 10_000 * workers)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for _ in range(10):
                stream, barrier = NormalStream(11), threading.Barrier(workers, timeout=10)

                def read(k, stream=stream, barrier=barrier):
                    barrier.wait()
                    return stream.read(0, 100_000 + 10_000 * k)

                for got in pool.map(read, range(workers)):
                    assert got.tobytes() == want[: len(got)].tobytes()

    def test_one_stream_per_seed_per_realization(self):
        ch = sample_channel(ChannelConfig(), 3)
        cb = dft_codebook(ArrayConfig(8))

        def stream(ch, seed, **kwargs):
            return session(ch, cb, cb, seed, noise=LinkBudget(), **kwargs).noise

        assert stream(ch, 5) is stream(ch, 5)
        assert stream(ch, 6) is not stream(ch, 5)
        assert stream(dataclasses.replace(ch), 5) is not stream(ch, 5)
        # every scheme and transform of one codebook reads one stream
        assert stream(ch, 5, scheme=Scheme.FEEDBACK_BEAMCODING) is stream(ch, 5)
        assert stream(ch, 5, quantize_bits=3, project_phase_only=True) is stream(ch, 5)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        seeds = [derive_seed(42, i) for i in range(1000)]
        assert seeds == [derive_seed(42, i) for i in range(1000)]
        assert len(set(seeds)) == 1000

    def test_in_64_bit_range(self):
        for master in (0, 1, 2**63, 2**64 - 1):
            for index in (0, 1, 999):
                s = derive_seed(master, index)
                assert 0 <= s < 2**64


class TestChannelRealization:
    @pytest.mark.parametrize("tap", [-1, -1.0, 0.5, 2.25, math.nan, math.inf])
    def test_rejects_negative_or_fractional_taps(self, tap):
        with pytest.raises(ValueError, match="taps must be nonnegative integers"):
            ChannelRealization([10.0, 11.0], [20.0, 21.0], [1.0, 1.0], [0, tap])

    def test_rejects_a_negative_toy_excess_tap(self):
        with pytest.raises(ValueError, match="taps"):
            toy_channel(0.5, nlos_excess_tap=-1)

    @pytest.mark.parametrize(
        "arrays",
        [
            ([10.0], [20.0, 30.0], [1.0, 1.0], [0, 0]),
            ([10.0, 11.0], [20.0, 30.0], [1.0, 1.0], [0]),
            ([10.0, 11.0], [20.0, 30.0], [1.0], [0, 0]),
        ],
    )
    def test_rejects_unequal_lengths(self, arrays):
        with pytest.raises(ValueError, match="one length"):
            ChannelRealization(*arrays)

    @pytest.mark.parametrize("shape", [(), (2, 1), (1, 2)])
    def test_rejects_arrays_that_are_not_one_dimensional(self, shape):
        arrays = [np.full(shape, 10.0), np.full(shape, 20.0), np.ones(shape), np.zeros(shape)]
        with pytest.raises(ValueError, match="1-D"):
            ChannelRealization(*arrays)

    def test_keeps_read_only_copies_of_the_callers_arrays(self):
        arrays = [np.array(x) for x in ([60.0, 70.0], [120.0, 110.0], [1.0, 0.5j], [0, 2])]
        ch = ChannelRealization(*arrays)
        before = ray_bits(ch)
        for arr in arrays:
            arr[:] = 0
        assert ray_bits(ch) == before and ch.num_taps == 3
        for arr in (ch.aods_deg, ch.aoas_deg, ch.gains, ch.taps):
            assert not arr.flags.writeable and not any(arr is a for a in arrays)

    def test_equal_only_to_itself(self):
        a, b = sample_channel(ChannelConfig(), 3), sample_channel(ChannelConfig(), 3)
        assert a == a and a != b
        assert len({a, b, a}) == 2
