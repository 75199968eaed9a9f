import numpy as np
import pytest

from beamtrain.array_model import ArrayConfig, dft_codebook, steering_vector
from beamtrain.beam_coding import coded_fields, walsh_codes
from beamtrain.channel import (
    TOY_LOS_PAIR,
    TOY_NLOS_PAIR,
    ChannelConfig,
    ChannelRealization,
    derive_seed,
    sample_channel,
    toy_channel,
    toy_codebooks,
)
from beamtrain.experiment import ExperimentConfig
from beamtrain.packets import (
    CE_BITS,
    LAYOUTS,
    PER_BEAM_BITS_80211AD,
    PER_BEAM_BITS_BEAM_CODING,
    layout_80211ad,
    layout_beam_coding,
    power_trace,
    preamble_samples,
    training_bits,
)


def coded_layout(beam_indices, codebook):
    return layout_beam_coding(codebook.matrix[list(beam_indices)])


class TestBitAccounting:
    def test_per_beam_bits(self):
        assert PER_BEAM_BITS_80211AD == 4 * 320 + 4 * 640 + 1024 == 4864
        assert PER_BEAM_BITS_BEAM_CODING == 1024

    def test_80211ad_one_beam(self):
        assert training_bits("80211ad", 1) == 4864

    def test_80211ad_sixteen_beams(self):
        assert training_bits("80211ad", 16) == 16 * 4864 == 77824

    def test_beam_coding_sixteen(self):
        assert training_bits("beamcoding", 16) == 16 * 1024 == 16384

    def test_beam_coding_single(self):
        assert training_bits("beamcoding", 1) == 1024
        preamble, fields = layout_beam_coding(dft_codebook(ArrayConfig(4)).matrix[:1])
        assert len(fields) == len(preamble) == 1

    def test_per_beam_saving(self):
        assert PER_BEAM_BITS_80211AD - PER_BEAM_BITS_BEAM_CODING == 3840

    def test_non_power_of_two_rounds_up_fields(self):
        assert training_bits("beamcoding", 5) == 8 * 1024
        _, fields = layout_beam_coding(dft_codebook(ArrayConfig(16)).matrix[:5])
        assert len(fields) == 8

    def test_zero_beams_rejected(self):
        no_beams = np.empty((0, 4), dtype=complex)
        for scheme, layout_of in LAYOUTS.items():
            with pytest.raises(ValueError):
                training_bits(scheme, 0)
            with pytest.raises(ValueError):
                layout_of(no_beams)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="psychic"):
            training_bits("psychic", 1)

    def test_capacity_exceeded(self):
        cfg = ArrayConfig(2)
        with pytest.raises(ValueError, match="at most 2"):
            layout_beam_coding(np.stack([steering_vector(cfg, a) for a in (30.0, 90.0, 150.0)]))

    def test_total_is_exact_sum(self):
        # The training section is its AGC subfields plus its TRN fields.
        assert training_bits("80211ad", 3) == 12 * 320 + 3 * (4 * 640 + 1024)

    @pytest.mark.parametrize("k", range(1, 17))
    def test_equals_field_count_times_per_field_bits(self, k):
        beams = dft_codebook(ArrayConfig(16)).matrix[:k]
        per_field = {"80211ad": PER_BEAM_BITS_80211AD, "beamcoding": PER_BEAM_BITS_BEAM_CODING}
        for scheme, layout_of in LAYOUTS.items():
            _, fields = layout_of(beams)
            assert training_bits(scheme, k) == len(fields) * per_field[scheme]

    def test_closed_form_for_any_count(self):
        k = 10**20
        assert training_bits("80211ad", k) == 4864 * 10**20
        assert training_bits("beamcoding", k) == 2**67 * CE_BITS
        assert training_bits("beamcoding", 2**67) == 2**67 * CE_BITS
        assert training_bits("beamcoding", 2**67 + 1) == 2**68 * CE_BITS


class TestLayoutStructure:
    def test_80211ad_fields_carry_beams(self):
        cb = dft_codebook(ArrayConfig(8))
        preamble, fields = layout_80211ad(cb.matrix[:3])
        assert fields.tobytes() == cb.matrix[:3].tobytes()
        assert preamble.shape == (1, 8)

    def test_beam_coding_fields_carry_composites(self):
        cb = dft_codebook(ArrayConfig(8))
        preamble, fields = coded_layout([0, 2, 4, 6], cb)
        assert preamble is fields
        assert fields.shape == (4, 8)

    @pytest.mark.parametrize("k", [1, 3, 4, 16])
    def test_coded_fields_are_the_walsh_schedule(self, k):
        # beam p rides Walsh code p of the shortest length that separates k
        cb = dft_codebook(ArrayConfig(16))
        beams = cb.matrix[:k]
        want = coded_fields(beams, walsh_codes(max(0, (k - 1).bit_length()))[:k])
        preamble, fields = layout_beam_coding(beams)
        assert training_bits("beamcoding", k) == len(fields) * CE_BITS
        assert fields.tobytes() == preamble.tobytes() == want.tobytes()


class TestLayouts:
    def test_names_are_the_layout_schemes(self):
        for name in LAYOUTS:
            assert training_bits(name, 2) > 0
        assert ExperimentConfig().schemes == tuple(LAYOUTS) == ("80211ad", "beamcoding")


class TestPowerTrace:
    def test_toy_80211ad_trace_isolates_aligned_fields(self):
        tx_cb, rx_cb = toy_codebooks()
        ch = toy_channel(0.5)
        layout = layout_80211ad(tx_cb.matrix)
        # receiver parked on the strong pair's receive beam: only the
        # matching transmit field lights up
        rx = rx_cb.matrix[TOY_LOS_PAIR[1]]
        _, field_powers = power_trace(layout, ch, rx, tx_cb.cfg, rx_cb.cfg)
        powers = field_powers / field_powers.max()
        assert np.argmax(powers) == TOY_LOS_PAIR[0]
        others = np.delete(powers, TOY_LOS_PAIR[0])
        assert np.all(others < 1e-12)
        # parked on the weak pair's receive beam: only its field, a^2 down
        rx2 = rx_cb.matrix[TOY_NLOS_PAIR[1]]
        _, field_powers2 = power_trace(layout, ch, rx2, tx_cb.cfg, rx_cb.cfg)
        assert np.argmax(field_powers2) == TOY_NLOS_PAIR[0]
        assert field_powers2.max() == pytest.approx(0.25 * field_powers.max(), rel=1e-9)

    def test_zero_channel_zero_trace(self):
        tx_cb, rx_cb = toy_codebooks()
        layout = layout_80211ad(tx_cb.matrix)
        rx = rx_cb.matrix[0]
        empty = ChannelRealization(rays=())
        preamble_power, field_powers = power_trace(layout, empty, rx, tx_cb.cfg, rx_cb.cfg)
        assert np.all(field_powers == 0)
        assert preamble_power == 0

    def test_coded_trace_flatter_than_sweep_trace(self):
        # Max/min field-power spread over 1000 seeds.  A handful of
        # realizations put a deep null into one coded field, so strict
        # per-seed dominance does not hold; the claim is distributional:
        # nearly every realization is flatter, with an order of magnitude
        # between the typical spreads.
        tx_cfg = ArrayConfig(16)
        cb = dft_codebook(tx_cfg)
        rx = np.array([1.0 + 0j])
        rx_cfg = ArrayConfig(1)
        ad_layout = layout_80211ad(cb.matrix)
        coded = coded_layout(range(16), cb)
        cfg = ChannelConfig(los=False)
        floor = 1e-30
        ad_ratios, bc_ratios = [], []
        for i in range(1000):
            ch = sample_channel(cfg, derive_seed(4242, i))
            _, ad = power_trace(ad_layout, ch, rx, tx_cfg, rx_cfg)
            _, bc = power_trace(coded, ch, rx, tx_cfg, rx_cfg)
            ad_ratios.append(ad.max() / max(ad.min(), floor))
            bc_ratios.append(bc.max() / max(bc.min(), floor))
        ad_ratios = np.array(ad_ratios)
        bc_ratios = np.array(bc_ratios)
        assert np.mean(bc_ratios <= ad_ratios) >= 0.98
        assert np.median(ad_ratios) >= 10 * np.median(bc_ratios)


class TestPreambleSamples:
    def test_single_tap_mean_power_matches_trace(self):
        tx_cb, rx_cb = toy_codebooks()
        ch = toy_channel(0.5)
        layout = layout_80211ad(tx_cb.matrix)
        rx = rx_cb.matrix[1]
        preamble_power, _ = power_trace(layout, ch, rx, tx_cb.cfg, rx_cb.cfg)
        samples = preamble_samples(layout, ch, rx, tx_cb.cfg, rx_cb.cfg)
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(preamble_power, rel=1e-12)

    def test_coded_preamble_cycles_schedule(self):
        cb = dft_codebook(ArrayConfig(8))
        layout = coded_layout([0, 2, 4, 6], cb)
        ch = sample_channel(ChannelConfig(num_clusters=2), 3)
        rx = np.array([1.0 + 0j])
        samples = preamble_samples(layout, ch, rx, cb.cfg, ArrayConfig(1))
        preamble_power, _ = power_trace(layout, ch, rx, cb.cfg, ArrayConfig(1))
        # sample mean approximates the mean field power (guard zeros and
        # convolution edges keep it from being exact)
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(preamble_power, rel=0.05)
