import dataclasses
import gc
import logging
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from beamtrain import protocols
from beamtrain.array_model import (
    ArrayConfig,
    BeamCodebook,
    codebook_from_cosines,
    dft_codebook,
    project_uniform,
    quantize_phases,
    superpose_beams,
)
from beamtrain.beam_coding import coded_fields, walsh_codes
from beamtrain.channel import (
    TOY_LOS_PAIR,
    ChannelConfig,
    ChannelRealization,
    LinkBudget,
    cascade_gains,
    derive_seed,
    sample_channel,
    toy_channel,
    toy_codebooks,
)
from beamtrain.packets import (
    CE_BITS,
    PER_BEAM_BITS_80211AD,
    PER_BEAM_BITS_BEAM_CODING,
    training_bits,
)
from beamtrain.protocols import (
    ProtocolConfig,
    Scheme,
    TrainingOutcome,
    run,
    run_exhaustive_beamcoding,
    run_exhaustive_inpacket,
    run_exhaustive_pbp,
    run_feedback_beamcoding,
    run_feedback_inpacket,
    run_multilevel_pbp,
    sector_beams,
    sector_trap_channel,
)

# The CE correlation gain, 10 log10(CE_BITS) dB: noise this much louder puts
# the per-field estimate noise where a single-chip correlation would.
CE_GAIN_DB = 10.0 * math.log10(CE_BITS)


def toy_config(scheme, **kwargs):
    tx_cb, rx_cb = toy_codebooks()
    return ProtocolConfig(tx_codebook=tx_cb, rx_codebook=rx_cb, scheme=scheme, **kwargs)


def subset(cb, indices):
    """The codebook of ``cb``'s beams at ``indices``, in that order."""
    idx = list(indices)
    return BeamCodebook(cb.cfg, tuple(cb.angles_deg[i] for i in idx), cb.matrix[idx])


def pair_power_db(cb, pair, ch):
    tx_w, rx_w = cb.matrix[pair[0]], cb.matrix[pair[1]]
    taps = cascade_gains(tx_w[None], rx_w[None], ch, cb.cfg, cb.cfg)[:, 0, 0]
    return 10 * math.log10(float(np.sum(np.abs(taps) ** 2)))


class TestToyScenario:
    def test_exhaustive_beamcoding_exact_correlations(self):
        out = run_exhaustive_beamcoding(toy_config(Scheme.EXHAUSTIVE_BEAMCODING), toy_channel(0.5), 0)
        r = out.correlation
        assert r.dtype == np.complex128 and r.shape == (4, 4) and not r.flags.writeable
        assert abs(r[1, 2] - 2.0) < 1e-9
        assert abs(r[0, 3] - 1.0) < 1e-9
        mask = np.ones((4, 4), dtype=bool)
        mask[1, 2] = mask[0, 3] = False
        assert np.abs(r[mask]).max() < 1e-9
        assert out.best_pair == TOY_LOS_PAIR
        assert out.packets_sent == 4
        assert out.success

    def test_correlation_argmax_for_any_attenuation(self):
        cfg = toy_config(Scheme.EXHAUSTIVE_BEAMCODING)
        for a in (0.05, 0.3, 0.62, 0.9, 0.99):
            out = run_exhaustive_beamcoding(cfg, toy_channel(a), 0)
            assert out.best_pair == TOY_LOS_PAIR
            assert abs(abs(out.correlation[0, 3]) - 2 * a) < 1e-9

    def test_exhaustive_pbp(self):
        out = run_exhaustive_pbp(toy_config(Scheme.EXHAUSTIVE_PBP), toy_channel(0.5), 0)
        assert out.best_pair == TOY_LOS_PAIR
        assert out.packets_sent == 16
        assert out.training_bits == 16 * PER_BEAM_BITS_80211AD

    def test_exhaustive_inpacket(self):
        out = run_exhaustive_inpacket(toy_config(Scheme.EXHAUSTIVE_INPACKET), toy_channel(0.5), 0)
        assert out.best_pair == TOY_LOS_PAIR
        assert out.packets_sent == 4

    def test_inpacket_table_matches_pbp_table(self):
        ch = toy_channel(0.37)
        pbp = run_exhaustive_pbp(toy_config(Scheme.EXHAUSTIVE_PBP), ch, 0)
        inp = run_exhaustive_inpacket(toy_config(Scheme.EXHAUSTIVE_INPACKET), ch, 0)
        assert np.allclose(pbp.pair_power, inp.pair_power, atol=1e-12)

    def test_feedback_inpacket_two_packets(self):
        out = run_feedback_inpacket(toy_config(Scheme.FEEDBACK_INPACKET), toy_channel(0.5), 0)
        assert out.best_pair == TOY_LOS_PAIR
        assert out.packets_sent == 2
        assert out.feedback_messages == 1
        assert out.feedback_bits == 512

    def test_feedback_cost_fixed_and_outside_training_bits(self):
        out = run_feedback_beamcoding(toy_config(Scheme.FEEDBACK_BEAMCODING), toy_channel(0.5), 0)
        assert (out.feedback_messages, out.feedback_bits) == (1, 512)
        assert out.training_bits == (4 + 4) * PER_BEAM_BITS_BEAM_CODING

    def test_feedback_stage1_observation_structure(self):
        # transmit sweep into the all-beams composite: amplitudes 0.5*[a 1 0 0]
        a = 0.5
        out = run_feedback_inpacket(toy_config(Scheme.FEEDBACK_INPACKET), toy_channel(a), 0)
        stage1 = np.sqrt(out.power_traces[0])
        expected = np.array([0.5 * a, 0.5, 0.0, 0.0])
        assert np.allclose(stage1, expected, atol=1e-9)

    def test_feedback_beamcoding_two_packets(self):
        out = run_feedback_beamcoding(toy_config(Scheme.FEEDBACK_BEAMCODING), toy_channel(0.5), 0)
        assert out.best_pair == TOY_LOS_PAIR
        assert out.packets_sent == 2

    def test_single_beam_codebooks(self):
        tx_cb, rx_cb = toy_codebooks()
        cfg = ProtocolConfig(
            tx_codebook=subset(tx_cb, [TOY_LOS_PAIR[0]]),
            rx_codebook=subset(rx_cb, [TOY_LOS_PAIR[1]]),
            scheme=Scheme.EXHAUSTIVE_PBP,
        )
        out = run_exhaustive_pbp(cfg, toy_channel(0.5), 0)
        assert out.packets_sent == 1
        assert out.best_pair == (0, 0)

    def test_single_coded_beam_is_plain_channel_estimation(self):
        # one coded beam means a one-chip code: a single CE field per packet
        tx_cb, rx_cb = toy_codebooks()
        cfg = ProtocolConfig(
            tx_codebook=subset(tx_cb, [TOY_LOS_PAIR[0]]),
            rx_codebook=rx_cb,
            scheme=Scheme.EXHAUSTIVE_BEAMCODING,
        )
        out = run_exhaustive_beamcoding(cfg, toy_channel(0.5), 0)
        assert out.best_pair == (0, TOY_LOS_PAIR[1])
        assert out.training_bits == 4 * PER_BEAM_BITS_BEAM_CODING
        assert abs(out.correlation[0, TOY_LOS_PAIR[1]] - 1.0) < 1e-9


class TestPacketAndBitCounts:
    def test_counts_exact(self):
        ch = toy_channel(0.5)
        p = q = 4
        assert run(toy_config(Scheme.EXHAUSTIVE_PBP), ch, 0).packets_sent == p * q
        assert run(toy_config(Scheme.EXHAUSTIVE_INPACKET), ch, 0).packets_sent == q
        assert run(toy_config(Scheme.FEEDBACK_INPACKET), ch, 0).packets_sent == 2
        assert run(toy_config(Scheme.EXHAUSTIVE_BEAMCODING), ch, 0).packets_sent == q
        assert run(toy_config(Scheme.FEEDBACK_BEAMCODING), ch, 0).packets_sent == 2
        ml = run(toy_config(Scheme.MULTILEVEL_PBP, num_sectors=2), ch, 0)
        assert ml.packets_sent == 2 * 2 + 2 * 2

    def test_training_bits_ordered(self):
        ch = toy_channel(0.5)
        coded = run(toy_config(Scheme.EXHAUSTIVE_BEAMCODING), ch, 0)
        swept = run(toy_config(Scheme.EXHAUSTIVE_INPACKET), ch, 0)
        assert coded.training_bits < swept.training_bits
        assert coded.training_bits == 4 * 4 * PER_BEAM_BITS_BEAM_CODING
        assert swept.training_bits == 4 * 4 * PER_BEAM_BITS_80211AD

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_bits_are_the_sum_over_the_packets_sent(self, scheme):
        # 12 and 6 beams: coded packets round up to 16 and 8 fields
        tx_cb, rx_cb = dft_codebook(ArrayConfig(12)), dft_codebook(ArrayConfig(6))
        p, q = len(tx_cb), len(rx_cb)
        out = run(ProtocolConfig(tx_cb, rx_cb, scheme), sample_channel(ChannelConfig(), 5), 0)
        # (layout, beams trained) of each packet sent
        packets = {
            Scheme.EXHAUSTIVE_PBP: [("80211ad", 1)] * (p * q),
            Scheme.MULTILEVEL_PBP: [("80211ad", 1)] * out.packets_sent,
            Scheme.EXHAUSTIVE_INPACKET: [("80211ad", p)] * q,
            Scheme.FEEDBACK_INPACKET: [("80211ad", p), ("80211ad", q)],
            Scheme.EXHAUSTIVE_BEAMCODING: [("beamcoding", p)] * q,
            Scheme.FEEDBACK_BEAMCODING: [("beamcoding", p), ("beamcoding", q)],
        }[scheme]
        assert out.packets_sent == len(packets)
        assert out.training_bits == sum(training_bits(*packet) for packet in packets)


class TestFailurePath:
    def test_zero_channel_fails_every_scheme(self):
        empty = ChannelRealization([], [], [], [])
        for scheme in Scheme:
            cfg = toy_config(scheme)
            out = run(cfg, empty, 0)
            assert not out.success
            assert out.best_pair is None
            assert out.snr_db == -math.inf

    def test_noise_only_channel_rarely_detects(self):
        empty = ChannelRealization([], [], [], [])
        budget = LinkBudget()
        cfg = toy_config(Scheme.EXHAUSTIVE_BEAMCODING, noise=budget)
        outcomes = [run(cfg, empty, seed) for seed in range(100)]
        assert all(not o.success for o in outcomes)


class TestNoise:
    def test_noiseless_runs_reproducible(self):
        cfg = toy_config(Scheme.EXHAUSTIVE_BEAMCODING)
        a = run(cfg, toy_channel(0.5), 3)
        b = run(cfg, toy_channel(0.5), 3)
        assert np.array_equal(a.correlation, b.correlation)

    def test_noisy_runs_seed_dependent_but_reproducible(self):
        budget = LinkBudget(noise_override_dbm=5.0)
        cfg = toy_config(Scheme.EXHAUSTIVE_BEAMCODING, noise=budget)
        a1 = run(cfg, toy_channel(0.5), 3)
        a2 = run(cfg, toy_channel(0.5), 3)
        b = run(cfg, toy_channel(0.5), 4)
        assert np.array_equal(a1.correlation, a2.correlation)
        assert not np.array_equal(a1.correlation, b.correlation)

    def test_monotone_degradation_with_noise_power(self):
        # success probability of finding the true pair never rises with noise
        ch = toy_channel(0.8)
        runs = 10_000
        accuracy = []
        for noise_dbm in (-4.0, 2.0, 8.0):
            budget = LinkBudget(tx_power_dbm=10.0, noise_override_dbm=noise_dbm + CE_GAIN_DB)
            cfg = toy_config(Scheme.EXHAUSTIVE_BEAMCODING, noise=budget)
            hits = sum(
                run(cfg, ch, seed).best_pair == TOY_LOS_PAIR for seed in range(runs)
            )
            accuracy.append(hits / runs)
        assert accuracy[0] >= accuracy[1] - 0.01
        assert accuracy[1] >= accuracy[2] - 0.01
        assert accuracy[0] > accuracy[2]

    def test_near_tie_becomes_coin_flip_under_noise(self):
        # with the two path gains nearly equal, stage-1 transmit selection is
        # noise limited and splits about evenly
        ch = toy_channel(0.999)
        budget = LinkBudget(tx_power_dbm=10.0, noise_override_dbm=6.0 + CE_GAIN_DB)
        cfg = toy_config(Scheme.FEEDBACK_INPACKET, noise=budget)
        picks = [run(cfg, ch, seed).best_pair for seed in range(2000)]
        tx_choices = [p[0] for p in picks if p is not None]
        frac_beam1 = np.mean([t == TOY_LOS_PAIR[0] for t in tx_choices])
        assert 0.38 < frac_beam1 < 0.62

    def test_snr_reporting_uses_clean_steering(self):
        tx_cb, rx_cb = toy_codebooks()
        budget = LinkBudget()
        cfg = toy_config(Scheme.EXHAUSTIVE_BEAMCODING, snr_budget=budget)
        out = run(cfg, toy_channel(0.5), 0)
        expected = pair_power_db(tx_cb, out.best_pair, toy_channel(0.5)) - (
            budget.noise_power_dbm - budget.tx_power_dbm
        )
        assert out.snr_db == pytest.approx(expected, abs=1e-9)


class TestMultilevel:
    def test_matches_exhaustive_when_los_inside_winning_sector(self):
        ch = toy_channel(0.5)
        ml = run_multilevel_pbp(toy_config(Scheme.MULTILEVEL_PBP, num_sectors=2), ch, 0)
        ex = run_exhaustive_pbp(toy_config(Scheme.EXHAUSTIVE_PBP), ch, 0)
        assert ml.best_pair == ex.best_pair

    def test_single_sector_degenerates_to_exhaustive(self):
        ch = toy_channel(0.5)
        ml = run_multilevel_pbp(toy_config(Scheme.MULTILEVEL_PBP, num_sectors=1), ch, 0)
        ex = run_exhaustive_pbp(toy_config(Scheme.EXHAUSTIVE_PBP), ch, 0)
        assert ml.best_pair == ex.best_pair
        assert ml.packets_sent == 1 + 16

    def test_sector_beams_partition(self):
        cb = dft_codebook(ArrayConfig(16))
        beams, groups = sector_beams(cb, 4)
        assert len(beams) == 4
        assert sorted(i for g in groups for i in g) == list(range(16))
        assert np.allclose(np.sum(np.abs(beams) ** 2, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_sixteen_beam_packet_count(self):
        cb = dft_codebook(ArrayConfig(16))
        cfg = ProtocolConfig(tx_codebook=cb, rx_codebook=cb, scheme=Scheme.MULTILEVEL_PBP)
        ch = sample_channel(ChannelConfig(), derive_seed(1, 1))
        out = run_multilevel_pbp(cfg, ch, 0)
        assert out.packets_sent == 4 * 4 + 4 * 4

    def test_trap_channel_defeats_multilevel_only(self):
        cb = dft_codebook(ArrayConfig(16))
        ch = sector_trap_channel(cb, cb)
        cfg = lambda s: ProtocolConfig(tx_codebook=cb, rx_codebook=cb, scheme=s)
        ex = run_exhaustive_pbp(cfg(Scheme.EXHAUSTIVE_PBP), ch, 0)
        ml = run_multilevel_pbp(cfg(Scheme.MULTILEVEL_PBP), ch, 0)
        coded = run_exhaustive_beamcoding(cfg(Scheme.EXHAUSTIVE_BEAMCODING), ch, 0)
        assert coded.best_pair == ex.best_pair
        gap = pair_power_db(cb, ex.best_pair, ch) - pair_power_db(cb, ml.best_pair, ch)
        assert gap >= 3.0


class TestNoiselessEquivalence:
    def test_exhaustive_schemes_agree_over_random_channels(self):
        cb = dft_codebook(ArrayConfig(16))
        cfgs = [
            ProtocolConfig(tx_codebook=cb, rx_codebook=cb, scheme=s)
            for s in (
                Scheme.EXHAUSTIVE_PBP,
                Scheme.EXHAUSTIVE_INPACKET,
                Scheme.EXHAUSTIVE_BEAMCODING,
            )
        ]
        ch_cfg = ChannelConfig()
        for i in range(50):
            ch = sample_channel(ch_cfg, derive_seed(7, i))
            pairs = {run(c, ch, i).best_pair for c in cfgs}
            assert len(pairs) == 1

    def test_argmax_matches_true_gain_table(self):
        cb = dft_codebook(ArrayConfig(16))
        cfg = ProtocolConfig(tx_codebook=cb, rx_codebook=cb, scheme=Scheme.EXHAUSTIVE_PBP)
        for i in range(20):
            ch = sample_channel(ChannelConfig(), derive_seed(100, i))
            out = run(cfg, ch, i)
            gains = cascade_gains(cb.matrix, cb.matrix, ch, cb.cfg, cb.cfg)
            table = np.sum(np.abs(gains) ** 2, axis=0)
            assert out.best_pair == tuple(np.unravel_index(np.argmax(table), table.shape))


    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([1, 2, 4, 8, 16]).flatmap(
            lambda n: st.tuples(st.just(n), st.sets(st.integers(0, n - 1), min_size=1))
        ),
        st.integers(1, 6).flatmap(
            lambda n: st.builds(
                ChannelRealization,
                aods_deg=hnp.arrays(float, n, elements=st.floats(0.0, 180.0)),
                aoas_deg=hnp.arrays(float, n, elements=st.floats(0.0, 180.0)),
                gains=hnp.arrays(
                    np.complex128,
                    n,
                    elements=st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                ),
                taps=hnp.arrays(np.intp, n, elements=st.integers(0, 4)),
            )
        ),
    )
    # Powers of about 3e-315 are subnormal: the two sides may differ by one
    # subnormal step, which 1e-12 times the bound does not reach.
    @example(
        beams=(2, {0, 1}),
        ch=ChannelRealization(aods_deg=[0.0], aoas_deg=[1.0], gains=[5.5324121e-158j], taps=[0]),
    )
    def test_coded_decode_equals_exhaustive_table(self, beams, ch):
        n, indices = beams
        cb = dft_codebook(ArrayConfig(n))
        tx_cb = subset(cb, sorted(indices))

        def outcome(scheme):
            return run(ProtocolConfig(tx_codebook=tx_cb, rx_codebook=cb, scheme=scheme), ch, 0)

        coded = outcome(Scheme.EXHAUSTIVE_BEAMCODING)
        table = outcome(Scheme.EXHAUSTIVE_PBP).pair_power
        # The decode carries T / sqrt(K) on every per-tap amplitude.
        k = len(tx_cb)
        t = 1 << (k - 1).bit_length()
        bound = np.abs(ch.gains).sum() ** 2
        atol = max(1e-12 * bound, 4 * np.finfo(float).smallest_subnormal)
        np.testing.assert_allclose(coded.pair_power * k / t**2, table, rtol=0, atol=atol)


class TestFeedbackAgainstExhaustive:
    def test_stage_two_is_conditionally_optimal(self):
        # feedback training loses only through its composite-receive first
        # stage: whenever it picks the same transmit beam as exhaustive coded
        # training, the final pair matches too
        cb = dft_codebook(ArrayConfig(16))
        fb = ProtocolConfig(tx_codebook=cb, rx_codebook=cb, scheme=Scheme.FEEDBACK_BEAMCODING)
        ex = ProtocolConfig(tx_codebook=cb, rx_codebook=cb, scheme=Scheme.EXHAUSTIVE_BEAMCODING)
        agree = 0
        for i in range(150):
            ch = sample_channel(ChannelConfig(los=True), derive_seed(31337, i))
            a, b = run(fb, ch, i), run(ex, ch, i)
            if a.best_pair[0] == b.best_pair[0]:
                assert a.best_pair == b.best_pair
                agree += 1
        # with a dominant path the composite stage rarely misleads
        assert agree >= 0.9 * 150


class TestTransforms:
    def test_quantized_training_still_finds_toy_pair(self):
        cfg = toy_config(Scheme.EXHAUSTIVE_BEAMCODING, quantize_bits=2)
        out = run(cfg, toy_channel(0.5), 0)
        assert out.best_pair == TOY_LOS_PAIR

    def test_projection_keeps_selection_on_clear_channels(self):
        cb = dft_codebook(ArrayConfig(16))
        plain = ProtocolConfig(tx_codebook=cb, rx_codebook=cb, scheme=Scheme.EXHAUSTIVE_PBP)
        coded = ProtocolConfig(
            tx_codebook=cb,
            rx_codebook=cb,
            scheme=Scheme.EXHAUSTIVE_BEAMCODING,
            quantize_bits=3,
        )
        agree = 0
        for i in range(60):
            ch = sample_channel(ChannelConfig(los=False), derive_seed(3000, i))
            agree += run(plain, ch, i).best_pair == run(coded, ch, i).best_pair
        assert agree >= 57

    def test_non_orthogonal_coded_group_warns(self):
        from beamtrain.array_model import codebook_from_cosines, steering_vector

        cfg = ArrayConfig(16)
        cb = codebook_from_cosines(cfg, [0.30, 0.31, -0.2, -0.5])
        with pytest.warns(UserWarning, match="non-orthogonal"):
            ProtocolConfig(tx_codebook=cb, rx_codebook=cb, scheme=Scheme.EXHAUSTIVE_BEAMCODING)


class TestDispatcher:
    def test_run_routes_every_scheme(self):
        ch = toy_channel(0.5)
        for scheme in Scheme:
            out = run(toy_config(scheme, num_sectors=2), ch, 0)
            assert out.scheme == scheme
            assert out.best_pair == TOY_LOS_PAIR

    def test_concurrent_runs_match_serial(self):
        # runs are pure functions of (config, channel, seed), so a thread
        # pool must reproduce the serial results exactly
        from concurrent.futures import ThreadPoolExecutor

        cb = dft_codebook(ArrayConfig(16))
        cfg = ProtocolConfig(
            tx_codebook=cb,
            rx_codebook=cb,
            scheme=Scheme.EXHAUSTIVE_BEAMCODING,
            noise=LinkBudget(),
        )
        channels = [sample_channel(ChannelConfig(), derive_seed(8, i)) for i in range(12)]
        serial = [run(cfg, ch, i) for i, ch in enumerate(channels)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda t: run(cfg, t[1], t[0]), enumerate(channels)))
        for a, b in zip(serial, parallel):
            assert a.best_pair == b.best_pair
            assert np.array_equal(a.correlation, b.correlation)
            assert a.snr_db == b.snr_db


def _bits(value):
    """A value's exact bits: dtype, shape and bytes of an array, the bytes
    of a float (so that -0.0 and nan compare as they are stored)."""
    if isinstance(value, np.ndarray):
        return value.dtype, value.shape, value.tobytes()
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return value


def assert_outcomes_equal(a, b):
    """Every field of two outcomes holds the same bits."""
    for f in dataclasses.fields(TrainingOutcome):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "power_traces":
            assert [_bits(u) for u in x] == [_bits(v) for v in y], f.name
        else:
            assert _bits(x) == _bits(y), f.name


def calls_to(monkeypatch, module, name):
    """The arguments of every later call of ``module.name``, in order."""
    calls, fn = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestTrainingPlan:
    def plan_arrays(self, cfg):
        arrays = []
        for plan in (cfg._tx_plan, cfg._rx_plan):
            beams, groups = plan.sectors
            arrays += [plan.weights, *plan.coded, beams, *groups, plan.composite]
            arrays += [plan.stack, plan.untransformed.weights, plan.untransformed.stack]
        return arrays

    @pytest.mark.parametrize("quantize_bits", [None, 3])
    def test_matrices_are_read_only(self, quantize_bits):
        cb = dft_codebook(ArrayConfig(8))
        cfg = ProtocolConfig(
            tx_codebook=cb, rx_codebook=cb, scheme=Scheme.EXHAUSTIVE_PBP, quantize_bits=quantize_bits
        )
        for arr in self.plan_arrays(cfg):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_rows_equal_per_run_transforms_and_schedules(self):
        # three transmit beams: the Walsh schedule keeps the first three of
        # four codes and trains four fields
        cb = dft_codebook(ArrayConfig(16))
        tx_cb = subset(cb, [1, 6, 11])
        cfg = ProtocolConfig(
            tx_codebook=tx_cb,
            rx_codebook=cb,
            scheme=Scheme.FEEDBACK_BEAMCODING,
            quantize_bits=3,
            project_phase_only=True,
        )

        def transformed(w):
            return quantize_phases(project_uniform(w), 3)

        for book, plan in ((tx_cb, cfg._tx_plan), (cb, cfg._rx_plan)):
            assert plan.weights.shape == (len(book), book.cfg.num_antennas)
            for row, v in zip(plan.weights, book.matrix):
                assert np.array_equal(row, transformed(v))

            fields, chips = plan.coded
            codes = walsh_codes(max(0, (len(book) - 1).bit_length()))[: len(book)]
            want = coded_fields(book.matrix, codes)
            assert fields.shape == (len(want), book.cfg.num_antennas)
            for row, w in zip(fields, want):
                assert np.array_equal(row, transformed(w))
            assert np.array_equal(chips, codes)

            beams, groups = plan.sectors
            want_beams, want_groups = sector_beams(book, cfg.num_sectors)
            assert np.array_equal(beams, want_beams)
            assert [g.tolist() for g in groups] == want_groups

            composite = superpose_beams(book.matrix, [1] * len(book))
            assert np.array_equal(plan.composite, composite[None, :])

            # the receive stacks: the codebook, then the composite; the SNR
            # reads the untransformed plan's, on the codebook itself
            clean = plan.untransformed
            assert clean.untransformed is clean and clean.weights is book.matrix
            assert np.array_equal(plan.stack, np.vstack([plan.weights, composite]))
            assert np.array_equal(clean.stack, np.vstack([book.matrix, composite]))

    def test_reused_config_matches_fresh_config_per_channel(self):
        cb = dft_codebook(ArrayConfig(16))
        budget = LinkBudget(tx_power_dbm=-10.0)

        def config(scheme):
            return ProtocolConfig(tx_codebook=cb, rx_codebook=cb, scheme=scheme, noise=budget)

        reused = {scheme: config(scheme) for scheme in Scheme}
        for i in range(20):
            ch = sample_channel(ChannelConfig(los=i % 2 == 0), derive_seed(404, i))
            for scheme in Scheme:
                assert_outcomes_equal(run(reused[scheme], ch, i), run(config(scheme), ch, i))

    def test_replace_does_not_inherit_the_plan(self):
        cb = dft_codebook(ArrayConfig(16))
        cfg = ProtocolConfig(tx_codebook=cb, rx_codebook=cb, scheme=Scheme.EXHAUSTIVE_PBP)
        plain = cfg._tx_plan.weights
        quantized = dataclasses.replace(cfg, quantize_bits=3)
        assert "_tx_plan" not in vars(quantized) and "_rx_plan" not in vars(quantized)
        assert quantized._tx_plan is not cfg._tx_plan
        for row, v in zip(quantized._tx_plan.weights, cb.matrix):
            assert np.array_equal(row, quantize_phases(v, 3))
        assert not np.array_equal(quantized._tx_plan.weights, plain)
        assert cfg._tx_plan.weights is plain

    def test_schedules_built_once_per_config(self, monkeypatch):
        calls = calls_to(monkeypatch, protocols, "coded_fields")
        cb, narrow = dft_codebook(ArrayConfig(16)), dft_codebook(ArrayConfig(8))
        # one schedule per plan: every run on a realization trains through
        # the plans of the first config, which has one plan for both ends
        # when they train one codebook
        for tx_cb, rx_cb, schedules in ((cb, cb, 1), (cb, narrow, 2)):
            calls.clear()
            cfgs = [ProtocolConfig(tx_codebook=tx_cb, rx_codebook=rx_cb, scheme=s) for s in Scheme]
            for i in range(5):
                ch = sample_channel(ChannelConfig(), derive_seed(9, i))
                for cfg in cfgs:
                    run(cfg, ch, i)
            assert len(calls) == schedules

    def test_configs_share_plans_by_codebook_transforms_and_sectors(self):
        # each config builds its own plans, one for both ends when they
        # train one codebook object; on a realization, every config of one
        # codebook pair, transforms, sectors, seed and noise level trains
        # through one session, made with the plans of the first
        cb = dft_codebook(ArrayConfig(8))
        base = ProtocolConfig(tx_codebook=cb, rx_codebook=cb, scheme=Scheme.EXHAUSTIVE_PBP)
        assert base._tx_plan is base._rx_plan
        ch = sample_channel(ChannelConfig(), derive_seed(2121, 0))
        session = protocols._session(base, ch, 0)
        assert session.tx is base._tx_plan and session.rx is base._tx_plan
        for cfg in (
            dataclasses.replace(base, scheme=Scheme.FEEDBACK_BEAMCODING),
            dataclasses.replace(base, snr_budget=LinkBudget()),
            dataclasses.replace(base, quantize_bits=None, project_phase_only=False),
        ):
            assert cfg._tx_plan is not base._tx_plan
            assert protocols._session(cfg, ch, 0) is session
        # another seed; equal beams in another codebook object, any one
        # setting changed or another noise level: a session of its own,
        # made with the config's plans
        twin = dft_codebook(ArrayConfig(8))
        sessions = [session, protocols._session(base, ch, 1)]
        for cfg in (
            dataclasses.replace(base, tx_codebook=twin, rx_codebook=twin),
            dataclasses.replace(base, quantize_bits=3),
            dataclasses.replace(base, project_phase_only=True),
            dataclasses.replace(base, num_sectors=2),
            dataclasses.replace(base, noise=LinkBudget()),
        ):
            sessions.append(protocols._session(cfg, ch, 0))
            assert sessions[-1].tx is cfg._tx_plan and sessions[-1].rx is cfg._tx_plan
        assert len({id(s) for s in sessions}) == len(sessions)
        # a plan with transforms holds the plan without them, and its
        # session the session without them, whose sector table it reads
        both = dataclasses.replace(base, quantize_bits=3, project_phase_only=True)
        clean = both._tx_plan.untransformed
        assert clean.codebook is cb and clean.settings == base._tx_plan.settings
        assert clean.untransformed is clean and base._tx_plan.untransformed is base._tx_plan
        transformed = protocols._session(both, ch, 0)
        assert transformed.untransformed is session and session.untransformed is session
        assert transformed.sectors is session.sectors
        narrow = dataclasses.replace(base, rx_codebook=dft_codebook(ArrayConfig(4)))
        s = protocols._session(narrow, ch, 0)
        assert s.tx is narrow._tx_plan and s.rx is narrow._rx_plan and s.rx is not s.tx

    def test_configs_made_on_many_threads_share_one_plan(self):
        from concurrent.futures import ThreadPoolExecutor

        workers = 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for i in range(300):
                    cb = dft_codebook(ArrayConfig(8))
                    ch = sample_channel(ChannelConfig(), derive_seed(2525, i))
                    barrier = threading.Barrier(workers, timeout=10)

                    def plans_of(k, cb=cb, ch=ch, barrier=barrier):
                        scheme = list(Scheme)[k % len(Scheme)]
                        # every other config quantizes: its session holds
                        # the plain one, made by whichever thread is first
                        bits = 3 if k % 2 else None
                        cfg = ProtocolConfig(
                            tx_codebook=cb, rx_codebook=cb, scheme=scheme, quantize_bits=bits
                        )
                        barrier.wait()
                        s = protocols._session(cfg, ch, 0).untransformed
                        return s.tx, s.rx

                    plans = [plan for pair in pool.map(plans_of, range(workers)) for plan in pair]
                    assert all(plan is plans[0] for plan in plans)
                    assert len(ch._cache) == 2
        finally:
            sys.setswitchinterval(interval)

    def test_plans_go_with_their_configs(self):
        def campaign(ch):
            """Quant-sweep-style configs over fresh codebooks: the baseline
            and coded training at each bit width, each run once; weak
            references to their plans."""
            tx_cb, rx_cb = toy_codebooks()
            base = ProtocolConfig(tx_codebook=tx_cb, rx_codebook=rx_cb, scheme=Scheme.EXHAUSTIVE_PBP)
            cfgs = [base] + [
                dataclasses.replace(base, scheme=Scheme.EXHAUSTIVE_BEAMCODING, quantize_bits=bits)
                for bits in (None, 1, 2, 3, 4)
            ]
            for cfg in cfgs:
                run(cfg, ch, 0)
            return [weakref.ref(plan) for cfg in cfgs for plan in (cfg._tx_plan, cfg._rx_plan)]

        # with the configs gone, the plans that the realization's sessions
        # train through stay as long as the realization
        ch = toy_channel(0.5)
        refs = campaign(ch)
        alive = {id(ref()) for ref in refs if ref() is not None}
        assert alive == {id(plan) for s in ch._cache.values() for plan in (s.tx, s.rx)}
        # the baseline's session and one per bit width
        assert len(ch._cache) == 5 and alive
        del ch
        assert all(ref() is None for ref in refs)
        refs = [ref for _ in range(1000 // 6 + 1) for ref in campaign(toy_channel(0.5))]
        assert len(refs) >= 2 * 1000
        assert all(ref() is None for ref in refs)


class TestChannelGeometryCache:
    budget = LinkBudget(tx_power_dbm=-10.0)

    def configs(self, tx_cb, rx_cb):
        return [
            ProtocolConfig(tx_codebook=tx_cb, rx_codebook=rx_cb, scheme=s, noise=self.budget)
            for s in Scheme
        ]

    def test_shared_channel_matches_fresh_channels(self):
        cb = dft_codebook(ArrayConfig(16))
        cfgs = self.configs(cb, cb)
        for i in range(12):
            ch = sample_channel(ChannelConfig(los=i % 2 == 0), derive_seed(505, i))
            shared = [run(cfg, ch, i) for cfg in cfgs]
            for cfg, out in zip(cfgs, shared):
                assert_outcomes_equal(out, run(cfg, dataclasses.replace(ch), i))

    def test_one_channel_through_two_arrays_matches_fresh_channels(self):
        wide = dft_codebook(ArrayConfig(16, 0.5))
        # Orthogonal beams on the 8-antenna quarter-wavelength grid.
        narrow = codebook_from_cosines(ArrayConfig(8, 0.25), (0.5, 0.0, -0.5))
        books = [(wide, wide), (narrow, narrow), (wide, narrow)]
        for i in range(6):
            ch = sample_channel(ChannelConfig(los=i % 2 == 0), derive_seed(606, i))
            for tx_cb, rx_cb in books:
                for cfg in self.configs(tx_cb, rx_cb):
                    assert_outcomes_equal(run(cfg, ch, i), run(cfg, dataclasses.replace(ch), i))

    def test_steering_built_once_per_end_per_channel(self, monkeypatch):
        calls = calls_to(monkeypatch, protocols, "_steering_matrix")
        cb = dft_codebook(ArrayConfig(16))
        cfgs = self.configs(cb, cb)
        for i in range(4):
            ch = sample_channel(ChannelConfig(), derive_seed(707, i))
            for cfg in cfgs:
                run(cfg, ch, i)
            # six schemes, 8 training stages and 6 SNR reports: one
            # transmit and one receive matrix
            assert len(calls) == 2 * (i + 1)


class TestSharedRealization:
    """Every run on one realization reads its gain tables and its noise
    stream; no run may see what another left behind."""

    budget = LinkBudget(tx_power_dbm=-10.0)

    def configs(self, **kwargs):
        cb = dft_codebook(ArrayConfig(16))
        return [
            ProtocolConfig(tx_codebook=cb, rx_codebook=cb, scheme=s, noise=self.budget, **kwargs)
            for s in Scheme
        ]

    @pytest.mark.parametrize("quantize_bits", [None, 2])
    def test_outcomes_do_not_depend_on_run_order(self, quantize_bits):
        cfgs = self.configs(quantize_bits=quantize_bits)
        for i in range(8):
            ch = sample_channel(ChannelConfig(los=i % 2 == 0), derive_seed(909, i))
            shared = [run(cfg, ch, i) for cfg in cfgs]
            # the last scheme first: the noise stream grows run by run
            backwards = dataclasses.replace(ch)
            shared_backwards = [run(cfg, backwards, i) for cfg in reversed(cfgs)][::-1]
            alone = [run(cfg, dataclasses.replace(ch), i) for cfg in reversed(cfgs)][::-1]
            for out, other, own in zip(shared, shared_backwards, alone):
                assert_outcomes_equal(out, own)
                assert_outcomes_equal(other, own)

    @pytest.mark.parametrize("spread", [0, 4])
    def test_table_slices_equal_direct_cascades(self, spread):
        tx_cb, rx_cb = dft_codebook(ArrayConfig(16)), dft_codebook(ArrayConfig(4))
        cfg = ProtocolConfig(tx_codebook=tx_cb, rx_codebook=rx_cb, scheme=Scheme.FEEDBACK_INPACKET)
        tx_w, rx_w = cfg._tx_plan.weights, cfg._rx_plan.weights
        for i in range(6):
            ch_cfg = ChannelConfig(los=i % 2 == 0, intra_cluster_tap_spread=spread)
            ch = sample_channel(ch_cfg, derive_seed(1010, i))
            table = protocols._session(cfg, ch, i).table(tx_w, rx_w)
            assert not table.flags.writeable
            direct = cascade_gains(tx_w, rx_w, dataclasses.replace(ch), tx_cb.cfg, rx_cb.cfg)
            assert _bits(table) == _bits(direct)
            for p in range(len(tx_cb)):
                row = cascade_gains(tx_w[p : p + 1], rx_w, ch, tx_cb.cfg, rx_cb.cfg)
                assert _bits(table[:, p : p + 1, :]) == _bits(row)
                for q in range(len(rx_cb)):
                    tx_p, rx_q = tx_w[p : p + 1], rx_w[q : q + 1]
                    taps = cascade_gains(tx_p, rx_q, ch, tx_cb.cfg, rx_cb.cfg)[:, 0, 0]
                    assert _bits(table[:, p, q]) == _bits(taps)

    @pytest.mark.parametrize("spread", [0, 4])
    def test_receive_stack_blocks_equal_their_own_cascades(self, spread):
        tx_cb, rx_cb = dft_codebook(ArrayConfig(16)), dft_codebook(ArrayConfig(4))
        q = len(rx_cb)
        for quantize_bits in (None, 3):
            cfg = ProtocolConfig(
                tx_codebook=tx_cb,
                rx_codebook=rx_cb,
                scheme=Scheme.FEEDBACK_BEAMCODING,
                quantize_bits=quantize_bits,
            )
            tx, rx = cfg._tx_plan, cfg._rx_plan
            for i in range(4):
                ch_cfg = ChannelConfig(los=i % 2 == 0, intra_cluster_tap_spread=spread)
                ch = sample_channel(ch_cfg, derive_seed(1818, i))
                s = protocols._session(cfg, ch, i)
                clean = s.untransformed
                for table, tx_w, rx_w in (
                    (s.whole, tx.weights, rx.weights),
                    (s.coded, tx.coded[0], rx.weights),
                    (clean.whole, tx.untransformed.weights, rx.untransformed.weights),
                ):
                    for block, own in ((table[:, :, :q], rx_w), (table[:, :, q:], rx.composite)):
                        fresh = dataclasses.replace(ch)
                        direct = cascade_gains(tx_w, own, fresh, tx_cb.cfg, rx_cb.cfg)
                        assert _bits(block.copy()) == _bits(direct)

    def test_exhaustive_traces_are_one_read_only_array(self):
        by_scheme = {cfg.scheme: cfg for cfg in self.configs(quantize_bits=3)}
        pbp, inpacket, coded = (
            Scheme.EXHAUSTIVE_PBP,
            Scheme.EXHAUSTIVE_INPACKET,
            Scheme.EXHAUSTIVE_BEAMCODING,
        )
        cfg = by_scheme[coded]
        tx_fields, chips = cfg._tx_plan.coded
        n_cfg = cfg.tx_codebook.cfg
        for i in range(4):
            ch = sample_channel(ChannelConfig(los=i % 2 == 0), derive_seed(1919, i))
            outs = {s: run(by_scheme[s], ch, i) for s in (pbp, inpacket, coded)}
            for out in outs.values():
                traces = out.power_traces
                assert isinstance(traces, np.ndarray) and not traces.flags.writeable
                assert traces.ndim == 2 and len(traces) == out.packets_sent
            power = outs[pbp].pair_power
            assert np.shares_memory(outs[pbp].power_traces, power)
            # the per-packet arrays each runner used to return
            fresh = dataclasses.replace(ch)
            table = cascade_gains(tx_fields, cfg._rx_plan.weights, fresh, n_cfg, n_cfg)
            s = protocols._session(cfg, fresh, i)
            est, *_ = protocols._stage(s, table, protocols._Noise(s.noise), chips)
            old = {
                pbp: tuple(power.reshape(power.size, 1)),
                inpacket: tuple(power.T.copy()),
                coded: tuple((np.abs(est) ** 2).sum(axis=0).T.copy()),
            }
            for scheme, rows in old.items():
                got = outs[scheme].power_traces
                assert [_bits(row) for row in got] == [_bits(row) for row in rows], scheme

    @staticmethod
    def multilevel_on_its_own_fine_cascade(cfg, ch, seed):
        """run_multilevel_pbp with the fine stage on a cascade of the fine
        weights, not on a slice of the codebook table."""
        s = protocols._session(cfg, ch, seed)
        noise = protocols._Noise(s.noise)
        tx_cfg, rx_cfg = cfg.tx_codebook.cfg, cfg.rx_codebook.cfg
        (tx_wide, tx_groups), (rx_wide, rx_groups) = cfg._tx_plan.sectors, cfg._rx_plan.sectors
        wide = cascade_gains(tx_wide, rx_wide, ch, tx_cfg, rx_cfg)
        *_, power1, _ = protocols._stage(s, wide, noise)
        s_tx, s_rx = protocols._argmax_pair(power1)
        fine_tx, fine_rx = tx_groups[s_tx], rx_groups[s_rx]
        tx_w, rx_w = cfg._tx_plan.weights[fine_tx], cfg._rx_plan.weights[fine_rx]
        fine = cascade_gains(tx_w, rx_w, ch, tx_cfg, rx_cfg)
        *_, power2, detected = protocols._stage(s, fine, noise)
        local = protocols._argmax_pair(power2)
        pair = (int(fine_tx[local[0]]), int(fine_rx[local[1]])) if detected else None
        packets = len(tx_wide) * len(rx_wide) + len(fine_tx) * len(fine_rx)
        bits = packets * PER_BEAM_BITS_80211AD
        traces = (power1.ravel(), power2.ravel())
        scheme = Scheme.MULTILEVEL_PBP
        return protocols._outcome(scheme, cfg, s, seed, pair, traces, packets, bits, power2)

    @pytest.mark.parametrize("spread", [0, 4])
    @pytest.mark.parametrize("quantize_bits", [None, 3])
    @pytest.mark.parametrize("antennas", [4, 8, 16])
    def test_fine_stage_slice_equals_its_own_cascade(self, antennas, quantize_bits, spread):
        cb = dft_codebook(ArrayConfig(antennas))
        cfg = ProtocolConfig(
            tx_codebook=cb,
            rx_codebook=cb,
            scheme=Scheme.MULTILEVEL_PBP,
            noise=self.budget,
            quantize_bits=quantize_bits,
        )
        for i in range(8):
            ch_cfg = ChannelConfig(los=i % 2 == 0, intra_cluster_tap_spread=spread)
            ch = sample_channel(ch_cfg, derive_seed(1616, i))
            own = self.multilevel_on_its_own_fine_cascade(cfg, dataclasses.replace(ch), i)
            assert_outcomes_equal(run(cfg, ch, i), own)

    @pytest.mark.parametrize("n_tx, n_rx", [(4, 4), (8, 16), (16, 4), (2, 3), (32, 32)])
    def test_stage_scales_as_a_division_by_the_root(self, n_tx, n_rx):
        # numpy divides a complex by a real as a product with the
        # reciprocal, which differs only on -0.0 and no table holds one, so
        # even a root that is not exact (sqrt(8 * 16)) leaves every bit.
        tx_cb, rx_cb = dft_codebook(ArrayConfig(n_tx)), dft_codebook(ArrayConfig(n_rx))
        cfg = ProtocolConfig(tx_codebook=tx_cb, rx_codebook=rx_cb, scheme=Scheme.EXHAUSTIVE_PBP)
        root = math.sqrt(n_tx * n_rx)
        rng = np.random.default_rng(n_tx * 100 + n_rx)
        channels = [ChannelRealization([], [], [], [])]
        for i in range(8):
            ch_cfg = ChannelConfig(los=i % 2 == 0, intra_cluster_tap_spread=i % 3)
            channels.append(sample_channel(ch_cfg, derive_seed(1717, i)))
        for ch in channels:
            random_tx = rng.standard_normal((3, n_tx)) + 1j * rng.standard_normal((3, n_tx))
            for tx_w in (tx_cb.matrix, random_tx):
                table = cascade_gains(tx_w, rx_cb.matrix, ch, tx_cb.cfg, rx_cb.cfg)
                s = protocols._session(cfg, ch, 0)
                est, *_ = protocols._stage(s, table, protocols._Noise(s.noise))
                assert _bits(est) == _bits(table / root)

    @pytest.mark.parametrize("first", [Scheme.EXHAUSTIVE_PBP, Scheme.EXHAUSTIVE_INPACKET])
    def test_exhaustive_schemes_share_one_estimate(self, monkeypatch, first):
        stages = calls_to(monkeypatch, protocols, "_stage")
        cascades = calls_to(monkeypatch, protocols, "_cascade")
        by_scheme = {cfg.scheme: cfg for cfg in self.configs()}
        pbp, inpacket = by_scheme[Scheme.EXHAUSTIVE_PBP], by_scheme[Scheme.EXHAUSTIVE_INPACKET]
        order = (pbp, inpacket) if first is Scheme.EXHAUSTIVE_PBP else (inpacket, pbp)
        for i in range(4):
            ch = sample_channel(ChannelConfig(los=i % 2 == 0), derive_seed(1212, i))
            stages.clear()
            cascades.clear()
            shared = {cfg.scheme: run(cfg, ch, i) for cfg in order}
            # one stage and one cascade, that of the codebook's receive stack
            assert len(stages) == 1 and len(cascades) == 1
            for cfg in order:
                assert_outcomes_equal(shared[cfg.scheme], run(cfg, dataclasses.replace(ch), i))
            power = shared[Scheme.EXHAUSTIVE_PBP].pair_power
            assert shared[Scheme.EXHAUSTIVE_INPACKET].pair_power is power
            assert not power.flags.writeable

    def test_shared_estimate_is_kept_per_seed_and_noise(self):
        quiet = LinkBudget(tx_power_dbm=10.0)
        cfgs = [cfg for cfg in self.configs() if cfg.scheme is Scheme.EXHAUSTIVE_PBP]
        cfgs.append(dataclasses.replace(cfgs[0], noise=quiet, scheme=Scheme.EXHAUSTIVE_INPACKET))
        ch = sample_channel(ChannelConfig(los=False), derive_seed(1313, 0))
        for cfg in cfgs:
            for seed in (0, 1):
                assert_outcomes_equal(run(cfg, ch, seed), run(cfg, dataclasses.replace(ch), seed))

    def test_scheme_mix_operation_makes_four_cascades(self, monkeypatch):
        cascades = calls_to(monkeypatch, protocols, "_cascade")
        generators = calls_to(monkeypatch, np.random, "default_rng")
        cfgs = self.configs()
        for i in range(4):
            ch = sample_channel(ChannelConfig(los=i % 2 == 0), derive_seed(1111, i))
            generators.clear()
            for cfg in cfgs:
                run(cfg, ch, i)
            # the codebook's receive-stack table serves both exhaustive
            # schemes, the multilevel fine stage, both feedback in-packet
            # stages and every SNR; the coded fields' serves coded
            # exhaustive and the first coded feedback stage; the other two
            # are the multilevel sector stage and the second coded
            # feedback stage
            assert len(cascades) == 4 * (i + 1)
            assert generators == [(derive_seed(i, protocols._NOISE_STREAM),)]
            # all six configs train through one session
            assert len(ch._cache) == 1

    def test_quant_sweep_channel_makes_six_cascades(self, monkeypatch):
        cascades = calls_to(monkeypatch, protocols, "_cascade")
        steering = calls_to(monkeypatch, protocols, "_steering_matrix")
        cb = dft_codebook(ArrayConfig(16))
        base = ProtocolConfig(
            tx_codebook=cb, rx_codebook=cb, scheme=Scheme.EXHAUSTIVE_PBP, snr_budget=self.budget
        )
        cfgs = [base] + [
            dataclasses.replace(base, scheme=Scheme.EXHAUSTIVE_BEAMCODING, quantize_bits=bits)
            for bits in (1, 2, 3, 4, None)
        ]
        for i in range(4):
            ch = sample_channel(ChannelConfig(los=i % 2 == 0), derive_seed(1515, i))
            for cfg in cfgs:
                run(cfg, ch, i)
            # one table per config; every SNR reads the baseline's, through
            # the untransformed session that each quantized session holds,
            # and so do its steering matrices
            assert len(cascades) == 6 * (i + 1)
            assert len(steering) == 2 * (i + 1)

    def test_threads_on_one_realization_match_serial_runs(self):
        from concurrent.futures import ThreadPoolExecutor

        cfgs = self.configs()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(cfgs)) as pool:
                for i in range(200):
                    ch = sample_channel(ChannelConfig(los=i % 2 == 0), derive_seed(2323, i))
                    barrier = threading.Barrier(len(cfgs), timeout=10)

                    def train(cfg, ch=ch, i=i, barrier=barrier):
                        barrier.wait()
                        return run(cfg, ch, i)

                    for cfg, out in zip(cfgs, list(pool.map(train, cfgs))):
                        assert_outcomes_equal(out, run(cfg, dataclasses.replace(ch), i))
        finally:
            sys.setswitchinterval(interval)

    def test_a_realization_is_freed_without_the_cyclic_collector(self):
        cfgs = self.configs()
        cfgs.append(dataclasses.replace(cfgs[-1], quantize_bits=3))
        enabled = gc.isenabled()
        gc.disable()
        try:
            ch = sample_channel(ChannelConfig(), derive_seed(2424, 0))
            for cfg in cfgs:
                run(cfg, ch, 0)
            # the realization and its two sessions
            refs = [weakref.ref(ch)] + [weakref.ref(s) for s in ch._cache.values()]
            assert len(refs) == 3
            del ch
            assert all(ref() is None for ref in refs)
        finally:
            if enabled:
                gc.enable()

    def test_noiseless_runs_draw_nothing(self, monkeypatch):
        ch = sample_channel(ChannelConfig(), derive_seed(1212, 0))
        # making a generator would now raise TypeError
        monkeypatch.setattr(np.random, "default_rng", None)
        for cfg in self.configs():
            run(dataclasses.replace(cfg, noise=None, snr_budget=self.budget), ch, 0)


class TestLogging:
    def records(self, caplog):
        return [r for r in caplog.records if r.name == "beamtrain.protocols"]

    def test_one_debug_record_per_run(self, caplog):
        caplog.set_level(logging.DEBUG, logger="beamtrain.protocols")
        ch = toy_channel(0.5)
        outcomes = [run(toy_config(s, num_sectors=2), ch, 3) for s in Scheme]
        records = self.records(caplog)
        assert [r.levelno for r in records] == [logging.DEBUG] * len(outcomes)
        for record, out in zip(records, outcomes):
            assert record.getMessage() == (
                f"{out.scheme.value} seed 3: success=True pair={TOY_LOS_PAIR}"
            )

    def test_failed_run_logs_no_pair(self, caplog):
        caplog.set_level(logging.DEBUG, logger="beamtrain.protocols")
        run(toy_config(Scheme.EXHAUSTIVE_PBP), ChannelRealization([], [], [], []), 0)
        (record,) = self.records(caplog)
        assert record.getMessage() == "exhaustive_pbp seed 0: success=False pair=None"

    def test_silent_at_default_level(self, caplog):
        caplog.set_level(logging.WARNING, logger="beamtrain")
        ch = sample_channel(ChannelConfig(), derive_seed(808, 0))
        cb = dft_codebook(ArrayConfig(16))
        for scheme in Scheme:
            run(ProtocolConfig(tx_codebook=cb, rx_codebook=cb, scheme=scheme), ch, 0)
        assert not self.records(caplog)
