import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrain import channel, protocols
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
    Ray,
    cascade_gains,
    derive_seed,
    sample_channel,
    toy_channel,
    toy_codebooks,
)
from beamtrain.packets import PER_BEAM_BITS_80211AD, PER_BEAM_BITS_BEAM_CODING, training_bits
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

    def test_feedback_cost_configurable_and_outside_training_bits(self):
        cfg = toy_config(Scheme.FEEDBACK_BEAMCODING, feedback_bits=256)
        out = run_feedback_beamcoding(cfg, toy_channel(0.5), 0)
        assert out.feedback_bits == 256
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
        empty = ChannelRealization(rays=())
        for scheme in Scheme:
            cfg = toy_config(scheme)
            out = run(cfg, empty, 0)
            assert not out.success
            assert out.best_pair is None
            assert out.snr_db == -math.inf

    def test_noise_only_channel_rarely_detects(self):
        empty = ChannelRealization(rays=())
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
            budget = LinkBudget(tx_power_dbm=10.0, noise_override_dbm=noise_dbm)
            cfg = toy_config(Scheme.EXHAUSTIVE_BEAMCODING, noise=budget, ce_chips=1)
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
        budget = LinkBudget(tx_power_dbm=10.0, noise_override_dbm=6.0)
        cfg = toy_config(Scheme.FEEDBACK_INPACKET, noise=budget, ce_chips=1)
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
        st.lists(
            st.builds(
                Ray,
                aod_deg=st.floats(0.0, 180.0),
                aoa_deg=st.floats(0.0, 180.0),
                gain=st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                tap=st.integers(0, 4),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_coded_decode_equals_exhaustive_table(self, beams, rays):
        n, indices = beams
        cb = dft_codebook(ArrayConfig(n))
        tx_cb = subset(cb, sorted(indices))
        ch = ChannelRealization(rays=tuple(rays))

        def outcome(scheme):
            return run(ProtocolConfig(tx_codebook=tx_cb, rx_codebook=cb, scheme=scheme), ch, 0)

        coded = outcome(Scheme.EXHAUSTIVE_BEAMCODING)
        table = outcome(Scheme.EXHAUSTIVE_PBP).pair_power
        # The decode carries T / sqrt(K) on every per-tap amplitude.
        k = len(tx_cb)
        t = 1 << (k - 1).bit_length()
        bound = sum(abs(r.gain) for r in rays) ** 2
        np.testing.assert_allclose(coded.pair_power * k / t**2, table, rtol=0, atol=1e-12 * bound)


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


class TestTrainingPlan:
    def plan_arrays(self, cfg):
        arrays = []
        for plan in (cfg._tx_plan, cfg._rx_plan):
            beams, groups = plan.sectors
            arrays += [plan.weights, *plan.coded, beams, *groups, plan.composite]
        return arrays

    def test_matrices_are_read_only(self):
        cb = dft_codebook(ArrayConfig(8))
        cfg = ProtocolConfig(tx_codebook=cb, rx_codebook=cb, scheme=Scheme.EXHAUSTIVE_PBP)
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
        calls = []

        def counting_coded_fields(*args, **kwargs):
            calls.append(1)
            return coded_fields(*args, **kwargs)

        monkeypatch.setattr(protocols, "coded_fields", counting_coded_fields)
        cb = dft_codebook(ArrayConfig(16))
        cfgs = [ProtocolConfig(tx_codebook=cb, rx_codebook=cb, scheme=s) for s in Scheme]
        for i in range(5):
            ch = sample_channel(ChannelConfig(), derive_seed(9, i))
            for cfg in cfgs:
                run(cfg, ch, i)
        # one transmit schedule for each coded scheme, one receive schedule
        # for feedback coding
        assert len(calls) == 3


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
        calls = []

        def counting_steering_matrix(angles_deg, cfg):
            calls.append(cfg)
            return steering_matrix(angles_deg, cfg)

        steering_matrix = channel._steering_matrix
        monkeypatch.setattr(channel, "_steering_matrix", counting_steering_matrix)
        cb = dft_codebook(ArrayConfig(16))
        cfgs = self.configs(cb, cb)
        for i in range(4):
            ch = sample_channel(ChannelConfig(), derive_seed(707, i))
            for cfg in cfgs:
                run(cfg, ch, i)
            # six schemes, 9 training stages and 6 SNR reports: one
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
        quantized = dataclasses.replace(cfg, quantize_bits=3)
        tx_w, rx_w = cfg._tx_plan.weights, cfg._rx_plan.weights
        for i in range(6):
            ch_cfg = ChannelConfig(los=i % 2 == 0, intra_cluster_tap_spread=spread)
            ch = sample_channel(ch_cfg, derive_seed(1010, i))
            table = ch.gain_table(tx_w, rx_w, tx_cb.cfg, rx_cb.cfg)
            assert not table.flags.writeable
            direct = cascade_gains(tx_w, rx_w, dataclasses.replace(ch), tx_cb.cfg, rx_cb.cfg)
            assert _bits(table) == _bits(direct)
            # keyed on the weights' bytes, so the clean codebooks of any
            # config read the same entry
            assert ch.gain_table(tx_w.copy(), rx_w.copy(), tx_cb.cfg, rx_cb.cfg) is table
            for plan_cfg in (cfg, quantized):
                clean = (plan_cfg._tx_plan.clean, plan_cfg._rx_plan.clean)
                assert ch.gain_table(*clean, tx_cb.cfg, rx_cb.cfg) is table
            for p in range(len(tx_cb)):
                row = cascade_gains(tx_w[p : p + 1], rx_w, ch, tx_cb.cfg, rx_cb.cfg)
                assert _bits(table[:, p : p + 1, :]) == _bits(row)
                for q in range(len(rx_cb)):
                    tx_p, rx_q = tx_w[p : p + 1], rx_w[q : q + 1]
                    taps = cascade_gains(tx_p, rx_q, ch, tx_cb.cfg, rx_cb.cfg)[:, 0, 0]
                    assert _bits(table[:, p, q]) == _bits(taps)

    def test_scheme_mix_operation_makes_seven_cascades(self, monkeypatch):
        cascades, generators = [], []
        cascade, default_rng = channel.cascade_gains, np.random.default_rng

        def counting_cascade(*args):
            cascades.append(1)
            return cascade(*args)

        def counting_default_rng(seed):
            generators.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(channel, "cascade_gains", counting_cascade)
        monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
        cfgs = self.configs()
        for i in range(4):
            ch = sample_channel(ChannelConfig(los=i % 2 == 0), derive_seed(1111, i))
            generators.clear()
            for cfg in cfgs:
                run(cfg, ch, i)
            # the codebook table serves both exhaustive schemes, feedback
            # in-packet's second stage and every SNR; the other stages are
            # the two multilevel stages, feedback in-packet's first, coded
            # exhaustive and both coded feedback stages
            assert len(cascades) == 7 * (i + 1)
            assert generators == [derive_seed(i, protocols._NOISE_STREAM)]

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
        run(toy_config(Scheme.EXHAUSTIVE_PBP), ChannelRealization(rays=()), 0)
        (record,) = self.records(caplog)
        assert record.getMessage() == "exhaustive_pbp seed 0: success=False pair=None"

    def test_silent_at_default_level(self, caplog):
        caplog.set_level(logging.WARNING, logger="beamtrain")
        ch = sample_channel(ChannelConfig(), derive_seed(808, 0))
        cb = dft_codebook(ArrayConfig(16))
        for scheme in Scheme:
            run(ProtocolConfig(tx_codebook=cb, rx_codebook=cb, scheme=scheme), ch, 0)
        assert not self.records(caplog)
