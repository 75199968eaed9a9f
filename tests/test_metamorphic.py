"""Metamorphic relations: how training outcomes and power-var gammas must
move when the channel is changed in a known way.

Each relation compares the library with itself on a transformed channel,
so it holds on any BLAS or SIMD kernel selection, unlike the goldens,
which pin the last bits of one machine.  Every training case is noiseless
with an SNR budget, over seeded channels (LOS and NLOS alternating) for
each tap spread and codebook shape: 100 for each weight transform in the
first two relations, 50 in the others.  The power-var relations run a
small campaign on configs that take either of sigma's two kernels.
"""

from dataclasses import replace

import numpy as np
import pytest

from beamtrain import beam_coding, harness
from beamtrain.array_model import ArrayConfig, dft_codebook
from beamtrain.beam_coding import CE_GOLAY
from beamtrain.channel import (
    ChannelConfig,
    ChannelRealization,
    LinkBudget,
    derive_seed,
    sample_channel,
)
from beamtrain.experiment import ExperimentConfig
from beamtrain.protocols import ProtocolConfig, Scheme, run

CHANNELS = 100
SPREADS = (0, 4)
SHAPES = ((16, 8), (8, 8))
# (quantize_bits, project_phase_only) of each weight transform.
TRANSFORMS = {"none": (None, False), "3-bit": (3, False), "phase-only": (None, True)}

# The swap relation skips a channel whose two best pairs are this close:
# the swapped cascade rounds in another order and may pick either.
TIE_RTOL = 1e-9

# Schemes whose pick must be the transposed pair on the swapped channel.
# Coded exhaustive training codes the transmit end: a transform then acts
# on coded fields at one end and on single beams at the other, so its pick
# may differ once the ends swap.
SYMMETRIC = (Scheme.EXHAUSTIVE_PBP, Scheme.EXHAUSTIVE_INPACKET)
SYMMETRIC_WITHOUT_TRANSFORMS = (Scheme.EXHAUSTIVE_BEAMCODING,)


def channels(spread, count=CHANNELS):
    for i in range(count):
        cfg = ChannelConfig(los=i % 2 == 0, intra_cluster_tap_spread=spread)
        seed = derive_seed(31, i)
        yield seed, sample_channel(cfg, seed)


def configs(tx_antennas, rx_antennas, transform):
    """A noiseless config of every scheme, keyed by scheme, on DFT codebooks;
    one codebook object serves both ends of an equal pair."""
    books = {n: dft_codebook(ArrayConfig(n)) for n in {tx_antennas, rx_antennas}}
    bits, phase_only = TRANSFORMS[transform]
    return {
        scheme: ProtocolConfig(
            books[tx_antennas],
            books[rx_antennas],
            scheme,
            snr_budget=LinkBudget(),
            quantize_bits=bits,
            project_phase_only=phase_only,
        )
        for scheme in Scheme
    }


def outcomes(cfgs, ch, seed):
    return {scheme: run(cfg, ch, seed) for scheme, cfg in cfgs.items()}


def exactly_scaled(got, want, factor):
    if want is None:
        return got is None
    return np.array_equal(got, factor * np.asarray(want))


def scaling_violations(base, scaled):
    """What doubling every ray gain broke: the pick, or an exact 4x power
    (pair powers, every trace) or 2x correlation."""
    wrong = []
    for scheme, a in base.items():
        b = scaled[scheme]
        checks = {
            "best_pair": a.best_pair == b.best_pair,
            "pair_power": exactly_scaled(b.pair_power, a.pair_power, 4.0),
            "correlation": exactly_scaled(b.correlation, a.correlation, 2.0),
            "power_traces": len(a.power_traces) == len(b.power_traces)
            and all(exactly_scaled(y, x, 4.0) for x, y in zip(a.power_traces, b.power_traces)),
        }
        wrong += [f"{scheme.value}.{name}" for name, ok in checks.items() if not ok]
    return wrong


@pytest.mark.parametrize("spread", SPREADS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "%dx%d" % s)
def test_doubling_every_ray_gain_scales_powers_by_four(shape, spread):
    # A power-of-two scale is exact in every product and sum, so every
    # kernel keeps it bit for bit.
    cfgs = {name: configs(*shape, name) for name in TRANSFORMS}
    violations = []
    for seed, ch in channels(spread):
        doubled = ChannelRealization(ch.aods_deg, ch.aoas_deg, 2.0 * ch.gains, ch.taps)
        for name, cfg in cfgs.items():
            wrong = scaling_violations(outcomes(cfg, ch, seed), outcomes(cfg, doubled, seed))
            violations += [(seed, name, w) for w in wrong]
    assert violations == []


@pytest.mark.parametrize("spread", SPREADS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "%dx%d" % s)
def test_swapping_the_ends_transposes_the_exhaustive_picks(shape, spread, record_property):
    forward = {name: configs(*shape, name) for name in TRANSFORMS}
    backward = {name: configs(*shape[::-1], name) for name in TRANSFORMS}
    violations, skipped = [], 0
    for seed, ch in channels(spread):
        swapped = ChannelRealization(ch.aoas_deg, ch.aods_deg, ch.gains, ch.taps)
        for name in TRANSFORMS:
            there = outcomes(forward[name], ch, seed)
            best, second = np.sort(there[Scheme.EXHAUSTIVE_PBP].pair_power, axis=None)[-2:][::-1]
            if best - second <= TIE_RTOL * best:
                skipped += 1
                continue
            back = outcomes(backward[name], swapped, seed)
            schemes = SYMMETRIC + (SYMMETRIC_WITHOUT_TRANSFORMS if name == "none" else ())
            for scheme in schemes:
                if back[scheme].best_pair != there[scheme].best_pair[::-1]:
                    violations.append((seed, name, scheme.value))
    record_property("skipped", skipped)
    # A relation that skips most of its cases shows nothing.
    assert skipped <= CHANNELS * len(TRANSFORMS) // 10, f"{skipped} near-ties skipped"
    assert violations == []


# Powers that must agree up to rounding, entry by entry.
POWER_RTOL = 1e-12
ROTATION = np.exp(0.7j)


def rays_changed(ch, seed):
    """The three changes of the rays that must keep every pick: each gain
    times e^{0.7j}, the rays in a seeded random order, and each tap one
    later.  The first two may round the powers differently."""
    order = np.random.default_rng(seed).permutation(len(ch.gains))
    return {
        "rotated": ChannelRealization(ch.aods_deg, ch.aoas_deg, ROTATION * ch.gains, ch.taps),
        "reordered": ChannelRealization(
            ch.aods_deg[order], ch.aoas_deg[order], ch.gains[order], ch.taps[order]
        ),
        "delayed": ChannelRealization(ch.aods_deg, ch.aoas_deg, ch.gains, ch.taps + 1),
    }


def close(got, want):
    if got is None or want is None:
        return got is want
    return np.allclose(got, want, rtol=POWER_RTOL, atol=0.0)


def powers_close(a, b):
    """Pair powers and every power trace of two outcomes within POWER_RTOL."""
    return (
        close(b.pair_power, a.pair_power)
        and len(a.power_traces) == len(b.power_traces)
        and all(close(y, x) for x, y in zip(a.power_traces, b.power_traces))
    )


@pytest.mark.parametrize("spread", SPREADS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "%dx%d" % s)
def test_rotating_reordering_or_delaying_the_rays_keeps_the_picks(shape, spread, record_property):
    # On half the channels and without weight transforms, to keep the file
    # fast: the transforms act on the weights, which none of these changes
    # touches.
    cfg = configs(*shape, "none")
    violations, skipped = [], 0
    for seed, ch in channels(spread, CHANNELS // 2):
        base = outcomes(cfg, ch, seed)
        best, second = np.sort(base[Scheme.EXHAUSTIVE_PBP].pair_power, axis=None)[-2:][::-1]
        if best - second <= TIE_RTOL * best:
            skipped += 1
            continue
        for change, changed in rays_changed(ch, seed).items():
            for scheme, b in outcomes(cfg, changed, seed).items():
                a = base[scheme]
                if a.best_pair != b.best_pair:
                    violations.append((seed, change, scheme.value, "best_pair"))
                if change != "delayed" and not powers_close(a, b):
                    violations.append((seed, change, scheme.value, "powers"))
    record_property("skipped", skipped)
    assert skipped <= CHANNELS // 20, f"{skipped} near-ties skipped"
    assert violations == []


# Power-var channels: the default ones take sigma's window dot products;
# both wide ones send channels to its whole-field convolution, the first
# most of them (few nonzero taps, but past 128 taps), the second all.
POWER_VAR_CHANNELS = {
    "default": ChannelConfig(),
    "taps-200": ChannelConfig(max_excess_tap=200),
    "taps-200-spread-8": ChannelConfig(
        max_excess_tap=200, intra_cluster_tap_spread=8, num_clusters=8, rays_per_cluster=5
    ),
}


@pytest.mark.parametrize("name", POWER_VAR_CHANNELS)
def test_power_var_gammas_ignore_the_gain_scale_and_phase(name, monkeypatch):
    # Doubling every gain makes every power P and sigma exactly 4x, so
    # gamma = P / (3 sigma) keeps every bit; a common phase keeps gamma up
    # to rounding.
    exp = ExperimentConfig(runs=10, channel=POWER_VAR_CHANNELS[name])
    convolved = []
    kernel = beam_coding._convolved_field_powers
    monkeypatch.setattr(
        beam_coding, "_convolved_field_powers", lambda t: convolved.append(t) or kernel(t)
    )
    base = harness.power_var_campaign(exp).gammas
    assert (len(convolved) == 0) == (name == "default")

    def gammas(factor):
        def sample(cfg, seed):
            ch = sample_channel(cfg, seed)
            return replace(ch, gains=factor * ch.gains)

        monkeypatch.setattr(harness, "sample_channel", sample)
        return harness.power_var_campaign(exp).gammas

    assert np.array_equal(gammas(2.0), base)
    assert np.allclose(gammas(ROTATION), base, rtol=POWER_RTOL, atol=0.0)


@pytest.mark.parametrize("name", POWER_VAR_CHANNELS)
def test_power_var_tap_shift_scales_gammas_by_the_field_length(name, monkeypatch):
    # Moving every tap one later keeps each field's power, and sigma, the
    # mean power of a CE field of 2(L + T - 1) samples, keeps their sum
    # 2L |h|^2 (Golay complementarity) over two more samples: every gamma
    # grows by (L + T) / (L + T - 1), with T the channel's tap count.
    exp = ExperimentConfig(runs=20, channel=POWER_VAR_CHANNELS[name])
    base = harness.power_var_campaign(exp).gammas
    tap_counts = []

    def delayed(cfg, seed):
        ch = sample_channel(cfg, seed)
        tap_counts.append(ch.num_taps)
        return replace(ch, taps=ch.taps + 1)

    monkeypatch.setattr(harness, "sample_channel", delayed)
    shifted = harness.power_var_campaign(exp).gammas
    length = CE_GOLAY.shape[1]
    t = np.reshape(tap_counts, (*base.shape[:2], 1))
    assert np.allclose(shifted, base * (length + t) / (length + t - 1), rtol=1e-12, atol=0.0)
