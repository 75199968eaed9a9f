"""Metamorphic relations: how training outcomes must move when the channel
is changed in a known way.

Each relation compares the library with itself on a transformed channel,
so it holds on any BLAS or SIMD kernel selection, unlike the goldens,
which pin the last bits of one machine.  Every case is noiseless with an
SNR budget, over 100 seeded channels (LOS and NLOS alternating) for each
tap spread, codebook shape and weight transform.
"""

import numpy as np
import pytest

from beamtrain.array_model import ArrayConfig, dft_codebook
from beamtrain.channel import (
    ChannelConfig,
    ChannelRealization,
    LinkBudget,
    derive_seed,
    sample_channel,
)
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


def channels(spread):
    for i in range(CHANNELS):
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
