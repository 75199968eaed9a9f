"""Sample-level oracles that the tests hold the library to.

The library works at field level: a field is its mean power, a preamble
its sigma, a coded stage its decoded table.  The functions here build the
same things sample by sample, the slow and plain way: the CE field as
heard through a tapped channel, a Golay-correlation receiver per delay
tap, complex Gaussian noise, the taps of a weight row through a channel
ray by ray, the per-layout power trace and preamble stream of a packet,
and the sidelobe level of an array pattern.  No campaign or subcommand
calls them.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from beamtrain.array_model import ArrayConfig, array_factor_many
from beamtrain.beam_coding import CE_GOLAY, _checked_chips, walsh_decode
from beamtrain.channel import ChannelRealization, LinkBudget
from beamtrain.harness import _tap_rows

__all__ = [
    "encode_ce_field",
    "decode_per_tap",
    "add_noise",
    "ray_taps",
    "power_trace",
    "preamble_samples",
    "sidelobe_level",
]


def encode_ce_field(tap_gains: Sequence[complex], golay: np.ndarray, guard: int) -> np.ndarray:
    """One CE field as heard through a tapped channel.

    The transmitted field is [a | guard zeros | b | guard zeros] for the
    (2, L) Golay chip matrix ``golay`` = [a, b]; ``guard`` must be at least
    the highest tap index so the two halves do not smear into each other.
    """
    h = np.asarray(tap_gains, dtype=np.complex128)
    if h.ndim != 1 or h.size == 0:
        raise ValueError("tap_gains must be a nonempty 1-D sequence")
    if guard < h.size - 1:
        raise ValueError(f"guard {guard} shorter than channel spread {h.size - 1}")
    length = golay.shape[1]
    width = length + guard
    out = np.zeros(2 * width, dtype=np.complex128)
    spread = length + h.size - 1
    out[:spread] = np.convolve(golay[0], h)
    out[width : width + spread] = np.convolve(golay[1], h)
    return out


def decode_per_tap(
    received_fields: np.ndarray,
    golay: np.ndarray,
    chips: np.ndarray,
    num_taps: int | None = None,
) -> np.ndarray:
    """Per-beam, per-delay-tap gain estimates from coded CE fields.

    ``received_fields[t]`` is the sample stream of field t in the
    :func:`encode_ce_field` layout.  Golay correlation turns each field
    into a tap-delay profile; correlating the profiles against the codes
    across fields with the (K, T) chip matrix ``chips`` separates the
    beams.  Output is (K, num_taps) and is fully normalized: gains injected
    through a :func:`~beamtrain.beam_coding.coded_fields` composite come
    back at their original scale.
    """
    chips = _checked_chips(chips)
    y = np.asarray(received_fields, dtype=np.complex128)
    t = chips.shape[1]
    if y.ndim != 2 or y.shape[0] != t:
        raise ValueError(f"expected {t} fields of samples")
    length = golay.shape[1]
    if y.shape[1] < 2 * length:
        raise ValueError(f"field of {y.shape[1]} samples is shorter than the CE pair")
    width = y.shape[1] // 2
    guard = width - length
    if num_taps is None:
        num_taps = guard + 1
    if num_taps > guard + 1:
        raise ValueError(f"cannot resolve {num_taps} taps from a guard of {guard}")

    profiles = np.empty((t, num_taps), dtype=np.complex128)
    a, b = golay.astype(np.complex128)
    for d in range(num_taps):
        profiles[:, d] = (
            y[:, d : d + length] @ a + y[:, width + d : width + d + length] @ b
        ) / (2.0 * length)

    return (math.sqrt(len(chips)) / t) * walsh_decode(chips.astype(np.complex128), profiles)


def add_noise(samples: np.ndarray, budget: LinkBudget, seed: int) -> np.ndarray:
    """Add circularly-symmetric complex Gaussian noise at the budgeted level.

    Samples are amplitudes in units where unit power equals the transmit
    power, so the injected noise has linear power ``budget.noise_to_signal``.
    Deterministic under ``seed``.
    """
    arr = np.asarray(samples, dtype=np.complex128)
    power = budget.noise_to_signal
    if power == 0.0:
        return arr.copy()
    rng = np.random.default_rng(seed)
    scale = math.sqrt(power / 2.0)
    noise = rng.standard_normal(arr.shape) + 1j * rng.standard_normal(arr.shape)
    return arr + scale * noise


def ray_taps(
    tx: np.ndarray,
    rx_w: np.ndarray,
    ch: ChannelRealization,
    tx_cfg: ArrayConfig,
    rx_cfg: ArrayConfig,
) -> np.ndarray:
    """Taps of each transmit weight row through the (N,) receive weights
    ``rx_w``, shape (rows, num_taps), ray by ray: each ray's gain times
    every row's array factor (``w @ steering``) at its departure angle
    times the receiver's at its arrival angle, added into its tap in ray
    order.  Neither :func:`~beamtrain.channel.cascade_gains` nor its
    steering matrices take part.  A ray's products run over all
    rows at once: numpy's array multiply rounds unlike a scalar product.
    """
    taps = np.zeros((len(tx), ch.num_taps), dtype=np.complex128)
    rx_response = array_factor_many(rx_w, ch.aoas_deg, rx_cfg)
    tx_responses = np.stack([array_factor_many(w, ch.aods_deg, tx_cfg) for w in tx], axis=1)
    for gain, tap, t, r in zip(ch.gains, ch.taps.tolist(), tx_responses, rx_response):
        taps[:, tap] += gain * t * r
    return taps


def power_trace(
    layout: tuple[np.ndarray, np.ndarray],
    ch: ChannelRealization,
    rx_w: np.ndarray,
    tx_cfg: ArrayConfig,
    rx_cfg: ArrayConfig,
) -> tuple[float, np.ndarray]:
    """Mean received power of the preamble and of each TRN field of a
    ``(preamble, fields)`` layout, as ``(preamble_power, field_powers)``.

    The preamble power averages over the preamble's weight cycle; ``rx_w``
    holds the (N,) receive weights.
    """
    preamble, fields = layout
    taps = _tap_rows(np.vstack([preamble, fields]), rx_w, ch, tx_cfg, rx_cfg)
    powers = np.sum(np.abs(taps) ** 2, axis=1)
    return float(np.mean(powers[: len(preamble)])), powers[len(preamble) :]


def preamble_samples(
    layout: tuple[np.ndarray, np.ndarray],
    ch: ChannelRealization,
    rx_w: np.ndarray,
    tx_cfg: ArrayConfig,
    rx_cfg: ArrayConfig,
) -> np.ndarray:
    """Received baseband samples of the preamble sequence through ``ch``.

    The preamble is modeled as a Golay pair of 512 chips each, sent once
    per weight in the layout's preamble cycle; what comes back is each
    chip stream convolved with the per-tap cascade gains, concatenated.
    This models the preamble's signal statistics, not its bit-true
    duration.
    """
    taps = _tap_rows(layout[0], rx_w, ch, tx_cfg, rx_cfg)
    guard = taps.shape[1] - 1
    return np.concatenate([encode_ce_field(h, CE_GOLAY, guard) for h in taps])


def sidelobe_level(
    w: np.ndarray,
    cfg: ArrayConfig,
    *,
    step_deg: float = 0.05,
    main_threshold_db: float = 6.0,
) -> float | None:
    """Highest sidelobe relative to the main beam, in dB (always <= 0).

    Scans |array_factor_many|^2 over (0, 180) at ``step_deg`` resolution, finds
    local maxima by three-point comparison, treats every peak within
    ``main_threshold_db`` of the global maximum as a main lobe (multi-beam
    weights have several), masks each main lobe out to its first null on
    both sides, and returns the strongest remaining peak relative to the
    global maximum.  Returns None when no sidelobe exists (for example a
    2-element array, whose pattern has a single lobe per period).
    """
    angles = np.arange(step_deg, 180.0, step_deg)
    power = np.abs(array_factor_many(w, angles, cfg)) ** 2
    peak = float(power.max())
    if peak <= 0.0:
        raise ValueError("undefined pattern: all-zero weights")

    interior = np.zeros(power.size, dtype=bool)
    interior[1:-1] = (power[1:-1] >= power[:-2]) & (power[1:-1] > power[2:])
    interior[0] = power[0] > power[1]
    interior[-1] = power[-1] > power[-2]
    maxima = np.flatnonzero(interior)
    if maxima.size == 0:
        return None

    main_floor = peak * 10.0 ** (-main_threshold_db / 10.0)
    excluded = np.zeros(power.size, dtype=bool)
    for m in maxima:
        if power[m] < main_floor:
            continue
        lo = m
        while lo > 0 and power[lo - 1] <= power[lo]:
            lo -= 1
        hi = m
        while hi < power.size - 1 and power[hi + 1] <= power[hi]:
            hi += 1
        excluded[lo : hi + 1] = True

    candidates = [i for i in maxima if not excluded[i]]
    if not candidates:
        return None
    side = max(float(power[i]) for i in candidates)
    return 10.0 * math.log10(side / peak)
