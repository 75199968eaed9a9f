"""Training packet structure at field granularity, with exact bit
accounting and per-field weight annotations.

The standard-style layout spends, per trained beam, 4x320 bits of AGC
settling, 4x640 bits of delay-estimation subfields and 1024 bits of CE
sequence.  A coded layout needs only the CE bits: the covering beams never
change across the packet, so neither AGC resets nor per-beam delay fields
are required.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .array_model import ArrayConfig, superpose_beams
from .beam_coding import GolayPair, coded_fields, encode_ce_field, golay_pair, walsh_codes
from .channel import ChannelRealization, cascade_gains

__all__ = [
    "AGC_SUBFIELD_BITS",
    "AGC_SUBFIELDS_PER_BEAM",
    "DELAY_SUBFIELD_BITS",
    "DELAY_SUBFIELDS_PER_BEAM",
    "CE_BITS",
    "PER_BEAM_BITS_80211AD",
    "PER_BEAM_BITS_BEAM_CODING",
    "TrnField",
    "PacketLayout",
    "PowerTrace",
    "layout_80211ad",
    "layout_beam_coding",
    "LAYOUTS",
    "power_trace",
    "preamble_samples",
]

AGC_SUBFIELD_BITS = 320
AGC_SUBFIELDS_PER_BEAM = 4
DELAY_SUBFIELD_BITS = 640
DELAY_SUBFIELDS_PER_BEAM = 4
CE_BITS = 1024

PER_BEAM_BITS_80211AD = (
    AGC_SUBFIELDS_PER_BEAM * AGC_SUBFIELD_BITS
    + DELAY_SUBFIELDS_PER_BEAM * DELAY_SUBFIELD_BITS
    + CE_BITS
)
PER_BEAM_BITS_BEAM_CODING = CE_BITS


@dataclass(frozen=True)
class TrnField:
    """One training field: CE bits, optional delay subfields, its (N,)
    weights."""

    ce_bits: int = CE_BITS
    delay_subfield_bits: int = 0
    weight: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.ce_bits < 0 or self.delay_subfield_bits < 0:
            raise ValueError("bit counts must be nonnegative")

    @property
    def bits(self) -> int:
        return self.ce_bits + self.delay_subfield_bits


@dataclass(frozen=True)
class PacketLayout:
    """The training section of a packet: AGC subfields, then TRN fields.

    ``preamble_weights`` is the cycle of antenna weights the preamble rides,
    one row each: a single equal-power composite of the trained beams for
    the standard layout, or the whole coded composite schedule for the
    coded layout (the covering beams never change there, so the preamble
    can legitimately sound like the training section it sets the AGC for).
    It is None for a layout built from a bare beam count.
    """

    scheme: str
    agc_subfield_count: int
    trn_fields: tuple[TrnField, ...]
    preamble_weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.agc_subfield_count < 0:
            raise ValueError("agc_subfield_count must be nonnegative")

    @property
    def training_bits(self) -> int:
        """Bits in the training section: AGC subfields plus TRN fields."""
        return self.agc_subfield_count * AGC_SUBFIELD_BITS + sum(f.bits for f in self.trn_fields)


def _beam_count(beams: int | np.ndarray) -> tuple[int, np.ndarray | None]:
    """The number of beams to train, and their (K, N) matrix if given."""
    matrix = None if isinstance(beams, int) else np.asarray(beams)
    if matrix is not None and matrix.ndim != 2:
        raise ValueError(f"beams must be a count or a (K, N) matrix, not {matrix.ndim}-D")
    count = beams if matrix is None else len(matrix)
    if count < 1:
        raise ValueError("need at least one beam to train")
    return count, matrix


def layout_80211ad(beams: int | np.ndarray) -> PacketLayout:
    """Standard-style in-packet layout training ``beams`` one field at a time.

    Every trained beam costs 4 AGC subfields plus a TRN field with delay
    subfields and a CE sequence.  Pass a (K, N) beam matrix to get per-field
    weights attached (the preamble then rides an equal-power composite of
    the trained beams, the signal the AGC gets set from); pass a plain
    count for bits-only accounting.
    """
    count, matrix = _beam_count(beams)
    fields = tuple(
        TrnField(
            ce_bits=CE_BITS,
            delay_subfield_bits=DELAY_SUBFIELDS_PER_BEAM * DELAY_SUBFIELD_BITS,
            weight=None if matrix is None else matrix[i],
        )
        for i in range(count)
    )
    return PacketLayout(
        scheme="80211ad",
        agc_subfield_count=AGC_SUBFIELDS_PER_BEAM * count,
        trn_fields=fields,
        preamble_weights=None if matrix is None else superpose_beams(matrix, [1] * count)[None],
    )


def layout_beam_coding(
    beams: int | np.ndarray, *, num_antennas: int | None = None
) -> PacketLayout:
    """Coded layout: T = next power of two >= K CE-only fields, no AGC.

    Pass a (K, N) beam matrix to get field weights attached: beam p rides
    Walsh code p of length T, and since the covering beams are identical
    in every field, the preamble rides the T coded composites.  Pass a
    plain count, with ``num_antennas`` to check it, for bits-only
    accounting.  Raises when more beams are requested than the array can
    keep mutually orthogonal.
    """
    count, matrix = _beam_count(beams)
    capacity = num_antennas if matrix is None else matrix.shape[1]
    if capacity is not None and count > capacity:
        raise ValueError(
            f"cannot code {count} beams: an array of {capacity} antennas supports "
            f"at most {capacity} mutually orthogonal beams"
        )
    order = max(0, (count - 1).bit_length())
    if matrix is None:
        fields, weights = (TrnField(),) * (1 << order), None
    else:
        weights = coded_fields(matrix, walsh_codes(order)[:count])
        fields = tuple(TrnField(weight=w) for w in weights)
    return PacketLayout(
        scheme="beamcoding",
        agc_subfield_count=0,
        trn_fields=fields,
        preamble_weights=weights,
    )


# The packet layouts by scheme name: campaigns and configs take the names here.
LAYOUTS = {"80211ad": layout_80211ad, "beamcoding": layout_beam_coding}


@dataclass(frozen=True)
class PowerTrace:
    """Mean received power per section: preamble first, then TRN fields.

    ``agc_gain`` is the pure normalization the receiver derives once from
    the preamble and then holds fixed across the whole training section.
    """

    preamble_power: float
    field_powers: np.ndarray
    agc_gain: float

    def __post_init__(self) -> None:
        arr = np.array(self.field_powers, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "field_powers", arr)


def _tap_rows(
    tx: np.ndarray,
    rx: np.ndarray,
    ch: ChannelRealization,
    tx_cfg: ArrayConfig | None,
    rx_cfg: ArrayConfig | None,
) -> np.ndarray:
    """Cascade taps of each transmit weight row through the receive weights
    ``rx``, shape (rows, num_taps).

    Configs default to half-wavelength spacing with the lengths taken from
    the weights.  Each row is contiguous, so that a sum along it adds in the
    same order as a sum over that weight's own tap vector.
    """
    tx_cfg = ArrayConfig(tx.shape[1]) if tx_cfg is None else tx_cfg
    rx_cfg = ArrayConfig(rx.size) if rx_cfg is None else rx_cfg
    taps = cascade_gains(tx, rx[None, :], ch, tx_cfg, rx_cfg)
    return np.ascontiguousarray(taps[:, :, 0].T)


def power_trace(
    layout: PacketLayout,
    ch: ChannelRealization,
    rx_w: np.ndarray,
    tx_cfg: ArrayConfig | None = None,
    rx_cfg: ArrayConfig | None = None,
) -> PowerTrace:
    """Mean received power for the preamble and each TRN field of a packet.

    The preamble power averages over the layout's preamble weight cycle;
    ``rx_w`` holds the (N,) receive weights.
    """
    if layout.preamble_weights is None or any(f.weight is None for f in layout.trn_fields):
        raise ValueError("layout has unresolved field weights (built from a bare beam count)")
    weights = np.vstack([layout.preamble_weights, *(f.weight for f in layout.trn_fields)])
    taps = _tap_rows(weights, rx_w, ch, tx_cfg, rx_cfg)
    powers = np.sum(np.abs(taps) ** 2, axis=1)
    num_preamble = len(layout.preamble_weights)
    preamble = float(np.mean(powers[:num_preamble]))
    agc_gain = 1.0 / preamble if preamble > 0.0 else math.inf
    return PowerTrace(
        preamble_power=preamble, field_powers=powers[num_preamble:], agc_gain=agc_gain
    )


def preamble_samples(
    layout: PacketLayout,
    ch: ChannelRealization,
    rx_w: np.ndarray,
    tx_cfg: ArrayConfig | None = None,
    rx_cfg: ArrayConfig | None = None,
    golay: GolayPair | None = None,
) -> np.ndarray:
    """Received baseband samples of the preamble sequence through ``ch``.

    The preamble is modeled as a Golay pair (512 chips each by default)
    sent once per weight in the layout's preamble cycle; what comes back
    is each chip stream convolved with the per-tap cascade gains,
    concatenated.  This models the preamble's signal statistics, not its
    bit-true duration.
    """
    if layout.preamble_weights is None:
        raise ValueError("layout has no preamble weights attached")
    if golay is None:
        golay = golay_pair(9)
    taps = _tap_rows(layout.preamble_weights, rx_w, ch, tx_cfg, rx_cfg)
    guard = taps.shape[1] - 1
    return np.concatenate([encode_ce_field(h, golay, guard) for h in taps])
