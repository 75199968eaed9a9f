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
from typing import Sequence

import numpy as np

from .array_model import ArrayConfig, SteeringVector, WeightVector, superpose_beams
from .beam_coding import CodedWeightSchedule, GolayPair, encode_ce_field, golay_pair
from .channel import ChannelRealization, cascade_gains

__all__ = [
    "AGC_SUBFIELD_BITS",
    "AGC_SUBFIELDS_PER_BEAM",
    "DELAY_SUBFIELD_BITS",
    "DELAY_SUBFIELDS_PER_BEAM",
    "CE_BITS",
    "PREAMBLE_BITS_DEFAULT",
    "HEADER_BITS_DEFAULT",
    "PER_BEAM_BITS_80211AD",
    "PER_BEAM_BITS_BEAM_CODING",
    "TrnField",
    "PacketLayout",
    "PowerTrace",
    "layout_80211ad",
    "layout_beam_coding",
    "power_trace",
    "preamble_samples",
]

AGC_SUBFIELD_BITS = 320
AGC_SUBFIELDS_PER_BEAM = 4
DELAY_SUBFIELD_BITS = 640
DELAY_SUBFIELDS_PER_BEAM = 4
CE_BITS = 1024

# Not specified by the packet format we mirror; they only set trace lengths.
PREAMBLE_BITS_DEFAULT = 2176
HEADER_BITS_DEFAULT = 1024

PER_BEAM_BITS_80211AD = (
    AGC_SUBFIELDS_PER_BEAM * AGC_SUBFIELD_BITS
    + DELAY_SUBFIELDS_PER_BEAM * DELAY_SUBFIELD_BITS
    + CE_BITS
)
PER_BEAM_BITS_BEAM_CODING = CE_BITS


@dataclass(frozen=True)
class TrnField:
    """One training field: CE bits, optional delay subfields, its weights."""

    ce_bits: int = CE_BITS
    delay_subfield_bits: int = 0
    weight: WeightVector | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.ce_bits < 0 or self.delay_subfield_bits < 0:
            raise ValueError("bit counts must be nonnegative")

    @property
    def bits(self) -> int:
        return self.ce_bits + self.delay_subfield_bits


@dataclass(frozen=True)
class PacketLayout:
    """Packet sections in fixed order: preamble, header, AGC, TRN fields.

    ``preamble_weights`` is the cycle of antenna weights the preamble rides:
    a single equal-power composite of the trained beams for the standard
    layout, or the whole coded composite schedule for the coded layout (the
    covering beams never change there, so the preamble can legitimately
    sound like the training section it sets the AGC for).
    """

    scheme: str
    preamble_bits: int
    header_bits: int
    agc_subfield_count: int
    trn_fields: tuple[TrnField, ...]
    agc_subfield_bits: int = AGC_SUBFIELD_BITS
    preamble_weights: tuple[WeightVector, ...] = ()

    def __post_init__(self) -> None:
        if min(self.preamble_bits, self.header_bits, self.agc_subfield_count) < 0:
            raise ValueError("bit counts must be nonnegative")

    @property
    def training_bits(self) -> int:
        """Bits in the training section: AGC subfields plus TRN fields."""
        return self.agc_subfield_count * self.agc_subfield_bits + sum(
            f.bits for f in self.trn_fields
        )

    @property
    def total_bits(self) -> int:
        return self.preamble_bits + self.header_bits + self.training_bits

    def to_json_dict(self) -> dict:
        """JSON-friendly description: one entry per section with its bits."""
        if not self.preamble_weights:
            preamble_label = None
        elif len(self.preamble_weights) == 1:
            preamble_label = "composite"
        else:
            preamble_label = f"schedule[{len(self.preamble_weights)}]"
        sections = [
            {"name": "preamble", "bits": self.preamble_bits, "weight": preamble_label},
            {"name": "header", "bits": self.header_bits, "weight": None},
        ]
        for i in range(self.agc_subfield_count):
            sections.append({"name": f"agc[{i}]", "bits": self.agc_subfield_bits, "weight": None})
        for i, f in enumerate(self.trn_fields):
            sections.append({"name": f"trn[{i}]", "bits": f.bits, "weight": f.label or None})
        return {"scheme": self.scheme, "total_bits": self.total_bits, "sections": sections}


def _preamble_composite(beams: Sequence[SteeringVector]) -> WeightVector:
    return superpose_beams(list(beams), [1] * len(beams))


def layout_80211ad(
    beams: int | Sequence[SteeringVector],
    *,
    preamble_bits: int = PREAMBLE_BITS_DEFAULT,
    header_bits: int = HEADER_BITS_DEFAULT,
) -> PacketLayout:
    """Standard-style in-packet layout training ``beams`` one field at a time.

    Every trained beam costs 4 AGC subfields plus a TRN field with delay
    subfields and a CE sequence.  Pass steering vectors to get per-field
    weights attached (the preamble then rides an equal-power composite of
    the trained beams, the signal the AGC gets set from); pass a plain
    count for bits-only accounting.
    """
    if isinstance(beams, int):
        count, vecs = beams, None
    else:
        vecs = list(beams)
        count = len(vecs)
    if count < 1:
        raise ValueError("need at least one beam to train")
    fields = tuple(
        TrnField(
            ce_bits=CE_BITS,
            delay_subfield_bits=DELAY_SUBFIELDS_PER_BEAM * DELAY_SUBFIELD_BITS,
            weight=None if vecs is None else vecs[i].as_weights(),
            label=f"beam[{i}]",
        )
        for i in range(count)
    )
    return PacketLayout(
        scheme="80211ad",
        preamble_bits=preamble_bits,
        header_bits=header_bits,
        agc_subfield_count=AGC_SUBFIELDS_PER_BEAM * count,
        trn_fields=fields,
        preamble_weights=() if vecs is None else (_preamble_composite(vecs),),
    )


def layout_beam_coding(
    beams: int | CodedWeightSchedule,
    *,
    num_antennas: int | None = None,
    preamble_bits: int = PREAMBLE_BITS_DEFAULT,
    header_bits: int = HEADER_BITS_DEFAULT,
) -> PacketLayout:
    """Coded layout: T = next power of two >= K CE-only fields, no AGC.

    The covering beams are identical in every field, so the preamble rides
    the schedule's own composites (field weights attach when a schedule is
    given).  Raises when more beams are requested than the array can keep
    mutually orthogonal.
    """
    if isinstance(beams, CodedWeightSchedule):
        schedule = beams
        count = schedule.num_beams
        capacity = len(schedule.field_weights[0])
    else:
        schedule = None
        count = beams
        capacity = num_antennas
    if count < 1:
        raise ValueError("need at least one beam to train")
    if capacity is not None and count > capacity:
        raise ValueError(
            f"cannot code {count} beams: an array of {capacity} antennas supports "
            f"at most {capacity} mutually orthogonal beams"
        )
    num_fields = 1 << max(0, (count - 1).bit_length())
    if schedule is not None:
        num_fields = len(schedule)
    fields = tuple(
        TrnField(
            ce_bits=CE_BITS,
            delay_subfield_bits=0,
            weight=None if schedule is None else schedule.field_weights[i],
            label=f"walsh[{i}]x{count}",
        )
        for i in range(num_fields)
    )
    return PacketLayout(
        scheme="beamcoding",
        preamble_bits=preamble_bits,
        header_bits=header_bits,
        agc_subfield_count=0,
        trn_fields=fields,
        preamble_weights=() if schedule is None else tuple(schedule.field_weights),
    )


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
    rx_w: WeightVector,
    tx_cfg: ArrayConfig | None = None,
    rx_cfg: ArrayConfig | None = None,
) -> PowerTrace:
    """Mean received power for the preamble and each TRN field of a packet.

    The preamble power averages over the layout's preamble weight cycle.
    """
    if not layout.preamble_weights or any(f.weight is None for f in layout.trn_fields):
        raise ValueError("layout has unresolved field weights (built from a bare beam count)")
    weights = list(layout.preamble_weights) + [f.weight for f in layout.trn_fields]
    taps = _tap_rows(np.stack([w.weights for w in weights]), rx_w.weights, ch, tx_cfg, rx_cfg)
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
    rx_w: WeightVector,
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
    if not layout.preamble_weights:
        raise ValueError("layout has no preamble weights attached")
    if golay is None:
        golay = golay_pair(9)
    tx = np.stack([w.weights for w in layout.preamble_weights])
    taps = _tap_rows(tx, rx_w.weights, ch, tx_cfg, rx_cfg)
    guard = taps.shape[1] - 1
    return np.concatenate([encode_ce_field(h, golay, guard) for h in taps])
