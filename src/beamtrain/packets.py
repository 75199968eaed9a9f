"""Training packet structure at field granularity, with exact bit
accounting.

The standard-style layout spends, per trained beam, 4x320 bits of AGC
settling, 4x640 bits of delay-estimation subfields and 1024 bits of CE
sequence.  A coded layout needs only the CE bits: the covering beams never
change across the packet, so neither AGC resets nor per-beam delay fields
are required.

A layout is the pair ``(preamble, fields)`` of (P, N) and (F, N) weight
matrices: the cycle of antenna weights the preamble rides, and the weights
of the F TRN fields.  Its bits come from :func:`training_bits`.
"""

from __future__ import annotations

import numpy as np

from .array_model import superpose_beams
from .beam_coding import CE_GOLAY, coded_fields, walsh_codes

__all__ = [
    "AGC_SUBFIELD_BITS",
    "AGC_SUBFIELDS_PER_BEAM",
    "DELAY_SUBFIELD_BITS",
    "DELAY_SUBFIELDS_PER_BEAM",
    "CE_BITS",
    "PER_BEAM_BITS_80211AD",
    "PER_BEAM_BITS_BEAM_CODING",
    "training_bits",
    "layout_80211ad",
    "layout_beam_coding",
    "LAYOUTS",
]

AGC_SUBFIELD_BITS = 320
AGC_SUBFIELDS_PER_BEAM = 4
DELAY_SUBFIELD_BITS = 640
DELAY_SUBFIELDS_PER_BEAM = 4
CE_BITS = CE_GOLAY.size  # 1024: the two 512-chip Golay sequences

PER_BEAM_BITS_80211AD = (
    AGC_SUBFIELDS_PER_BEAM * AGC_SUBFIELD_BITS
    + DELAY_SUBFIELDS_PER_BEAM * DELAY_SUBFIELD_BITS
    + CE_BITS
)
PER_BEAM_BITS_BEAM_CODING = CE_BITS


def training_bits(scheme: str, num_beams: int) -> int:
    """Bits in the training section of one packet that trains ``num_beams``
    beams under ``scheme``, a name in :data:`LAYOUTS`.

    The standard-style layout spends PER_BEAM_BITS_80211AD per beam; the
    coded layout one CE field per Walsh code, T = the next power of two
    >= K of them.  Exact for any count.
    """
    if num_beams < 1:
        raise ValueError(f"need at least one beam to train, got {num_beams}")
    if scheme == "80211ad":
        return num_beams * PER_BEAM_BITS_80211AD
    if scheme == "beamcoding":
        return (1 << (num_beams - 1).bit_length()) * CE_BITS
    raise ValueError(f"unknown scheme {scheme!r}; pick from {', '.join(LAYOUTS)}")


def layout_80211ad(beams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Standard-style in-packet layout training the (K, N) ``beams`` one
    field at a time.

    The preamble rides a single equal-power composite of the trained beams,
    the signal the AGC gets set from; field k rides beam k.
    """
    return superpose_beams(beams, [1] * len(beams))[None], beams


def layout_beam_coding(beams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coded layout of the (K, N) ``beams``: T = next power of two >= K
    CE-only fields, no AGC.

    Beam p rides Walsh code p of length T, and since the covering beams
    are identical in every field, the preamble rides the T coded
    composites.  Raises when more beams are requested than the array can
    keep mutually orthogonal.
    """
    count, capacity = np.shape(beams)
    if count > capacity:
        raise ValueError(
            f"cannot code {count} beams: an array of {capacity} antennas supports "
            f"at most {capacity} mutually orthogonal beams"
        )
    fields = coded_fields(beams, walsh_codes(max(0, (count - 1).bit_length()))[:count])
    return fields, fields


# The packet layouts by scheme name: campaigns and configs take the names here.
LAYOUTS = {"80211ad": layout_80211ad, "beamcoding": layout_beam_coding}
