"""Signature codes and correlation receivers for coded multi-beam training.

Walsh codes tag the beams that are steered simultaneously; Golay
complementary pairs form the channel-estimation sequence inside each
training field.  A receiver correlates what it heard against the codes to
split the per-beam gains back apart, per delay tap when asked to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .array_model import SteeringVector, WeightVector, superpose_beams

__all__ = [
    "GolayPair",
    "walsh_codes",
    "golay_pair",
    "coded_fields",
    "walsh_decode",
    "encode_ce_field",
    "ce_field_powers",
    "decode_per_tap",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GolayPair:
    """Complementary +/-1 sequence pair used as the CE sequence."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.a, dtype=np.int64)
        b = np.array(self.b, dtype=np.int64)
        if a.shape != b.shape or a.ndim != 1 or not _is_power_of_two(a.size):
            raise ValueError("pair members must share one power-of-two length")
        if not (np.all(np.abs(a) == 1) and np.all(np.abs(b) == 1)):
            raise ValueError("chips must be +1 or -1")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __len__(self) -> int:
        return int(self.a.size)


def walsh_codes(order_log2: int) -> np.ndarray:
    """All 2**order_log2 Walsh codes of length 2**order_log2, one per row.

    The read-only (T, T) int64 Sylvester Hadamard matrix in natural order;
    distinct rows have zero dot product.  Its first K rows are the chips of
    a K-beam group.
    """
    if int(order_log2) != order_log2 or order_log2 < 0:
        raise ValueError(f"order_log2 must be a nonnegative integer, got {order_log2!r}")
    h = np.ones((1, 1), dtype=np.int64)
    for _ in range(int(order_log2)):
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


def _checked_chips(chips: np.ndarray) -> np.ndarray:
    """``chips`` as a (K, T) array, if it is +/-1 with mutually orthogonal
    rows (chips @ chips.T == T * I)."""
    c = np.asarray(chips)
    if c.ndim != 2 or c.size == 0:
        raise ValueError("chips must be a nonempty (beams, fields) matrix")
    if not np.all((c == 1) | (c == -1)):
        raise ValueError("chips must be +1 or -1")
    if not np.array_equal(c @ c.T, c.shape[1] * np.eye(len(c))):
        raise ValueError("chip rows must be mutually orthogonal")
    return c


def golay_pair(length_log2: int) -> GolayPair:
    """Binary Golay complementary pair of length 2**length_log2.

    Doubling recursion a' = a|b, b' = a|-b from a = b = [1].  The two
    aperiodic autocorrelations sum to 2L at lag 0 and cancel exactly at
    every nonzero lag.
    """
    if int(length_log2) != length_log2 or length_log2 < 0:
        raise ValueError(f"length_log2 must be a nonnegative integer, got {length_log2!r}")
    a = np.ones(1, dtype=np.int64)
    b = np.ones(1, dtype=np.int64)
    for _ in range(int(length_log2)):
        a, b = np.concatenate([a, b]), np.concatenate([a, -b])
    return GolayPair(a, b)


def coded_fields(
    beams: Sequence[SteeringVector], chips: np.ndarray
) -> tuple[WeightVector, ...]:
    """Per-field composite antenna weights of a coded beam group.

    Field t carries w[t] = (1/sqrt(K)) sum_p chips[p, t] * beam_p.  When
    the beams are mutually orthogonal every field has |w|^2 = 1; a group
    that is not still decodes but loses that power flatness.
    """
    chips = _checked_chips(chips)
    vecs = list(beams)
    if len(chips) != len(vecs):
        raise ValueError(f"{len(chips)} chip rows for {len(vecs)} beams")
    return tuple(superpose_beams(vecs, column.tolist()) for column in chips.T)


def walsh_decode(chips: np.ndarray, fields: np.ndarray, axis: int = -2) -> np.ndarray:
    """Correlate observations along their field axis with the chip rows.

    ``chips`` is (K, T); ``fields`` holds T observations along ``axis``,
    where the output holds the K beams: out[.., p, ..] = sum_t chips[p, t]
    * fields[.., t, ..].  It is one matrix product: ``chips @ fields``
    with the field axis moved second to last.
    """
    return np.moveaxis(chips @ np.moveaxis(fields, axis, -2), -2, axis)


def encode_ce_field(
    tap_gains: Sequence[complex], golay: GolayPair, guard: int
) -> np.ndarray:
    """One CE field as heard through a tapped channel.

    The transmitted field is [a | guard zeros | b | guard zeros]; ``guard``
    must be at least the highest tap index so the two halves do not smear
    into each other.
    """
    h = np.asarray(tap_gains, dtype=np.complex128)
    if h.ndim != 1 or h.size == 0:
        raise ValueError("tap_gains must be a nonempty 1-D sequence")
    if guard < h.size - 1:
        raise ValueError(f"guard {guard} shorter than channel spread {h.size - 1}")
    width = len(golay) + guard
    out = np.zeros(2 * width, dtype=np.complex128)
    spread = len(golay) + h.size - 1
    out[:spread] = np.convolve(golay.a, h)
    out[width : width + spread] = np.convolve(golay.b, h)
    return out


# Rows whose fields ce_field_powers holds at once; all 80 preamble rows of
# the default power-var config at once would raise the peak memory.
_CE_BLOCK = 16


def _same_up_to_sign(x: np.ndarray, y: np.ndarray) -> bool:
    return bool(np.array_equal(x, y) or np.array_equal(x, -y))


def _ce_frame(
    golay: GolayPair, num_taps: int, nonzero: np.ndarray
) -> tuple[tuple[np.ndarray, ...], np.ndarray | None]:
    """Chip sequences, and a gather index into their joined convolutions,
    that give the CE field of any tap row zero outside ``nonzero``.

    The field is [a * h | b * h]; each sample of it is found at ``index``
    in the outputs of the returned sequences convolved with h, one after
    the other, up to its sign.  ``index`` is None when the sequences are
    (a, b) themselves.
    """
    a, b, length, t = golay.a, golay.b, len(golay), num_taps
    if nonzero.size == 0:
        nonzero = np.zeros(1, dtype=np.intp)
    head, tail = slice(0, t - 1), slice(length - t + 1, length)
    # When the 2**(nonzero - 1) possible windows hold no fewer chips than a,
    # they save nothing, and the pattern ids below could overflow int64.
    # The edges of b are taken from those of a, so they must match.
    if (t << (nonzero.size - 1)) >= length or not (
        _same_up_to_sign(a[head], b[head]) and _same_up_to_sign(a[tail], b[tail])
    ):
        return (a, b), None
    # Full-overlap output t - 1 + j of seq * h is the dot product of the
    # window seq[j : j + t] with h reversed.  Its pattern id holds the
    # window's signs at the nonzero taps relative to the first one, so a
    # window and its negation share one id.
    ab = np.stack([a, b])
    first = ab[:, t - 1 - nonzero[0] : length - nonzero[0]]
    ids = np.zeros(first.shape, dtype=np.intp)
    for bit, k in enumerate(nonzero[1:].tolist()):
        ids |= (ab[:, t - 1 - k : length - k] != first) << bit
    # One window per id (any of those that carry it) and its slot in u.
    slot = np.full(1 << (nonzero.size - 1), -1)
    slot[ids.ravel()] = np.arange(ids.size)
    seq_of, start = np.divmod(slot[slot >= 0], ids.shape[1])
    slot[slot >= 0] = np.arange(seq_of.size)
    windows = ab[seq_of[:, None], start[:, None] + np.arange(t)]
    # A head and a tail of t - 1 chips reproduce the partial-overlap edges.
    u = np.concatenate([a[head], windows.ravel(), a[tail]])
    edge = np.arange(t - 1)
    full = 2 * (t - 1) + t * slot[ids]
    ends = len(u) + edge
    return (u,), np.concatenate([edge, full[0], ends, edge, full[1], ends])


def ce_field_powers(tap_rows: np.ndarray, golay: GolayPair) -> np.ndarray:
    """Mean sample power of the CE field heard through each tap row.

    For every row h of the (rows, T) matrix ``tap_rows`` the result equals
    ``np.mean(np.abs(encode_ce_field(h, golay, T - 1)) ** 2)`` bit for bit.
    A full-overlap output of ``np.convolve(seq, h)`` is one dot product of
    a T-chip window with h reversed.  Products with a zero tap are signed
    zeros, and negating the chips at the nonzero taps negates the output
    exactly.  So only the windows that differ, up to sign, in the columns
    where some row has a nonzero tap are convolved, framed by the head and
    tail of a, which give the partial-overlap edges of both halves (those
    of b equal them up to sign in every pair :func:`golay_pair` builds).
    The squared magnitudes are gathered back into the full field before
    the mean.  When that would not save work, or b's edges differ, the
    whole field is convolved.  Each dot product's summation order must
    depend only on its length, as in OpenBLAS and numpy's own loop.
    """
    taps = np.asarray(tap_rows, dtype=np.complex128)
    if taps.ndim != 2 or taps.shape[1] == 0:
        raise ValueError("tap_rows must be a (rows, taps) matrix with at least one tap")
    t = taps.shape[1]
    seqs, index = _ce_frame(golay, t, np.flatnonzero(np.any(taps != 0, axis=0)))
    # np.convolve would cast the int64 chips to complex on every call.
    seqs = [seq.astype(np.complex128) for seq in seqs]
    bounds = np.cumsum([0] + [len(seq) + t - 1 for seq in seqs]).tolist()
    y = np.empty((_CE_BLOCK, bounds[-1]), dtype=np.complex128)
    sigmas = np.empty(len(taps))
    for start in range(0, len(taps), _CE_BLOCK):
        block = taps[start : start + _CE_BLOCK]
        for row, h in zip(y, block):
            for seq, lo, hi in zip(seqs, bounds, bounds[1:]):
                row[lo:hi] = np.convolve(seq, h)
        power = np.abs(y[: len(block)]) ** 2
        if index is not None:
            # A contiguous gather: np.mean rounds a strided row differently.
            power = np.take(power, index, axis=1)
        sigmas[start : start + len(block)] = np.mean(power, axis=1)
    return sigmas


def decode_per_tap(
    received_fields: np.ndarray,
    golay: GolayPair,
    chips: np.ndarray,
    num_taps: int | None = None,
) -> np.ndarray:
    """Per-beam, per-delay-tap gain estimates from coded CE fields.

    ``received_fields[t]`` is the sample stream of field t in the
    :func:`encode_ce_field` layout.  Golay correlation turns each field
    into a tap-delay profile; correlating the profiles against the codes
    across fields with the (K, T) chip matrix ``chips`` separates the
    beams.  Output is (K, num_taps) and is fully normalized: gains injected
    through a :func:`coded_fields` composite come back at their original
    scale.
    """
    chips = _checked_chips(chips)
    y = np.asarray(received_fields, dtype=np.complex128)
    t = chips.shape[1]
    if y.ndim != 2 or y.shape[0] != t:
        raise ValueError(f"expected {t} fields of samples")
    length = len(golay)
    if y.shape[1] < 2 * length:
        raise ValueError(f"field of {y.shape[1]} samples is shorter than the CE pair")
    width = y.shape[1] // 2
    guard = width - length
    if num_taps is None:
        num_taps = guard + 1
    if num_taps > guard + 1:
        raise ValueError(f"cannot resolve {num_taps} taps from a guard of {guard}")

    profiles = np.empty((t, num_taps), dtype=np.complex128)
    a = golay.a.astype(np.complex128)
    b = golay.b.astype(np.complex128)
    for d in range(num_taps):
        profiles[:, d] = (
            y[:, d : d + length] @ a + y[:, width + d : width + d + length] @ b
        ) / (2.0 * length)

    return (math.sqrt(len(chips)) / t) * walsh_decode(chips.astype(np.complex128), profiles)

