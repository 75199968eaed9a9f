"""Signature codes and correlation receivers for coded multi-beam training.

Walsh codes tag the beams that are steered simultaneously; a Golay
complementary pair forms the channel-estimation sequence inside each
training field.  A receiver correlates its field estimates against the
codes to split the per-beam gains back apart, and the mean power of a CE
field heard through a tapped channel sets a preamble's sigma.

Codes are plain read-only int64 chip matrices: the K Walsh codes of a
beam group a (K, T) matrix, one code per row, and a Golay pair a (2, L)
matrix whose rows are its sequences a and b.
"""

from __future__ import annotations

import functools

import numpy as np

from .array_model import _readonly, superpose_beams

__all__ = [
    "walsh_codes",
    "golay_pair",
    "coded_fields",
    "walsh_decode",
    "CE_GOLAY",
    "ce_field_powers",
]


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


def golay_pair(length_log2: int) -> np.ndarray:
    """Binary Golay complementary pair of length L = 2**length_log2, as the
    read-only (2, L) int64 chip matrix whose rows are a and b.

    Doubling recursion a' = a|b, b' = a|-b from a = b = [1].  The two
    aperiodic autocorrelations sum to 2L at lag 0 and cancel exactly at
    every nonzero lag.
    """
    if int(length_log2) != length_log2 or length_log2 < 0:
        raise ValueError(f"length_log2 must be a nonnegative integer, got {length_log2!r}")
    a = b = np.ones(1, dtype=np.int64)
    for _ in range(int(length_log2)):
        a, b = np.concatenate([a, b]), np.concatenate([a, -b])
    return _readonly(np.stack([a, b]))


def coded_fields(beams: np.ndarray, chips: np.ndarray) -> np.ndarray:
    """Per-field composite antenna weights of a coded beam group, (T, N).

    Field t carries w[t] = (1/sqrt(K)) sum_p chips[p, t] * beams[p] for the
    (K, N) beam matrix ``beams``.  When the beams are mutually orthogonal
    every field has |w|^2 = 1; a group that is not still decodes but loses
    that power flatness.
    """
    chips = _checked_chips(chips)
    if len(chips) != len(beams):
        raise ValueError(f"{len(chips)} chip rows for {len(beams)} beams")
    return np.stack([superpose_beams(beams, column.tolist()) for column in chips.T])


def walsh_decode(chips: np.ndarray, fields: np.ndarray, axis: int = -2) -> np.ndarray:
    """Correlate observations along their field axis with the chip rows.

    ``chips`` is (K, T); ``fields`` holds T observations along ``axis``,
    where the output holds the K beams: out[.., p, ..] = sum_t chips[p, t]
    * fields[.., t, ..].  It is one matrix product: ``chips @ fields``
    with the field axis swapped with the second to last.
    """
    return (chips @ np.swapaxes(fields, axis, -2)).swapaxes(axis, -2)


# The CE sequence of every training field: the Golay pair of 512 chips per
# sequence, sent as [a | b].
CE_GOLAY = golay_pair(9)

# The largest tap rows that ce_field_powers takes through the window dot
# products, measured on both kernels: within both bounds the windows beat
# a whole-field np.convolve on every size tried, while with 16 nonzero
# taps they lose from about 150 taps, and with 21 nonzero at 128 taps.
# 16 nonzero taps give at most 2**15 pattern ids.  _WINDOW_TAPS must also
# stay <= 257 for _ce_frame's edges of b (taken from a's) to be right.
_WINDOW_TAPS = 128
_WINDOW_NONZERO = 16


def _ce_frame(num_taps: int, nonzero: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct chip windows of :data:`CE_GOLAY`, and a gather index
    into the dot products that give the CE field of any tap row zero
    outside ``nonzero``.

    With h reversed into r, the dot products are laid out as the left and
    right edge of each length n < T, then the windows: a[:n] . r[-n:],
    a[-n:] . r[:n] for n = 1 .. T - 1, then windows[j] . r.  Each sample
    of the field [a * h | b * h] is found at ``index`` among them up to its
    sign.  The edges of b are taken from those of a: b shares a's first
    256 chips and negates its last 256, so this holds for T up to 257.
    """
    length, t = CE_GOLAY.shape[1], num_taps
    if nonzero.size == 0:
        nonzero = np.zeros(1, dtype=np.intp)
    # Full-overlap output t - 1 + j of seq * h is the dot product of the
    # window seq[j : j + t] with h reversed.  Its pattern id holds the
    # window's signs at the nonzero taps relative to the first one, so a
    # window and its negation share one id.
    first = CE_GOLAY[:, t - 1 - nonzero[0] : length - nonzero[0]]
    ids = np.zeros(first.shape, dtype=np.intp)
    for bit, k in enumerate(nonzero[1:].tolist()):
        ids |= (CE_GOLAY[:, t - 1 - k : length - k] != first) << bit
    # One window per id (any of those that carry it) and its slot.
    slot = np.full(1 << (nonzero.size - 1), -1)
    slot[ids.ravel()] = np.arange(ids.size)
    seq_of, start = np.divmod(slot[slot >= 0], ids.shape[1])
    slot[slot >= 0] = np.arange(seq_of.size)
    windows = CE_GOLAY[seq_of[:, None], start[:, None] + np.arange(t)]
    # Output i < T - 1 of seq * h is a left edge of length i + 1, and
    # output L + i a right edge of length T - 1 - i.
    edge = 2 * np.arange(t - 1)
    ends = edge[::-1] + 1
    full = 2 * (t - 1) + slot[ids]
    return windows, np.concatenate([edge, full[0], ends, edge, full[1], ends])


@functools.lru_cache(maxsize=32)
def _edge_chips(num_taps: int) -> tuple[np.ndarray, ...]:
    """The chips of a for the edge dot products of :func:`_ce_frame`: for
    each length n = 1 .. T - 1, the (1, 2, 1, n) matrix [a[:n]; a[-n:]]."""
    a = CE_GOLAY[0].astype(np.complex128)
    return tuple(_readonly(np.stack([a[:n], a[-n:]])[None, :, None]) for n in range(1, num_taps))


def _frame_dots(taps: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """The dot products of :func:`_ce_frame`'s layout for every tap row,
    (rows, 2 (T - 1) + windows), each bit for bit the output of
    ``np.convolve`` that it stands for."""
    rows, t = taps.shape
    # np.convolve correlates the chips with the reversed taps, both
    # contiguous.  Every vector here is contiguous too, as BLAS sums a
    # strided one in another order: r[-n:] and r[:n] are the 2n columns of
    # [r | r] from T - n on.
    r = np.ascontiguousarray(taps[:, ::-1])
    rr = np.concatenate([r, r], axis=1)
    y = np.empty((rows, 2 * (t - 1) + len(windows), 1, 1), dtype=np.complex128)
    for n, edges in enumerate(_edge_chips(t), start=1):
        np.matmul(edges, rr[:, t - n : t + n].reshape(rows, 2, n, 1), out=y[:, 2 * n - 2 : 2 * n])
    np.matmul(
        windows.astype(np.complex128, order="C")[None, :, None, :],
        r[:, None, :, None],
        out=y[:, 2 * (t - 1) :],
    )
    return y[:, :, 0, 0]


def _convolved_field_powers(taps: np.ndarray) -> np.ndarray:
    """ce_field_powers by convolving the whole field, row by row."""
    # np.convolve would cast the int64 chips to complex on every call.
    a, b = CE_GOLAY.astype(np.complex128)
    width = CE_GOLAY.shape[1] + taps.shape[1] - 1
    field = np.empty(2 * width, dtype=np.complex128)
    sigmas = np.empty(len(taps))
    for row, h in enumerate(taps):
        field[:width] = np.convolve(a, h)
        field[width:] = np.convolve(b, h)
        sigmas[row] = np.mean(np.abs(field) ** 2)
    return sigmas


def ce_field_powers(tap_rows: np.ndarray) -> np.ndarray:
    """Mean sample power of the CE field heard through each tap row.

    For every row h of the (rows, T) matrix ``tap_rows`` the CE field is
    [a * h | b * h], each sequence of :data:`CE_GOLAY` = [a, b] convolved
    with h, and the result equals ``np.mean(np.abs(np.concatenate(
    [np.convolve(a, h), np.convolve(b, h)])) ** 2)`` bit for bit.
    Each output of ``np.convolve(seq, h)`` is one dot product of up to T
    chips with h reversed.  Products with a zero tap are signed zeros, and
    negating the chips at the nonzero taps negates the output exactly.  So
    only the full-overlap windows that differ, up to sign, in the columns
    where some row has a nonzero tap are taken, with the partial-overlap
    edges of a (those of b equal them up to sign).  Their dot products for
    all rows at once take one stacked ``np.matmul`` for the windows and
    one per edge length for the left and right edge together: T calls,
    however many rows.  The squared magnitudes of all rows are gathered
    back into the full field in one contiguous gather, and each row is
    averaged as one contiguous pairwise sum.  The windows take tap rows of
    at most 128 taps, of which at most 16 columns hold a nonzero tap;
    larger ones convolve the whole field row by row, with the same bits.

    Bit-exactness rests on one kernel rule.  A stacked ``matmul`` whose
    every product is a (1, n) row by an (n, 1) column calls numpy's vector
    dot for each, the same dot ``np.convolve`` calls, and the vector dot
    sums in an order that depends only on n when both vectors are
    contiguous (BLAS ``zdotu``).  ``matmul`` of a matrix by a vector
    (gemv), ``np.einsum`` and a dot over strided vectors sum in other
    orders and do not match.
    """
    taps = np.asarray(tap_rows, dtype=np.complex128)
    if taps.ndim != 2 or taps.shape[1] == 0:
        raise ValueError("tap_rows must be a (rows, taps) matrix with at least one tap")
    nonzero = np.flatnonzero(np.any(taps != 0, axis=0))
    if taps.shape[1] > _WINDOW_TAPS or nonzero.size > _WINDOW_NONZERO:
        return _convolved_field_powers(taps)
    windows, index = _ce_frame(taps.shape[1], nonzero)
    power = np.abs(_frame_dots(taps, windows)) ** 2
    # A contiguous gather: np.mean rounds a strided row differently.
    return np.mean(np.take(power, index, axis=1), axis=1)
