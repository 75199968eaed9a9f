"""Uniform linear array math: steering vectors, array factors, orthogonal
beam codebooks, multi-beam superposition and phase quantization.

Angle convention: beam directions are measured in degrees from the array
axis, so broadside sits at 90 deg and steering phases go with cos(angle).
Valid directions live in [0, 180], the endfire endpoints included.
Steering vectors carry 1/sqrt(N) normalization (unit L2 norm); the
magnitude-one form is recovered by scaling with sqrt(N).  A beam is a
read-only (N,) complex array of antenna weights and a beam set a
read-only (K, N) matrix, one beam per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ArrayConfig",
    "BeamCodebook",
    "steering_vector",
    "array_factor_many",
    "superpose_beams",
    "codebook_from_cosines",
    "dft_codebook",
    "subarray_beam",
    "quantize_phases",
    "project_uniform",
]


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array geometry: element count and spacing in wavelengths."""

    num_antennas: int
    spacing: float = 0.5

    def __post_init__(self) -> None:
        if int(self.num_antennas) != self.num_antennas or self.num_antennas < 1:
            raise ValueError(f"num_antennas must be a positive integer, got {self.num_antennas!r}")
        object.__setattr__(self, "num_antennas", int(self.num_antennas))
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError(f"spacing must be a positive real, got {self.spacing!r}")


@dataclass(frozen=True)
class BeamCodebook:
    """Ordered beam set: row k of the read-only (K, N) ``matrix`` steers a
    beam at ``angles_deg[k]``."""

    cfg: ArrayConfig
    angles_deg: tuple[float, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.array(self.matrix, dtype=np.complex128)
        shape = (len(self.angles_deg), self.cfg.num_antennas)
        if matrix.shape != shape:
            raise ValueError(f"beam matrix of shape {matrix.shape}, expected {shape}")
        object.__setattr__(self, "matrix", _readonly(matrix))

    def __len__(self) -> int:
        return len(self.matrix)

    @property
    def is_orthogonal(self) -> bool:
        """True when every distinct beam pair has |inner product| <= 1e-9."""
        gram = np.abs(self.matrix.conj() @ self.matrix.T)
        return bool(np.all(gram[~np.eye(len(self), dtype=bool)] <= 1e-9))


def steering_vector(cfg: ArrayConfig, angle_deg: float) -> np.ndarray:
    """Read-only unit-norm steering vector for a beam at ``angle_deg``.

    Entry n is exp(-j 2 pi n spacing cos(angle)) / sqrt(N), the conjugate
    phase ramp that makes :func:`array_factor_many` peak at the steered angle.
    """
    angle = float(angle_deg)
    if not math.isfinite(angle):
        raise ValueError(f"beam angle must be finite, got {angle_deg!r}")
    if not 0.0 <= angle <= 180.0:
        raise ValueError(f"beam angle must lie in [0, 180] degrees, got {angle_deg!r}")
    n = np.arange(cfg.num_antennas)
    phase = -2.0 * np.pi * n * cfg.spacing * math.cos(math.radians(angle))
    return _readonly(np.exp(1j * phase) / math.sqrt(cfg.num_antennas))


def _steering_matrix(angles_deg: np.ndarray, cfg: ArrayConfig) -> np.ndarray:
    """Responses exp(+j 2 pi n spacing cos(angle)) of every antenna at every
    angle, shape (antennas, angles).

    A C-ordered weight row times this matrix is its pattern at those
    angles; :func:`array_factor_many` and
    :func:`~beamtrain.channel.cascade_gains` both compute it so, and agree
    bit for bit.
    """
    n = np.arange(cfg.num_antennas)
    cosines = np.cos(np.radians(np.asarray(angles_deg, dtype=float)))
    return np.exp(1j * (2.0 * np.pi * cfg.spacing * (n[:, None] * cosines)))


def array_factor_many(w: np.ndarray, angles_deg: np.ndarray, cfg: ArrayConfig) -> np.ndarray:
    """Pattern responses x(angle) = sum_n w_n exp(+j 2 pi n spacing cos(angle))
    of the (N,) weights ``w`` over a grid of angles.

    The weights are copied to C order first: a strided vector takes
    another matmul path, which rounds differently.
    """
    weights = np.ascontiguousarray(w, dtype=np.complex128)
    if weights.shape != (cfg.num_antennas,):
        raise ValueError(f"weights of shape {weights.shape} for {cfg.num_antennas} antennas")
    return weights @ _steering_matrix(angles_deg, cfg)


def superpose_beams(beams: np.ndarray, signs: Sequence[int]) -> np.ndarray:
    """Equal-power multi-beam weights w_n = (1/sqrt(K)) sum_k signs[k] beams[k, n]
    of the (K, N) beam matrix ``beams``.

    The rows are added one at a time, in order, so every machine rounds the
    sum alike; a ``signs @ beams`` product leaves the order to BLAS.  That
    matters: coded-field phases sit on quantization half-levels, where one
    rounding flips a quantized phase.
    """
    beams = np.asarray(beams)
    if beams.ndim != 2 or len(beams) == 0:
        raise ValueError("need a (beams, antennas) matrix of at least one beam to superpose")
    if len(signs) != len(beams):
        raise ValueError(f"{len(signs)} signs for {len(beams)} beams")
    if any(int(s) not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    acc = np.zeros(beams.shape[1], dtype=np.complex128)
    for sign, beam in zip(signs, beams):
        acc += int(sign) * beam
    return acc / math.sqrt(len(beams))


def codebook_from_cosines(cfg: ArrayConfig, cosines: Sequence[float]) -> BeamCodebook:
    """Codebook of beams at the given cos(angle) values, ordered as given."""
    cos_arr = np.asarray(list(cosines), dtype=float)
    if cos_arr.ndim != 1 or cos_arr.size == 0:
        raise ValueError("need at least one beam direction")
    if np.any(np.abs(cos_arr) > 1.0):
        raise ValueError("cos(angle) values must lie in [-1, 1]")
    angles = tuple(math.degrees(math.acos(c)) for c in cos_arr)
    return BeamCodebook(cfg, angles, np.stack([steering_vector(cfg, a) for a in angles]))


def dft_codebook(cfg: ArrayConfig) -> BeamCodebook:
    """Maximal mutually-orthogonal beam set on the DFT grid.

    Uses cos(angle_k) = k / (N * spacing) for k in [-N/2, N/2); with
    half-wavelength spacing that is the classic 2k/N grid.  Beams are
    returned sorted by ascending angle.  An N-antenna array supports at
    most N mutually orthogonal beams; if the spacing squeezes some grid
    points outside |cos| <= 1 the error names how many beams fit.
    """
    n = cfg.num_antennas
    ks = np.arange(-(n // 2), n - n // 2)
    cosines = ks / (n * cfg.spacing)
    achievable = int(np.count_nonzero(np.abs(cosines) <= 1.0))
    if achievable < n:
        raise ValueError(
            f"spacing {cfg.spacing} fits only {achievable} of {n} orthogonal "
            f"beams inside the visible region"
        )
    return codebook_from_cosines(cfg, sorted(cosines, reverse=True))


def subarray_beam(cfg: ArrayConfig, cos_center: float, num_active: int) -> np.ndarray:
    """Wide beam from a front sub-array: first ``num_active`` antennas steer
    cos(angle) = cos_center, the rest stay off.  Smaller apertures trade
    gain for coverage, which is what lower-resolution sector beams are."""
    if not 1 <= num_active <= cfg.num_antennas:
        raise ValueError(f"num_active must lie in [1, {cfg.num_antennas}], got {num_active!r}")
    w = np.zeros(cfg.num_antennas, dtype=np.complex128)
    n = np.arange(num_active)
    w[:num_active] = np.exp(-2j * np.pi * n * cfg.spacing * cos_center) / math.sqrt(num_active)
    return w


# The most phase-shifter bits: 2**1023 is the largest power of two a float holds.
_MAX_PHASE_BITS = 1023


def quantize_phases(w: np.ndarray, bits: int) -> np.ndarray:
    """Snap each weight's phase to the nearest of 2**bits uniform levels,
    entry by entry, for weights of any shape.

    Magnitudes are untouched.  A phase exactly halfway between two levels
    rounds to the lower level so results do not depend on platform
    rounding behaviour.
    """
    if int(bits) != bits or not 1 <= bits <= _MAX_PHASE_BITS:
        raise ValueError(f"bits must be an integer in [1, {_MAX_PHASE_BITS}], got {bits!r}")
    step = 2.0 * np.pi / (2 ** int(bits))
    mags = np.abs(w)
    levels = np.ceil(np.angle(w) / step - 0.5)
    return mags * np.exp(1j * step * levels)


def project_uniform(w: np.ndarray) -> np.ndarray:
    """Phase-only version of ``w``: every entry becomes exp(j phase)/sqrt(N),
    with N the length of the last axis, so a (K, N) matrix is projected
    row by row.

    np.angle(0) is 0, so zero entries come back at phase zero.
    """
    return np.exp(1j * np.angle(w)) / math.sqrt(w.shape[-1])
