"""Uniform linear array math: steering vectors, array factors, orthogonal
beam codebooks, multi-beam superposition, phase quantization and sidelobe
measurement.

Angle convention: beam directions are measured in degrees from the array
axis, so broadside sits at 90 deg and steering phases go with cos(angle).
Valid directions live in [0, 180], the endfire endpoints included.
Steering vectors carry 1/sqrt(N) normalization (unit L2 norm); the
magnitude-one form is recovered by scaling with sqrt(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ArrayConfig",
    "WeightVector",
    "SteeringVector",
    "BeamCodebook",
    "steering_vector",
    "array_factor_many",
    "superpose_beams",
    "are_orthogonal",
    "codebook_from_cosines",
    "dft_codebook",
    "subarray_beam",
    "quantize_phases",
    "project_uniform",
    "sidelobe_level",
]


def _readonly_complex(values) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a nonempty 1-D sequence of weights")
    if not np.all(np.isfinite(arr)):
        raise ValueError("weights must be finite")
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
class WeightVector:
    """Per-antenna complex weights, immutable after construction."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _readonly_complex(self.weights))

    def __len__(self) -> int:
        return int(self.weights.size)

    def energy(self) -> float:
        """Total weight power |w|^2 = sum_n w_n w_n*."""
        return float(np.sum(np.abs(self.weights) ** 2))


@dataclass(frozen=True)
class SteeringVector:
    """Unit-norm steering weights pointing one beam at ``angle_deg``."""

    angle_deg: float
    entries: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _readonly_complex(self.entries))

    def __len__(self) -> int:
        return int(self.entries.size)

    def as_weights(self) -> WeightVector:
        return WeightVector(self.entries)


@dataclass(frozen=True)
class BeamCodebook:
    """Ordered beam set with pairwise-orthogonality bookkeeping.

    ``ortho[i, j]`` records whether beams i and j have (numerically) zero
    inner product; the diagonal is False by convention.
    """

    cfg: ArrayConfig
    angles_deg: tuple[float, ...]
    vectors: tuple[SteeringVector, ...]
    ortho: np.ndarray

    def __post_init__(self) -> None:
        ortho = np.array(self.ortho, dtype=bool)
        if ortho.shape != (len(self.vectors), len(self.vectors)):
            raise ValueError("ortho matrix shape must match the beam count")
        ortho.setflags(write=False)
        object.__setattr__(self, "ortho", ortho)

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def is_orthogonal(self) -> bool:
        """True when every distinct beam pair is orthogonal."""
        off = ~np.eye(len(self), dtype=bool)
        return bool(np.all(self.ortho[off]))

    def subset(self, indices: Sequence[int]) -> "BeamCodebook":
        idx = list(indices)
        return BeamCodebook(
            cfg=self.cfg,
            angles_deg=tuple(self.angles_deg[i] for i in idx),
            vectors=tuple(self.vectors[i] for i in idx),
            ortho=self.ortho[np.ix_(idx, idx)],
        )

    def matrix(self) -> np.ndarray:
        """Beam entries stacked as a (num_beams, num_antennas) array."""
        return np.stack([v.entries for v in self.vectors])


def steering_vector(cfg: ArrayConfig, angle_deg: float) -> SteeringVector:
    """Unit-norm steering vector for a beam at ``angle_deg``.

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
    entries = np.exp(1j * phase) / math.sqrt(cfg.num_antennas)
    return SteeringVector(angle, entries)


def _weights_of(w: WeightVector | SteeringVector) -> np.ndarray:
    return w.entries if isinstance(w, SteeringVector) else w.weights


def array_factor_many(
    w: WeightVector | SteeringVector, angles_deg: np.ndarray, cfg: ArrayConfig
) -> np.ndarray:
    """Pattern responses x(angle) = sum_n w_n exp(+j 2 pi n spacing cos(angle))
    over a grid of angles."""
    weights = _weights_of(w)
    if weights.size != cfg.num_antennas:
        raise ValueError(f"weight length {weights.size} does not match {cfg.num_antennas} antennas")
    n = np.arange(cfg.num_antennas)
    cosines = np.cos(np.radians(np.asarray(angles_deg, dtype=float)))
    phases = 2.0 * np.pi * cfg.spacing * np.outer(n, cosines)
    return weights @ np.exp(1j * phases)


def superpose_beams(
    vectors: Sequence[SteeringVector], signs: Sequence[int]
) -> WeightVector:
    """Equal-power multi-beam weights w_n = (1/sqrt(K)) sum_k signs[k] beam_k[n]."""
    if len(vectors) == 0:
        raise ValueError("need at least one beam to superpose")
    if len(signs) != len(vectors):
        raise ValueError(f"{len(signs)} signs for {len(vectors)} beams")
    if any(int(s) not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    length = len(vectors[0])
    if any(len(v) != length for v in vectors):
        raise ValueError("all beams must have the same length")
    acc = np.zeros(length, dtype=np.complex128)
    for sign, vec in zip(signs, vectors):
        acc += int(sign) * vec.entries
    return WeightVector(acc / math.sqrt(len(vectors)))


def are_orthogonal(a: SteeringVector, b: SteeringVector, tol: float = 1e-9) -> bool:
    """True when |sum_n a_n b_n*| is at most ``tol``."""
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if len(a) != len(b):
        raise ValueError(f"beam lengths differ: {len(a)} vs {len(b)}")
    inner = np.sum(a.entries * np.conj(b.entries))
    return bool(abs(inner) <= tol)


def codebook_from_cosines(
    cfg: ArrayConfig, cosines: Sequence[float], tol: float = 1e-9
) -> BeamCodebook:
    """Codebook of beams at the given cos(angle) values, ordered as given."""
    cos_arr = np.asarray(list(cosines), dtype=float)
    if cos_arr.ndim != 1 or cos_arr.size == 0:
        raise ValueError("need at least one beam direction")
    if np.any(np.abs(cos_arr) > 1.0):
        raise ValueError("cos(angle) values must lie in [-1, 1]")
    vectors = tuple(steering_vector(cfg, math.degrees(math.acos(c))) for c in cos_arr)
    k = len(vectors)
    ortho = np.zeros((k, k), dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            ortho[i, j] = ortho[j, i] = are_orthogonal(vectors[i], vectors[j], tol)
    return BeamCodebook(
        cfg=cfg,
        angles_deg=tuple(v.angle_deg for v in vectors),
        vectors=vectors,
        ortho=ortho,
    )


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


def subarray_beam(cfg: ArrayConfig, cos_center: float, num_active: int) -> WeightVector:
    """Wide beam from a front sub-array: first ``num_active`` antennas steer
    cos(angle) = cos_center, the rest stay off.  Smaller apertures trade
    gain for coverage, which is what lower-resolution sector beams are."""
    if not 1 <= num_active <= cfg.num_antennas:
        raise ValueError(f"num_active must lie in [1, {cfg.num_antennas}], got {num_active!r}")
    w = np.zeros(cfg.num_antennas, dtype=np.complex128)
    n = np.arange(num_active)
    w[:num_active] = np.exp(-2j * np.pi * n * cfg.spacing * cos_center) / math.sqrt(num_active)
    return WeightVector(w)


def quantize_phases(w: WeightVector, bits: int) -> WeightVector:
    """Snap each weight's phase to the nearest of 2**bits uniform levels.

    Magnitudes are untouched.  A phase exactly halfway between two levels
    rounds to the lower level so results do not depend on platform
    rounding behaviour.
    """
    if int(bits) != bits or bits < 1:
        raise ValueError(f"bits must be a positive integer, got {bits!r}")
    step = 2.0 * np.pi / (2 ** int(bits))
    mags = np.abs(w.weights)
    levels = np.ceil(np.angle(w.weights) / step - 0.5)
    return WeightVector(mags * np.exp(1j * step * levels))


def project_uniform(w: WeightVector) -> WeightVector:
    """Phase-only version of ``w``: every entry becomes exp(j phase)/sqrt(N).

    np.angle(0) is 0, so zero entries come back at phase zero.
    """
    phases = np.angle(w.weights)
    return WeightVector(np.exp(1j * phases) / math.sqrt(len(w)))


def sidelobe_level(
    w: WeightVector | SteeringVector,
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
