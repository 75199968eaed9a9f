"""Propagation models: the deterministic two-path toy scene, a seeded
cluster channel and link budget bookkeeping.

A realization is four read-only 1-D arrays in ray order: departure and
arrival angles in degrees, complex gains and delay taps.  Gains are linear
amplitudes relative to a 1 m free-space reference, so a line-of-sight ray
at distance d carries (lambda / 4 pi) * d**(-eta/2).  Taps are integer
indices at the signal sample period.
"""

from __future__ import annotations

import functools
import math
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .array_model import (
    ArrayConfig,
    BeamCodebook,
    _readonly,
    _steering_matrix,
    codebook_from_cosines,
)

__all__ = [
    "ChannelRealization",
    "NormalStream",
    "ChannelConfig",
    "LinkBudget",
    "TOY_BEAM_COSINES",
    "TOY_BEAM_ANGLES_DEG",
    "TOY_LOS_PAIR",
    "TOY_NLOS_PAIR",
    "toy_channel",
    "toy_codebooks",
    "draw_cluster_loss",
    "sample_channel",
    "cascade_gains",
    "derive_seed",
]

SPEED_OF_LIGHT = 299792458.0

_MASK64 = (1 << 64) - 1

# Held by every stream draw and memo miss, on any thread; reentrant, as a
# memo value may ask for another; one for all, so realizations pickle.
_LOCK = threading.RLock()


def derive_seed(master: int, index: int) -> int:
    """Child seed i = splitmix64_mix((master XOR i) + golden gamma).

    The splitmix64 finalizer scrambles the xor so that nearby indices land
    on unrelated RNG streams; the rule is fixed so campaigns can be
    replayed or sharded without coordination.
    """
    x = ((master ^ index) + 0x9E3779B97F4A7C15) & _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return (x ^ (x >> 31)) & _MASK64


class NormalStream:
    """The standard normals of ``default_rng(seed)``, drawn on demand and kept.

    A numpy Generator draws its normals one after another, so normals drawn
    in pieces equal as many drawn at once: every reader of the stream sees
    what a fresh generator of its own would have drawn.  The generator is
    made on the first read.
    """

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._rng: np.random.Generator | None = None
        self._normals = _readonly(np.empty(0))

    def read(self, start: int, count: int) -> np.ndarray:
        """Normals ``start`` to ``start + count - 1`` of the stream, read-only."""
        end = start + count
        with _LOCK:
            drawn = len(self._normals)
            if end > drawn:
                if self._rng is None:
                    self._rng = np.random.default_rng(self._seed)
                more = self._rng.standard_normal(end - drawn)
                self._normals = _readonly(np.concatenate([self._normals, more]) if drawn else more)
            return self._normals[start:end]


# The dtype of each ray array of a realization, in field order.
_RAY_DTYPES = {"aods_deg": float, "aoas_deg": float, "gains": np.complex128, "taps": np.intp}


# Arrays have no dataclass equality or hash, hence eq=False: two
# realizations are equal only when they are one object.
@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """The rays of one channel as four read-only 1-D arrays, in ray order:
    departure and arrival angles in degrees, complex gains and delay taps.

    The constructor keeps its own copies, so later writes to the arrays
    passed in do not reach the realization.  The tap count is computed on
    first use and kept, and so is whatever callers keep through
    :meth:`memo`: the training sessions of :mod:`beamtrain.protocols`,
    through which every run on one realization shares its cascades and
    its noise draws.
    """

    aods_deg: np.ndarray
    aoas_deg: np.ndarray
    gains: np.ndarray
    taps: np.ndarray

    def __post_init__(self) -> None:
        taps = np.asarray(self.taps)
        if not np.all(np.isfinite(taps) & (taps >= 0) & (np.floor(taps) == taps)):
            raise ValueError(f"taps must be nonnegative integers, got {taps!r}")
        arrays = {name: np.array(getattr(self, name), dtype) for name, dtype in _RAY_DTYPES.items()}
        shapes = [a.shape for a in arrays.values()]
        if len(set(shapes)) != 1 or len(shapes[0]) != 1:
            raise ValueError(f"need four 1-D ray arrays of one length, got shapes {shapes}")
        for name, arr in arrays.items():
            object.__setattr__(self, name, _readonly(arr))
        # Everything kept by memo.
        object.__setattr__(self, "_cache", {})

    # cached_property stores into the instance __dict__, past the frozen
    # __setattr__; dataclasses.replace makes a new instance, which keeps
    # nothing of this one's.
    @functools.cached_property
    def num_taps(self) -> int:
        return int(self.taps.max()) + 1 if len(self.taps) else 1

    def memo(self, key: tuple, make: Callable[[], object]) -> object:
        """The value kept under ``key``, made by ``make()`` on the key's
        first use, once however many threads ask at once; ``make`` may ask
        for another key."""
        value = self._cache.get(key)
        if value is None:
            with _LOCK:
                value = self._cache.get(key)
                if value is None:
                    value = self._cache[key] = make()
        return value


@dataclass(frozen=True)
class ChannelConfig:
    """Simplified stochastic cluster channel parameters.

    Cluster reflection loss is Gaussian in dB, redrawn until it passes the
    truncation cap (rejection keeps the distribution smooth instead of
    piling mass onto the cap).  Cluster excess delays are uniform integers
    in [0, max_excess_tap]; by default a cluster's rays share its tap, and
    intra_cluster_tap_spread > 0 smears them over that many further taps
    the way indoor models do at gigahertz sample rates.
    """

    path_loss_exponent: float = 2.0
    cluster_loss_mean_db: float = -10.0
    cluster_loss_rms_db: float = 4.0
    cluster_loss_truncation_db: float = -2.0
    intra_cluster_angle_std_deg: float = 5.0
    num_clusters: int = 4
    rays_per_cluster: int = 3
    distance_m: float = 5.0
    los: bool = True
    max_excess_tap: int = 16
    intra_cluster_tap_spread: int = 0
    carrier_hz: float = 60e9

    def __post_init__(self) -> None:
        if self.num_clusters < 0 or self.rays_per_cluster < 1:
            raise ValueError("need a nonnegative cluster count and at least one ray per cluster")
        if self.distance_m <= 0:
            raise ValueError(f"distance must be positive, got {self.distance_m!r}")
        if self.max_excess_tap < 0:
            raise ValueError("max_excess_tap must be nonnegative")

    def los_amplitude(self) -> float:
        """Line-of-sight amplitude at the configured distance (1 m reference)."""
        wavelength = SPEED_OF_LIGHT / self.carrier_hz
        return (wavelength / (4.0 * math.pi)) * self.distance_m ** (
            -self.path_loss_exponent / 2.0
        )


@dataclass(frozen=True)
class LinkBudget:
    """Transmit power and receiver noise accounting."""

    tx_power_dbm: float = 10.0
    bandwidth_hz: float = 2e9
    noise_figure_plus_impl_db: float = 12.0
    noise_override_dbm: float | None = None

    @property
    def noise_power_dbm(self) -> float:
        if self.noise_override_dbm is not None:
            return self.noise_override_dbm
        return -174.0 + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_plus_impl_db

    @property
    def noise_to_signal(self) -> float:
        """Linear noise power in units of the transmit power."""
        return 10.0 ** ((self.noise_power_dbm - self.tx_power_dbm) / 10.0)


# The classic 4-beam scene: both ends can steer at four mutually orthogonal
# beams; a line-of-sight path joins tx beam 2 to rx beam 3 and a lossy
# reflection joins tx beam 1 to rx beam 4 (numbering from one, so code
# indices are one less).  The beam grid is the offset orthogonal grid
# cos = +/-0.25, +/-0.75, which keeps all four beams away from endfire.
TOY_BEAM_COSINES = (0.75, 0.25, -0.25, -0.75)
TOY_BEAM_ANGLES_DEG = tuple(math.degrees(math.acos(c)) for c in TOY_BEAM_COSINES)
TOY_LOS_PAIR = (1, 2)
TOY_NLOS_PAIR = (0, 3)


def toy_channel(a: float, nlos_excess_tap: int = 0) -> ChannelRealization:
    """Two-path toy scene with NLOS attenuation ``a``.

    The LOS ray (gain 1) aligns with the toy LOS beam pair and the NLOS
    ray (gain a) with the toy NLOS pair, so any correct training scheme
    must pick the LOS pair whenever a < 1.
    """
    if not (0.0 < a < 1.0):
        raise ValueError(f"NLOS attenuation must lie in (0, 1), got {a!r}")
    los, nlos = TOY_LOS_PAIR, TOY_NLOS_PAIR
    return ChannelRealization(
        aods_deg=[TOY_BEAM_ANGLES_DEG[los[0]], TOY_BEAM_ANGLES_DEG[nlos[0]]],
        aoas_deg=[TOY_BEAM_ANGLES_DEG[los[1]], TOY_BEAM_ANGLES_DEG[nlos[1]]],
        gains=[1.0, a],
        taps=[0, nlos_excess_tap],
    )


def toy_codebooks(
    num_antennas: int = 4, spacing: float = 0.5
) -> tuple[BeamCodebook, BeamCodebook]:
    """Matching 4-beam transmit and receive codebooks for the toy scene."""
    cfg = ArrayConfig(num_antennas, spacing)
    cb = codebook_from_cosines(cfg, TOY_BEAM_COSINES)
    return cb, cb


def _fold_angle(angle: float) -> float:
    """Reflect an angle into [0, 180] degrees."""
    a = angle % 360.0
    return 360.0 - a if a > 180.0 else a


def draw_cluster_loss(cfg: ChannelConfig, rng: np.random.Generator) -> float:
    """One cluster reflection loss in dB, redrawn until under the cap."""
    loss_db = rng.normal(cfg.cluster_loss_mean_db, cfg.cluster_loss_rms_db)
    while loss_db > cfg.cluster_loss_truncation_db:
        loss_db = rng.normal(cfg.cluster_loss_mean_db, cfg.cluster_loss_rms_db)
    return float(loss_db)


def sample_channel(cfg: ChannelConfig, seed: int) -> ChannelRealization:
    """Draw one cluster-channel realization, deterministic under ``seed``.

    Cluster centers are uniform over (0, 180) in AoD and AoA independently;
    each cluster gets a reflection loss redrawn until it passes the
    truncation cap, an excess delay tap, and ``rays_per_cluster`` rays
    spread Gaussian around the center with uniform phases.  The LOS ray, if
    present, sits at tap 0 with phase 0.

    Zero-offset draws scale ``random`` and ``standard_normal`` by hand:
    ``uniform(0, b)`` and ``normal(0, s)`` compute ``0 + b * u`` and
    ``0 + s * z`` from the same state, so the rays are the same, bit for
    bit, and each draw skips the generic offset-and-scale path.
    """
    rng = np.random.default_rng(seed)
    ref = cfg.los_amplitude()
    spread = cfg.intra_cluster_tap_spread
    angle_std = cfg.intra_cluster_angle_std_deg
    ray = int(cfg.los)
    count = ray + cfg.num_clusters * cfg.rays_per_cluster
    aods, aoas = np.empty(count), np.empty(count)
    gains = np.empty(count, dtype=np.complex128)
    taps = np.zeros(count, dtype=np.intp)
    if cfg.los:
        aods[0] = 180.0 * rng.random()
        aoas[0] = 180.0 * rng.random()
        gains[0] = ref
    for _ in range(cfg.num_clusters):
        center_aod = 180.0 * rng.random()
        center_aoa = 180.0 * rng.random()
        loss_db = draw_cluster_loss(cfg, rng)
        cluster_tap = int(rng.integers(0, cfg.max_excess_tap + 1))
        amp = ref * 10.0 ** (loss_db / 20.0) / math.sqrt(cfg.rays_per_cluster)
        for _ in range(cfg.rays_per_cluster):
            aods[ray] = _fold_angle(center_aod + angle_std * rng.standard_normal())
            aoas[ray] = _fold_angle(center_aoa + angle_std * rng.standard_normal())
            phase = 2.0 * math.pi * rng.random()
            gains[ray] = amp * np.exp(1j * phase)
            # integers(0, 1) draws nothing from the stream, so skipping it
            # leaves every later draw as it was.
            taps[ray] = cluster_tap + (int(rng.integers(0, spread + 1)) if spread else 0)
            ray += 1
    return ChannelRealization(aods, aoas, gains, taps)


def _responses(weights: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """Array factor of every weight row at every ray, laid out ray-major,
    shape (rays, rows)."""
    w = np.ascontiguousarray(weights, dtype=np.complex128)
    if w.ndim != 2 or w.shape[1] != len(steering):
        raise ValueError(
            f"weights of shape {w.shape} do not match {len(steering)} antennas"
        )
    # A stack of row-times-matrix products, not one matrix product: each
    # row then takes the same BLAS path as array_factor_many, and the two
    # agree bit for bit.
    return (w[:, None, :] @ steering)[:, 0, :].T


def cascade_gains(
    tx_weights: np.ndarray,
    rx_weights: np.ndarray,
    ch: ChannelRealization,
    tx_cfg: ArrayConfig,
    rx_cfg: ArrayConfig,
) -> np.ndarray:
    """Per-tap gains of the array-channel-array cascade for many weights.

    ``tx_weights`` is (F, tx antennas) and ``rx_weights`` (G, rx antennas);
    the result has shape (num_taps, F, G).  Each ray adds gain *
    tx response(aod) * rx response(aoa) at its tap, in ray order.

    Each tap starts from +0.0 and adds its rays' (F, G) terms one ray at a
    time, real and imaginary parts apart.  So a table holds no -0.0, and a
    cascade of more rows holds every entry as a cascade of that entry's
    own weights would, bit for bit.
    """
    steering = (_steering_matrix(ch.aods_deg, tx_cfg), _steering_matrix(ch.aoas_deg, rx_cfg))
    return _cascade(tx_weights, rx_weights, steering, (ch.gains, ch.taps, ch.num_taps))


def _cascade(
    tx_weights: np.ndarray, rx_weights: np.ndarray, steering: tuple, rays: tuple
) -> np.ndarray:
    """:func:`cascade_gains` through the transmit and receive steering
    matrices and the (gains, taps, num_taps) of the rays."""
    (gains, taps, num_taps), f, g = rays, len(tx_weights), len(rx_weights)
    tx = _responses(tx_weights, steering[0])
    rx = _responses(rx_weights, steering[1])
    # (gain * tx response) * rx response, in that operand order (a commuted
    # product rounds differently); broadcast, the factors round as full
    # contiguous ones do.  The responses are column-major views, so the
    # product gets a C-ordered buffer of its own: left to allocate, it lays
    # each ray's term out strided and the adds below slow down, and with
    # order="C" it takes a multiply loop that rounds differently.
    terms = np.empty((len(gains), f, g), dtype=np.complex128)
    np.multiply((gains[:, None] * tx)[:, :, None], rx[:, None, :], out=terms)
    out = np.zeros((num_taps, f, g), dtype=np.complex128)
    for tap, term in zip(taps.tolist(), terms):
        out[tap] += term
    return out
