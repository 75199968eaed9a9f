"""Training protocol state machines.

Every runner is a pure function of (config, channel, seed) and returns a
:class:`TrainingOutcome` with the selected beam pair, the measured gain or
correlation table, packet and bit costs, per-field power traces and the
post-selection SNR.

Every weight a runner trains with depends on the config alone: the
transformed codebooks, the Walsh-coded field weights with their chips,
the sector beams, the receive composite and the clean codebooks the SNR
is reported with.  A config builds each of them once, on first use, into
a read-only plan per end of the link and reuses it for every channel.

Everything else depends on the channel alone, and the realization keeps
it for every run on it (see
:class:`~beamtrain.channel.ChannelRealization`).  A stage's estimates come
from the realization's gain table of its two weight matrices, computed
once per pair of matrices: the exhaustive schemes read the whole
codebook table, feedback in-packet training reads its best row, and the
SNR of every scheme reads its pair's entry of the clean-codebook table,
which is that same table when no transform is set.  The multilevel fine
stage keeps a cascade of its own, because entries sliced out of the
whole table round differently in the last bit.  Measurement noise comes
from the realization's one stream per seed: every run reads its stages
as consecutive slices from the start of the stream, just as if it drew
them from a fresh generator.  Every stage of every scheme runs through
one routine: it adds the noise, decodes coded fields with
:func:`~beamtrain.beam_coding.walsh_decode`, sums power over taps and
tests detection.

Measurement model: each training field yields one channel estimate per
delay tap.  Estimates are expressed in beam-pair gain units, i.e. the raw
array response divided by sqrt(N_tx * N_rx), so a ray aligned with both
beams of an orthogonal pair reads back as its plain ray gain; that keeps
the classic two-path numbers (2 and 2a) exact.  Correlating over the CE
sequence buys a processing gain of ``ce_chips``, so additive noise enters
each estimate with variance noise_power / (tx_power * ce_chips).
"""

from __future__ import annotations

import functools
import logging
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .array_model import (
    BeamCodebook,
    SteeringVector,
    WeightVector,
    array_factor_many,
    project_uniform,
    quantize_phases,
    subarray_beam,
    superpose_beams,
)
from .beam_coding import coded_fields, walsh_codes, walsh_decode
from .channel import ChannelRealization, LinkBudget, Ray, _readonly, derive_seed
from .packets import PER_BEAM_BITS_80211AD, PER_BEAM_BITS_BEAM_CODING

__all__ = [
    "Scheme",
    "ProtocolConfig",
    "TrainingOutcome",
    "run",
    "run_exhaustive_pbp",
    "run_multilevel_pbp",
    "run_exhaustive_inpacket",
    "run_feedback_inpacket",
    "run_exhaustive_beamcoding",
    "run_feedback_beamcoding",
    "sector_beams",
    "sector_trap_channel",
]

log = logging.getLogger(__name__)

# Salt for the measurement-noise RNG stream so it never replays the draws
# that produced the channel realization from the same seed.
_NOISE_STREAM = 0x6E015E

# A stage detects a beam when its peak clears this many decoded noise
# standard deviations.
_DETECTION_SIGMA = 5.0


class Scheme(str, Enum):
    EXHAUSTIVE_PBP = "exhaustive_pbp"
    MULTILEVEL_PBP = "multilevel_pbp"
    EXHAUSTIVE_INPACKET = "exhaustive_inpacket"
    FEEDBACK_INPACKET = "feedback_inpacket"
    EXHAUSTIVE_BEAMCODING = "exhaustive_beamcoding"
    FEEDBACK_BEAMCODING = "feedback_beamcoding"


_CODED_SCHEMES = (Scheme.EXHAUSTIVE_BEAMCODING, Scheme.FEEDBACK_BEAMCODING)
_FEEDBACK_SCHEMES = (Scheme.FEEDBACK_INPACKET, Scheme.FEEDBACK_BEAMCODING)


@dataclass(frozen=True)
class ProtocolConfig:
    """Codebooks plus scheme-specific knobs for one training run.

    ``noise`` switches measurement noise on; ``snr_budget`` only scales the
    reported post-selection SNR (and falls back to ``noise``).  The weight
    transforms model hardware limits: ``project_phase_only`` forces uniform
    magnitudes, ``quantize_bits`` snaps phases to a digital phase shifter.
    Transforms apply to training weights only; the reported SNR always uses
    clean steering at the chosen pair, since data transmission happens
    after training refines the weights.  The training weights are built on
    a config's first run and reused by every later one, so reuse one
    config across channels.
    """

    tx_codebook: BeamCodebook
    rx_codebook: BeamCodebook
    scheme: Scheme
    noise: LinkBudget | None = None
    snr_budget: LinkBudget | None = None
    quantize_bits: int | None = None
    project_phase_only: bool = False
    num_sectors: int = 4
    ce_chips: int = 1024
    feedback_bits: int = 512

    def __post_init__(self) -> None:
        if self.scheme in _CODED_SCHEMES and not self.tx_codebook.is_orthogonal:
            warnings.warn(
                "coded training over a non-orthogonal transmit beam group: "
                "decoding still works but per-field power flatness is lost",
                stacklevel=2,
            )
        if self.scheme is Scheme.FEEDBACK_BEAMCODING and not self.rx_codebook.is_orthogonal:
            warnings.warn(
                "feedback coded training codes the receive beams too, and this "
                "receive beam group is not mutually orthogonal",
                stacklevel=2,
            )

    # cached_property stores into the instance __dict__, past the frozen
    # __setattr__; dataclasses.replace makes a new instance, which builds
    # its own plans.
    @functools.cached_property
    def _tx_plan(self) -> _TrainingPlan:
        return _TrainingPlan(self, self.tx_codebook)

    @functools.cached_property
    def _rx_plan(self) -> _TrainingPlan:
        return _TrainingPlan(self, self.rx_codebook)


@dataclass(frozen=True)
class TrainingOutcome:
    """Result of one training run.

    ``feedback_bits`` counts the piggybacked feedback messages and is kept
    out of ``training_bits``, which covers training sections only.
    ``correlation`` is the read-only decoded table of exhaustive coded
    training, r[p, q] at each pair's strongest tap.
    """

    scheme: Scheme
    seed: int
    success: bool
    best_pair: tuple[int, int] | None
    pair_power: np.ndarray | None
    correlation: np.ndarray | None
    packets_sent: int
    training_bits: int
    power_traces: tuple[np.ndarray, ...]
    snr_db: float
    feedback_messages: int = 0
    feedback_bits: int = 0


def _transform(cfg: ProtocolConfig, w: WeightVector | SteeringVector) -> WeightVector:
    out = w.as_weights() if isinstance(w, SteeringVector) else w
    if cfg.project_phase_only:
        out = project_uniform(out)
    if cfg.quantize_bits is not None:
        out = quantize_phases(out, cfg.quantize_bits)
    return out


def _weight_matrix(
    cfg: ProtocolConfig, vectors: Sequence[WeightVector | SteeringVector]
) -> np.ndarray:
    return _readonly(np.stack([_transform(cfg, v).weights for v in vectors]))


class _TrainingPlan:
    """The training weights of one end of the link, shared by every run of
    a config.

    None of them depends on the channel, so each is built on first use,
    stacked one row per beam or field, and kept read-only.
    """

    def __init__(self, cfg: ProtocolConfig, codebook: BeamCodebook) -> None:
        self._cfg = cfg
        self._codebook = codebook

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Transformed codebook, (beams, antennas)."""
        return _weight_matrix(self._cfg, self._codebook.vectors)

    @functools.cached_property
    def clean(self) -> np.ndarray:
        """Untransformed codebook, (beams, antennas), for the SNR report; it
        has the bytes of ``weights`` when no transform is set."""
        return _readonly(self._codebook.matrix())

    @functools.cached_property
    def coded(self) -> tuple[np.ndarray, np.ndarray]:
        """Transformed field weights (T, antennas) of the Walsh-coded
        codebook, and the chips (K, T) that tag its beams."""
        k = len(self._codebook)
        chips = walsh_codes(max(0, (k - 1).bit_length()))[:k]
        fields = coded_fields(self._codebook.vectors, chips)
        return _weight_matrix(self._cfg, fields), _readonly(chips.astype(np.complex128))

    @functools.cached_property
    def sectors(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Sector beams (untransformed), (S, antennas), and the fine beams
        each one covers."""
        beams, groups = sector_beams(self._codebook, self._cfg.num_sectors)
        return (
            _readonly(np.stack([w.weights for w in beams])),
            tuple(_readonly(np.array(g, dtype=np.intp)) for g in groups),
        )

    @functools.cached_property
    def composite(self) -> np.ndarray:
        """Equal-power all-beams weights, (1, antennas), for the feedback
        stages' reception; deliberately left untransformed (see
        ProtocolConfig)."""
        vectors = list(self._codebook.vectors)
        return superpose_beams(vectors, [1] * len(vectors)).weights[None, :]


def _field_noise_std(cfg: ProtocolConfig) -> float:
    if cfg.noise is None:
        return 0.0
    n_tx = cfg.tx_codebook.cfg.num_antennas
    n_rx = cfg.rx_codebook.cfg.num_antennas
    return math.sqrt(cfg.noise.noise_to_signal / cfg.ce_chips) / math.sqrt(n_tx * n_rx)


def _table(
    cfg: ProtocolConfig, ch: ChannelRealization, tx_weights: np.ndarray, rx_weights: np.ndarray
) -> np.ndarray:
    """The realization's read-only gain table, (num_taps, len(tx), len(rx))."""
    return ch.gain_table(tx_weights, rx_weights, cfg.tx_codebook.cfg, cfg.rx_codebook.cfg)


class _Noise:
    """One run's reader of the realization's measurement-noise stream: the
    run's stages read consecutive slices, from the start of the stream."""

    def __init__(self, ch: ChannelRealization, seed: int) -> None:
        self._stream = ch.normal_stream(derive_seed(seed, _NOISE_STREAM))
        self._offset = 0

    def next(self, shape: tuple[int, ...]) -> np.ndarray:
        count = math.prod(shape)
        normals = self._stream.read(self._offset, count)
        self._offset += count
        return normals.reshape(shape)


def _snr_db(cfg: ProtocolConfig, ch: ChannelRealization, pair: tuple[int, int] | None) -> float:
    budget = cfg.snr_budget if cfg.snr_budget is not None else cfg.noise
    if budget is None or pair is None:
        return float("nan") if pair is not None else -math.inf
    taps = _table(cfg, ch, cfg._tx_plan.clean, cfg._rx_plan.clean)[:, pair[0], pair[1]]
    p_rel = float(np.sum(np.abs(taps) ** 2))
    if p_rel <= 0.0:
        return -math.inf
    return 10.0 * math.log10(p_rel / budget.noise_to_signal)


def _argmax_pair(power: np.ndarray) -> tuple[int, int]:
    flat = int(np.argmax(power))
    p, q = np.unravel_index(flat, power.shape)
    return int(p), int(q)


def _stage(
    cfg: ProtocolConfig,
    table: np.ndarray,
    noise: _Noise,
    chips: np.ndarray | None = None,
    axis: int = -2,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """One training stage over a raw gain table (num_taps, tx, rx).

    Returns the noisy per-tap field estimates (a new array), the per-beam
    table (the estimates Walsh-decoded along ``axis`` when ``chips`` is
    given, else the estimates themselves), its power summed over taps, and
    whether its peak passes detection.  The peak must clear 5x the decoded
    noise standard deviation, which decoding T fields raises by sqrt(T).
    There is no failure path in an idealized description, but degenerate
    inputs (a dead channel) need one; noiseless runs just require a
    strictly positive peak.
    """
    est = table / math.sqrt(cfg.tx_codebook.cfg.num_antennas * cfg.rx_codebook.cfg.num_antennas)
    sigma = _field_noise_std(cfg)
    if sigma > 0.0:
        # One draw holds the real parts, then the imaginary parts.
        normals = noise.next((2, *est.shape)) * (sigma / math.sqrt(2.0))
        est.real += normals[0]
        est.imag += normals[1]
    r, gain = est, 1.0
    if chips is not None:
        r, gain = walsh_decode(chips, est, axis), math.sqrt(chips.shape[1])
    power = np.sum(np.abs(r) ** 2, axis=0)
    detected = float(np.max(np.abs(r))) > _DETECTION_SIGMA * sigma * gain
    return est, r, power, detected


def _outcome(
    scheme: Scheme,
    cfg: ProtocolConfig,
    ch: ChannelRealization,
    seed: int,
    pair: tuple[int, int] | None,
    traces: tuple[np.ndarray, ...],
    packets: int,
    bits: int,
    pair_power: np.ndarray | None = None,
    correlation: np.ndarray | None = None,
) -> TrainingOutcome:
    """The outcome of a run that selected ``pair`` (None on a detection
    failure); a feedback scheme also sends one feedback message."""
    feedback = scheme in _FEEDBACK_SCHEMES
    return TrainingOutcome(
        scheme=scheme,
        seed=seed,
        success=pair is not None,
        best_pair=pair,
        pair_power=pair_power,
        correlation=correlation,
        packets_sent=packets,
        training_bits=bits,
        power_traces=traces,
        snr_db=_snr_db(cfg, ch, pair),
        feedback_messages=int(feedback),
        feedback_bits=cfg.feedback_bits if feedback else 0,
    )


def _traces_per_rx(est: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-packet traces for schemes with one receive dwell per packet."""
    power = np.sum(np.abs(est) ** 2, axis=0)
    return tuple(power[:, q].copy() for q in range(power.shape[1]))


def _exhaustive(
    cfg: ProtocolConfig, ch: ChannelRealization, seed: int
) -> tuple[np.ndarray, np.ndarray, tuple[int, int] | None]:
    """The whole codebook table's estimates, their power and the pair they
    select: packet-by-packet and in-packet search measure the same."""
    table = _table(cfg, ch, cfg._tx_plan.weights, cfg._rx_plan.weights)
    est, _, power, detected = _stage(cfg, table, _Noise(ch, seed))
    return est, power, _argmax_pair(power) if detected else None


def run_exhaustive_pbp(
    cfg: ProtocolConfig, ch: ChannelRealization, seed: int
) -> TrainingOutcome:
    """One packet per beam pair, (p, q) ordered; the performance yardstick."""
    _, power, pair = _exhaustive(cfg, ch, seed)
    p, q = power.shape
    # One single-field trace per packet: the rows of one (p * q, 1) copy.
    traces = tuple(power.reshape(p * q, 1).copy())
    bits = p * q * PER_BEAM_BITS_80211AD
    return _outcome(Scheme.EXHAUSTIVE_PBP, cfg, ch, seed, pair, traces, p * q, bits, power)


def sector_beams(
    codebook: BeamCodebook, num_sectors: int
) -> tuple[list[WeightVector], list[list[int]]]:
    """Lower-resolution sector beams plus the fine-beam indices they cover.

    The codebook is split into contiguous groups; each sector beam steers a
    front sub-array of N // num_sectors antennas at the group's mean
    cos(angle), trading aperture for per-beam coverage.
    """
    if num_sectors < 1:
        raise ValueError("need at least one sector")
    sub = max(1, codebook.cfg.num_antennas // num_sectors)
    groups = [
        [int(i) for i in g]
        for g in np.array_split(np.arange(len(codebook)), num_sectors)
        if g.size
    ]
    beams = []
    for group in groups:
        center = float(np.mean([math.cos(math.radians(codebook.angles_deg[i])) for i in group]))
        beams.append(subarray_beam(codebook.cfg, center, sub))
    return beams, groups


def run_multilevel_pbp(
    cfg: ProtocolConfig, ch: ChannelRealization, seed: int
) -> TrainingOutcome:
    """Two-level search: wide sector beams first, fine beams inside the winner."""
    noise = _Noise(ch, seed)
    tx_wide, tx_groups = cfg._tx_plan.sectors
    rx_wide, rx_groups = cfg._rx_plan.sectors

    _, _, power1, _ = _stage(cfg, _table(cfg, ch, tx_wide, rx_wide), noise)
    s_tx, s_rx = _argmax_pair(power1)

    fine_tx, fine_rx = tx_groups[s_tx], rx_groups[s_rx]
    # A cascade of its own: the same entries sliced out of the whole
    # codebook table differ in the last bit.
    fine = _table(cfg, ch, cfg._tx_plan.weights[fine_tx], cfg._rx_plan.weights[fine_rx])
    _, _, power2, detected = _stage(cfg, fine, noise)
    local = _argmax_pair(power2)
    pair = (int(fine_tx[local[0]]), int(fine_rx[local[1]])) if detected else None

    packets = len(tx_wide) * len(rx_wide) + len(fine_tx) * len(fine_rx)
    traces = (power1.ravel(), power2.ravel())
    bits = packets * PER_BEAM_BITS_80211AD
    return _outcome(Scheme.MULTILEVEL_PBP, cfg, ch, seed, pair, traces, packets, bits, power2)


def run_exhaustive_inpacket(
    cfg: ProtocolConfig, ch: ChannelRealization, seed: int
) -> TrainingOutcome:
    """One packet per receive beam; TRN fields sweep every transmit beam.

    Recovers the full beam-pair gain table, so noiselessly it agrees with
    packet-by-packet search entry for entry.
    """
    est, power, pair = _exhaustive(cfg, ch, seed)
    p, q = power.shape
    bits = q * p * PER_BEAM_BITS_80211AD
    return _outcome(
        Scheme.EXHAUSTIVE_INPACKET, cfg, ch, seed, pair, _traces_per_rx(est), q, bits, power
    )


def run_feedback_inpacket(
    cfg: ProtocolConfig, ch: ChannelRealization, seed: int
) -> TrainingOutcome:
    """Two-packet training: transmit sweep into a composite receiver, then a
    receive sweep at the fed-back transmit beam."""
    noise = _Noise(ch, seed)
    tx_ws, rx_ws = cfg._tx_plan.weights, cfg._rx_plan.weights
    _, _, power1, detected1 = _stage(cfg, _table(cfg, ch, tx_ws, cfg._rx_plan.composite), noise)
    best_tx = int(np.argmax(power1[:, 0]))

    table = _table(cfg, ch, tx_ws, rx_ws)
    _, _, power2, detected2 = _stage(cfg, table[:, best_tx : best_tx + 1, :], noise)
    pair = (best_tx, int(np.argmax(power2[0, :]))) if detected1 and detected2 else None

    traces = (power1[:, 0], power2[0, :])
    bits = (len(cfg.tx_codebook) + len(cfg.rx_codebook)) * PER_BEAM_BITS_80211AD
    return _outcome(Scheme.FEEDBACK_INPACKET, cfg, ch, seed, pair, traces, 2, bits)


def run_exhaustive_beamcoding(
    cfg: ProtocolConfig, ch: ChannelRealization, seed: int
) -> TrainingOutcome:
    """All transmit beams coded into every field; the receiver sweeps.

    The correlation r[p, q] carries the documented T/sqrt(K) scale on top
    of the beam-pair gain, so the two-path toy decodes to exactly 2 and 2a.
    """
    tx_fields, chips = cfg._tx_plan.coded
    table = _table(cfg, ch, tx_fields, cfg._rx_plan.weights)
    est, r, power, detected = _stage(cfg, table, _Noise(ch, seed), chips)
    pair = _argmax_pair(power) if detected else None

    dominant = np.take_along_axis(r, np.argmax(np.abs(r), axis=0)[None, ...], axis=0)[0]
    q = est.shape[2]
    traces = _traces_per_rx(est)
    bits = q * len(tx_fields) * PER_BEAM_BITS_BEAM_CODING
    scheme = Scheme.EXHAUSTIVE_BEAMCODING
    return _outcome(scheme, cfg, ch, seed, pair, traces, q, bits, power, _readonly(dominant))


def run_feedback_beamcoding(
    cfg: ProtocolConfig, ch: ChannelRealization, seed: int
) -> TrainingOutcome:
    """Two-packet coded training: coded transmit beams into a composite
    receiver, feedback, then coded receive beams at the chosen transmit beam."""
    noise = _Noise(ch, seed)
    tx_fields, tx_chips = cfg._tx_plan.coded
    table1 = _table(cfg, ch, tx_fields, cfg._rx_plan.composite)
    _, _, power1, detected1 = _stage(cfg, table1, noise, tx_chips)
    best_tx = int(np.argmax(power1[:, 0]))

    rx_fields, rx_chips = cfg._rx_plan.coded
    tx_best = cfg._tx_plan.weights[best_tx : best_tx + 1]
    # Receive-side coding: fields vary the receiver weights, so decode along
    # the receive axis.
    table2 = _table(cfg, ch, tx_best, rx_fields)
    _, _, power2, detected2 = _stage(cfg, table2, noise, rx_chips, axis=2)
    pair = (best_tx, int(np.argmax(power2[0, :]))) if detected1 and detected2 else None

    traces = (power1[:, 0], power2[0, :])
    bits = (len(tx_fields) + len(rx_fields)) * PER_BEAM_BITS_BEAM_CODING
    return _outcome(Scheme.FEEDBACK_BEAMCODING, cfg, ch, seed, pair, traces, 2, bits)


_RUNNERS = {
    Scheme.EXHAUSTIVE_PBP: run_exhaustive_pbp,
    Scheme.MULTILEVEL_PBP: run_multilevel_pbp,
    Scheme.EXHAUSTIVE_INPACKET: run_exhaustive_inpacket,
    Scheme.FEEDBACK_INPACKET: run_feedback_inpacket,
    Scheme.EXHAUSTIVE_BEAMCODING: run_exhaustive_beamcoding,
    Scheme.FEEDBACK_BEAMCODING: run_feedback_beamcoding,
}


def run(cfg: ProtocolConfig, ch: ChannelRealization, seed: int) -> TrainingOutcome:
    """Dispatch to the runner named by ``cfg.scheme``; logs the outcome at
    DEBUG."""
    out = _RUNNERS[cfg.scheme](cfg, ch, seed)
    log.debug(
        "%s seed %d: success=%s pair=%s", out.scheme.value, seed, out.success, out.best_pair
    )
    return out


def sector_trap_channel(
    tx_cb: BeamCodebook,
    rx_cb: BeamCodebook,
    num_sectors: int = 4,
    distractor_gain: float = 0.5,
) -> ChannelRealization:
    """Adversarial channel where sector-first search picks a weak path.

    Two equal-strength rays depart on the two center-most fine beams of one
    sector and arrive on a single fine beam, with gains phased so their sum
    under that sector's wide transmit beam cancels exactly: the wide beam
    cannot resolve the two departures, so every sector pair involving the
    trap sector looks dead (the arrival factor multiplies a zero).  A
    weaker distractor ray in another sector then wins the sector stage.
    Fine-resolution search (exhaustive or coded) resolves the two strong
    departures individually and beats the two-level result by
    1 / distractor_gain**2.
    """
    if not 0.0 < distractor_gain < 1.0:
        raise ValueError("distractor gain must lie in (0, 1)")
    tx_wide, tx_groups = sector_beams(tx_cb, num_sectors)
    _, rx_groups = sector_beams(rx_cb, num_sectors)
    if len(tx_groups) < 3 or min(len(g) for g in tx_groups[:3]) < 2:
        raise ValueError("need at least three sectors of two or more beams")

    trap_tx, trap_rx = tx_groups[1], rx_groups[1]
    i1, i2 = trap_tx[len(trap_tx) // 2 - 1], trap_tx[len(trap_tx) // 2]
    j = trap_rx[len(trap_rx) // 2]
    aod1, aod2 = tx_cb.angles_deg[i1], tx_cb.angles_deg[i2]
    aoa = rx_cb.angles_deg[j]

    wide = tx_wide[1]
    t1 = complex(array_factor_many(wide, np.array([aod1]), tx_cb.cfg)[0])
    t2 = complex(array_factor_many(wide, np.array([aod2]), tx_cb.cfg)[0])
    gain2 = -t1 / t2  # magnitude 1 by symmetry; kills the wide-beam sum

    d_tx = tx_groups[2][len(tx_groups[2]) // 2]
    d_rx = rx_groups[2][len(rx_groups[2]) // 2]
    rays = (
        Ray(aod_deg=aod1, aoa_deg=aoa, gain=1.0, tap=0),
        Ray(aod_deg=aod2, aoa_deg=aoa, gain=gain2, tap=0),
        Ray(
            aod_deg=tx_cb.angles_deg[d_tx],
            aoa_deg=rx_cb.angles_deg[d_rx],
            gain=distractor_gain,
            tap=0,
        ),
    )
    return ChannelRealization(rays=rays, los_present=False)
