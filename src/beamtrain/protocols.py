"""Training protocol state machines.

Every runner is a pure function of (config, channel, seed) and returns a
:class:`TrainingOutcome` with the selected beam pair, the measured gain or
correlation table, packet and bit costs, per-field power traces and the
post-selection SNR.

Every weight a runner trains with comes from its config's read-only plan
of each end of the link.  A run trains through a session: the training
of one seed on one realization, through one pair of plans, at one noise
level.  The realization keeps it for every run that agrees on the
codebooks, transforms, sector count, seed and noise level, and those runs
share its steering, its noise stream (each reads it from its start) and
its gain tables.  A plan's receive stack is its codebook with the
composite beam as one more row, so one cascade serves a receive sweep and
reception on the composite alike; the six schemes make four cascades per
realization.  Every stage of every scheme runs through :func:`_stage`.

Measurement model: each training field yields one channel estimate per
delay tap.  Estimates are expressed in beam-pair gain units, i.e. the raw
array response divided by sqrt(N_tx * N_rx), so a ray aligned with both
beams of an orthogonal pair reads back as its plain ray gain; that keeps
the classic two-path numbers (2 and 2a) exact.  Correlating over the CE
sequence buys a processing gain of its ``CE_BITS`` chips, so additive
noise enters each estimate with variance noise_power / (tx_power * CE_BITS).
"""

from __future__ import annotations

import functools
import logging
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .array_model import (
    BeamCodebook,
    _readonly,
    _steering_matrix,
    array_factor_many,
    project_uniform,
    quantize_phases,
    subarray_beam,
    superpose_beams,
)
from .beam_coding import coded_fields, walsh_codes, walsh_decode
from .channel import ChannelRealization, LinkBudget, NormalStream, _cascade, derive_seed
from .packets import CE_BITS, training_bits

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

# Bits per swept beam of the standard-style layout and per CE field (one
# per Walsh code) of the coded one, from the packets' closed form, taken
# once so that training runs never call into the packets module.
_SWEPT_BEAM_BITS = training_bits("80211ad", 1)
_CODED_FIELD_BITS = training_bits("beamcoding", 1)

# Bits of the one feedback message a feedback scheme piggybacks.
_FEEDBACK_BITS = 512


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
    They apply to training weights only; the SNR uses clean steering at the
    chosen pair, as data follows training.  Each config builds its
    training weights on first use.  Runs on one realization that agree on
    the codebook objects, transforms, sector count, seed and noise level
    train through one session, made with the first such config's weights.
    """

    tx_codebook: BeamCodebook
    rx_codebook: BeamCodebook
    scheme: Scheme
    noise: LinkBudget | None = None
    snr_budget: LinkBudget | None = None
    quantize_bits: int | None = None
    project_phase_only: bool = False
    num_sectors: int = 4

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
        settings = (self.project_phase_only, self.quantize_bits, self.num_sectors)
        return _TrainingPlan(self.tx_codebook, settings)

    @functools.cached_property
    def _rx_plan(self) -> _TrainingPlan:
        """The transmit plan when both ends train one codebook object."""
        if self.rx_codebook is self.tx_codebook:
            return self._tx_plan
        return _TrainingPlan(self.rx_codebook, self._tx_plan.settings)

    @functools.cached_property
    def _noise_std(self) -> float:
        """Standard deviation of the noise on one field estimate."""
        if self.noise is None:
            return 0.0
        n_tx = self.tx_codebook.cfg.num_antennas
        n_rx = self.rx_codebook.cfg.num_antennas
        return math.sqrt(self.noise.noise_to_signal / CE_BITS) / math.sqrt(n_tx * n_rx)


@dataclass(frozen=True)
class TrainingOutcome:
    """Result of one training run.

    ``feedback_bits`` counts the piggybacked feedback messages and is kept
    out of ``training_bits``, which covers training sections only.
    ``correlation`` is the read-only decoded table of exhaustive coded
    training, r[p, q] at each pair's strongest tap.  ``power_traces`` is a
    sequence of per-packet 1-D arrays; the three exhaustive schemes, whose
    packets all have equally many fields, give one read-only (packets,
    fields) array (packet-by-packet search's is a view of ``pair_power``).
    """

    scheme: Scheme
    seed: int
    success: bool
    best_pair: tuple[int, int] | None
    pair_power: np.ndarray | None
    correlation: np.ndarray | None
    packets_sent: int
    training_bits: int
    power_traces: Sequence[np.ndarray]
    snr_db: float
    feedback_messages: int = 0
    feedback_bits: int = 0


class _TrainingPlan:
    """The training weights of one end of the link: ``codebook`` under one
    config's transforms and sector count.

    None of them depends on the channel, so each is built on first use,
    one row per beam or field, and kept read-only.  A plan with transforms
    holds the plan of its codebook and sector count without them.
    """

    def __init__(self, codebook: BeamCodebook, settings: tuple[bool, int | None, int]) -> None:
        self.codebook = codebook
        # project_phase_only, quantize_bits and num_sectors of the config
        self.settings = settings
        plain = (False, None, settings[2])
        self._untransformed = None if settings == plain else _TrainingPlan(codebook, plain)

    @property
    def untransformed(self) -> _TrainingPlan:
        """The plan without transforms: this one when none is set."""
        return self._untransformed or self

    def _transform(self, matrix: np.ndarray) -> np.ndarray:
        """The hardware transforms applied to a weight matrix, read-only;
        ``matrix`` itself when none is set."""
        phase_only, bits, _ = self.settings
        if phase_only:
            matrix = project_uniform(matrix)
        if bits is not None:
            matrix = quantize_phases(matrix, bits)
        return _readonly(matrix)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Transformed codebook, (beams, antennas)."""
        return self._transform(self.codebook.matrix)

    @functools.cached_property
    def coded(self) -> tuple[np.ndarray, np.ndarray]:
        """Transformed field weights (T, antennas) of the Walsh-coded
        codebook, and the chips (K, T) that tag its beams."""
        k = len(self.codebook)
        chips = walsh_codes(max(0, (k - 1).bit_length()))[:k]
        fields = coded_fields(self.codebook.matrix, chips)
        return self._transform(fields), _readonly(chips.astype(np.complex128))

    @functools.cached_property
    def sectors(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Sector beams (untransformed), (S, antennas), and the fine beams
        each one covers."""
        beams, groups = sector_beams(self.codebook, self.settings[2])
        return _readonly(beams), tuple(_readonly(np.array(g, dtype=np.intp)) for g in groups)

    @functools.cached_property
    def composite(self) -> np.ndarray:
        """Equal-power all-beams weights, (1, antennas), for the feedback
        stages' reception; deliberately left untransformed (see
        ProtocolConfig)."""
        beams = self.codebook.matrix
        return _readonly(superpose_beams(beams, [1] * len(beams))[None, :])

    @functools.cached_property
    def stack(self) -> np.ndarray:
        """``weights`` with ``composite`` as a last row: a table received
        through it holds each column as a cascade of that row alone would."""
        return _readonly(np.concatenate([self.weights, self.composite]))


class _Session:
    """The training of one seed on one realization, through one pair of
    plans, at one noise level.

    Its read-only steering and its noise stream are made with it; the
    read-only tables ``whole`` (the codebook through the receive stack),
    ``coded`` (the coded fields through it) and ``sectors``, and the
    ``exhaustive`` estimate, on first use.  A session with transforms
    holds the one without them and reads its steering, noise stream and
    sector table; every SNR report reads the untransformed ``whole``.  A
    session keeps the rays, not the realization that keeps it, so that no
    reference cycle outlives the realization.
    """

    def __init__(
        self, ch: ChannelRealization, tx: _TrainingPlan, rx: _TrainingPlan, seed: int, sigma: float
    ) -> None:
        # sigma is the standard deviation of the noise on one field
        # estimate; scale puts a raw table in beam-pair gain units.
        self.tx, self.rx, self.sigma = tx, rx, sigma
        self.scale = 1.0 / math.sqrt(tx.codebook.cfg.num_antennas * rx.codebook.cfg.num_antennas)
        self._rays = (ch.gains, ch.taps, ch.num_taps)
        self._untransformed = None
        if tx.untransformed is not tx:
            base = _find_session(ch, tx.untransformed, rx.untransformed, seed, sigma)
            self._untransformed, self.steering, self.noise = base, base.steering, base.noise
        else:
            tx_steering = _readonly(_steering_matrix(ch.aods_deg, tx.codebook.cfg))
            rx_steering = _readonly(_steering_matrix(ch.aoas_deg, rx.codebook.cfg))
            self.steering = (tx_steering, rx_steering)
            self.noise = NormalStream(derive_seed(seed, _NOISE_STREAM))

    @property
    def untransformed(self) -> _Session:
        """The session without transforms: this one when none is set."""
        return self._untransformed or self

    def table(self, tx_weights: np.ndarray, rx_weights: np.ndarray) -> np.ndarray:
        """The read-only cascade of two weight matrices through the rays,
        (num_taps, len(tx_weights), len(rx_weights)); not kept."""
        return _readonly(_cascade(tx_weights, rx_weights, self.steering, self._rays))

    @functools.cached_property
    def whole(self) -> np.ndarray:
        """The codebook's table: its columns, then the composite column."""
        return self.table(self.tx.weights, self.rx.stack)

    @functools.cached_property
    def coded(self) -> np.ndarray:
        """The coded fields' table, laid out as ``whole``."""
        return self.table(self.tx.coded[0], self.rx.stack)

    @functools.cached_property
    def sectors(self) -> np.ndarray:
        """The sector stage's table; sector beams take no transforms."""
        if self._untransformed is not None:
            return self._untransformed.sectors
        return self.table(self.tx.sectors[0], self.rx.sectors[0])

    @functools.cached_property
    def exhaustive(self) -> tuple[np.ndarray, tuple[int, int] | None]:
        """The codebook table's noisy power, read-only, and the pair it
        selects: packet-by-packet and in-packet search share them."""
        *_, power, detected = _stage(self, self.whole[:, :, :-1], _Noise(self.noise))
        return _readonly(power), _argmax_pair(power) if detected else None


def _session(cfg: ProtocolConfig, ch: ChannelRealization, seed: int) -> _Session:
    """The realization's session of ``cfg``'s plans, ``seed`` and noise level."""
    return _find_session(ch, cfg._tx_plan, cfg._rx_plan, seed, cfg._noise_std)


def _find_session(
    ch: ChannelRealization, tx: _TrainingPlan, rx: _TrainingPlan, seed: int, sigma: float
) -> _Session:
    """The one session of these plans' codebooks and settings at ``seed``
    and ``sigma`` on ``ch``, made with these plans on first use.  They hold
    the codebooks, so no id in its key can pass to another codebook while
    the session lasts."""
    key = (id(tx.codebook), id(rx.codebook), tx.settings, seed, sigma)
    return ch.memo(key, lambda: _Session(ch, tx, rx, seed, sigma))


class _Noise:
    """One run's reader of its session's noise stream: the run's stages
    read consecutive slices, from the start of the stream."""

    def __init__(self, stream: NormalStream) -> None:
        self._stream = stream
        self._offset = 0

    def next(self, shape: tuple[int, ...]) -> np.ndarray:
        count = math.prod(shape)
        normals = self._stream.read(self._offset, count)
        self._offset += count
        return normals.reshape(shape)


def _snr_db(cfg: ProtocolConfig, s: _Session, pair: tuple[int, int] | None) -> float:
    budget = cfg.snr_budget if cfg.snr_budget is not None else cfg.noise
    if budget is None or pair is None:
        return float("nan") if pair is not None else -math.inf
    table = s.untransformed.whole
    p_rel = float((np.abs(table[:, pair[0], pair[1]]) ** 2).sum())
    if p_rel <= 0.0:
        return -math.inf
    return 10.0 * math.log10(p_rel / budget.noise_to_signal)


def _argmax_pair(power: np.ndarray) -> tuple[int, int]:
    flat = int(power.argmax())
    p, q = np.unravel_index(flat, power.shape)
    return int(p), int(q)


def _stage(
    s: _Session,
    table: np.ndarray,
    noise: _Noise,
    chips: np.ndarray | None = None,
    axis: int = -2,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
    """One training stage over a raw gain table (num_taps, tx, rx).

    Returns the noisy per-tap field estimates (a new array), the per-beam
    table (the estimates Walsh-decoded along ``axis`` when ``chips`` is
    given, else the estimates themselves), its magnitudes, its power
    summed over taps, and whether its peak passes detection: it must clear
    5x the decoded noise standard deviation, which decoding T fields raises
    by sqrt(T), or be positive when noiseless, so that a dead channel fails.
    """
    # Times the reciprocal, which is how numpy divides a complex by a real;
    # the two differ only on -0.0, which no cascade table holds.
    est = table * s.scale
    sigma = s.sigma
    if sigma > 0.0:
        # One draw holds the real parts, then the imaginary parts.
        normals = noise.next((2, *est.shape)) * (sigma / math.sqrt(2.0))
        est.real += normals[0]
        est.imag += normals[1]
    r, gain = est, 1.0
    if chips is not None:
        r, gain = walsh_decode(chips, est, axis), math.sqrt(chips.shape[1])
    magnitude = np.abs(r)
    power = (magnitude**2).sum(axis=0)
    detected = float(magnitude.max()) > _DETECTION_SIGMA * sigma * gain
    return est, r, magnitude, power, detected


def _outcome(
    scheme: Scheme,
    cfg: ProtocolConfig,
    s: _Session,
    seed: int,
    pair: tuple[int, int] | None,
    traces: Sequence[np.ndarray],
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
        snr_db=_snr_db(cfg, s, pair),
        feedback_messages=int(feedback),
        feedback_bits=_FEEDBACK_BITS if feedback else 0,
    )


def run_exhaustive_pbp(
    cfg: ProtocolConfig, ch: ChannelRealization, seed: int
) -> TrainingOutcome:
    """One packet per beam pair, (p, q) ordered; the performance yardstick."""
    s = _session(cfg, ch, seed)
    power, pair = s.exhaustive
    p, q = power.shape
    # One single-field trace per packet: a read-only (p * q, 1) view.
    traces = power.reshape(p * q, 1)
    bits = p * q * _SWEPT_BEAM_BITS
    return _outcome(Scheme.EXHAUSTIVE_PBP, cfg, s, seed, pair, traces, p * q, bits, power)


def sector_beams(
    codebook: BeamCodebook, num_sectors: int
) -> tuple[np.ndarray, list[list[int]]]:
    """Lower-resolution sector beams, (S, N), plus the fine-beam indices
    they cover.

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
    return np.stack(beams), groups


def run_multilevel_pbp(
    cfg: ProtocolConfig, ch: ChannelRealization, seed: int
) -> TrainingOutcome:
    """Two-level search: wide sector beams first, fine beams inside the winner."""
    s = _session(cfg, ch, seed)
    noise = _Noise(s.noise)
    tx_wide, tx_groups = s.tx.sectors
    rx_wide, rx_groups = s.rx.sectors

    *_, power1, _ = _stage(s, s.sectors, noise)
    s_tx, s_rx = _argmax_pair(power1)

    fine_tx, fine_rx = tx_groups[s_tx], rx_groups[s_rx]
    # take keeps the slice C-ordered, so its tap sums add as a cascade of
    # the fine weights would; a fancy index lays it out F-ordered.
    fine = s.whole.take(fine_tx, axis=1).take(fine_rx, axis=2)
    *_, power2, detected = _stage(s, fine, noise)
    local = _argmax_pair(power2)
    pair = (int(fine_tx[local[0]]), int(fine_rx[local[1]])) if detected else None

    packets = len(tx_wide) * len(rx_wide) + len(fine_tx) * len(fine_rx)
    traces = (power1.ravel(), power2.ravel())
    bits = packets * _SWEPT_BEAM_BITS
    return _outcome(Scheme.MULTILEVEL_PBP, cfg, s, seed, pair, traces, packets, bits, power2)


def run_exhaustive_inpacket(
    cfg: ProtocolConfig, ch: ChannelRealization, seed: int
) -> TrainingOutcome:
    """One packet per receive beam; TRN fields sweep every transmit beam.

    Recovers the full beam-pair gain table, so noiselessly it agrees with
    packet-by-packet search entry for entry.
    """
    s = _session(cfg, ch, seed)
    power, pair = s.exhaustive
    p, q = power.shape
    bits = q * p * _SWEPT_BEAM_BITS
    # One trace per packet, i.e. per receive beam: the rows of one copy.
    traces = _readonly(power.T.copy())
    return _outcome(Scheme.EXHAUSTIVE_INPACKET, cfg, s, seed, pair, traces, q, bits, power)


def run_feedback_inpacket(
    cfg: ProtocolConfig, ch: ChannelRealization, seed: int
) -> TrainingOutcome:
    """Two-packet training: transmit sweep into a composite receiver, then a
    receive sweep at the fed-back transmit beam."""
    s = _session(cfg, ch, seed)
    noise = _Noise(s.noise)
    *_, power1, detected1 = _stage(s, s.whole[:, :, -1:], noise)
    best_tx = int(power1[:, 0].argmax())

    *_, power2, detected2 = _stage(s, s.whole[:, best_tx : best_tx + 1, :-1], noise)
    pair = (best_tx, int(power2[0, :].argmax())) if detected1 and detected2 else None

    traces = (power1[:, 0], power2[0, :])
    bits = (len(cfg.tx_codebook) + len(cfg.rx_codebook)) * _SWEPT_BEAM_BITS
    return _outcome(Scheme.FEEDBACK_INPACKET, cfg, s, seed, pair, traces, 2, bits)


def run_exhaustive_beamcoding(
    cfg: ProtocolConfig, ch: ChannelRealization, seed: int
) -> TrainingOutcome:
    """All transmit beams coded into every field; the receiver sweeps.

    The correlation r[p, q] carries the documented T/sqrt(K) scale on top
    of the beam-pair gain, so the two-path toy decodes to exactly 2 and 2a.
    """
    s = _session(cfg, ch, seed)
    tx_fields, chips = s.tx.coded
    # Coded feedback's first stage reads the last column of this table.
    est, r, magnitude, power, detected = _stage(s, s.coded[:, :, :-1], _Noise(s.noise), chips)
    pair = _argmax_pair(power) if detected else None

    dominant = r[(magnitude.argmax(axis=0), *np.indices(r.shape[1:], sparse=True))]
    q = est.shape[2]
    traces = _readonly((np.abs(est) ** 2).sum(axis=0).T.copy())
    bits = q * len(tx_fields) * _CODED_FIELD_BITS
    scheme = Scheme.EXHAUSTIVE_BEAMCODING
    return _outcome(scheme, cfg, s, seed, pair, traces, q, bits, power, _readonly(dominant))


def run_feedback_beamcoding(
    cfg: ProtocolConfig, ch: ChannelRealization, seed: int
) -> TrainingOutcome:
    """Two-packet coded training: coded transmit beams into a composite
    receiver, feedback, then coded receive beams at the chosen transmit beam."""
    s = _session(cfg, ch, seed)
    noise = _Noise(s.noise)
    tx_fields, tx_chips = s.tx.coded
    *_, power1, detected1 = _stage(s, s.coded[:, :, -1:], noise, tx_chips)
    best_tx = int(power1[:, 0].argmax())

    rx_fields, rx_chips = s.rx.coded
    # Receive-side coding: fields vary the receiver weights, so decode along
    # the receive axis.
    table2 = s.table(s.tx.weights[best_tx : best_tx + 1], rx_fields)
    *_, power2, detected2 = _stage(s, table2, noise, rx_chips, axis=2)
    pair = (best_tx, int(power2[0, :].argmax())) if detected1 and detected2 else None

    traces = (power1[:, 0], power2[0, :])
    bits = (len(tx_fields) + len(rx_fields)) * _CODED_FIELD_BITS
    return _outcome(Scheme.FEEDBACK_BEAMCODING, cfg, s, seed, pair, traces, 2, bits)


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
    sector and arrive on one fine beam, phased to cancel exactly under that
    sector's wide transmit beam, so every sector pair of the trap sector
    looks dead.  A weaker distractor ray in another sector wins the sector
    stage; fine-resolution search resolves the two strong departures and
    beats the two-level result by 1 / distractor_gain**2.
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
    return ChannelRealization(
        aods_deg=[aod1, aod2, tx_cb.angles_deg[d_tx]],
        aoas_deg=[aoa, aoa, rx_cb.angles_deg[d_rx]],
        gains=[1.0, gain2, distractor_gain],
        taps=[0, 0, 0],
    )
