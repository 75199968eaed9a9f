"""Monte-Carlo campaign runners behind the CLI subcommands.

Campaigns are pure functions of an :class:`ExperimentConfig`; all
randomness flows from the master seed through the documented splitting
rule, cells are evaluated in a fixed order, and rows are sorted before
writing, so re-running a config yields byte-identical CSV files.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .array_model import (
    ArrayConfig,
    BeamCodebook,
    SteeringVector,
    WeightVector,
    array_factor_many,
    dft_codebook,
    project_uniform,
    quantize_phases,
    steering_vector,
    superpose_beams,
)
from .beam_coding import GolayPair, build_schedule, encode_ce_field, golay_pair, walsh_codes
from .channel import derive_seed, sample_channel, toy_channel, toy_codebooks
from .experiment import ConfigError, ExperimentConfig
from .metrics import aggregate_snr, empirical_cdf
from .packets import (
    PER_BEAM_BITS_80211AD,
    PER_BEAM_BITS_BEAM_CODING,
    PacketLayout,
    _tap_rows,
    layout_80211ad,
    layout_beam_coding,
)
from .protocols import ProtocolConfig, Scheme, run, run_exhaustive_pbp

__all__ = [
    "write_csv",
    "overhead_rows",
    "pattern_rows",
    "power_var_campaign",
    "quant_sweep_campaign",
    "train_once",
]

# Campaign salts keep RNG streams of different experiments disjoint even
# when they share a master seed.
_POWER_VAR_STREAM = 1
_QUANT_SWEEP_STREAM = 2
_TRAIN_STREAM = 3


def _fmt_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write rows with a header, formatting floats to 12 significant digits."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(v) for v in row) + "\n")
    return path


def overhead_rows(beam_counts: Sequence[int] = (1, 16)) -> tuple[list[str], list[tuple]]:
    """Per-beam and total training bits for both layouts, exact integers.

    The per-beam delta is 3840 bits; narrative summaries sometimes round
    that to "about 4000", the table keeps the exact figure.
    """
    header = [
        "num_beams",
        "scheme",
        "per_beam_bits",
        "total_training_bits",
        "saving_per_beam_vs_80211ad",
        "total_saving_vs_80211ad",
    ]
    rows = []
    saving = PER_BEAM_BITS_80211AD - PER_BEAM_BITS_BEAM_CODING
    for k in sorted(beam_counts):
        ad = layout_80211ad(k)
        coded = layout_beam_coding(k)
        rows.append((k, "80211ad", PER_BEAM_BITS_80211AD, ad.training_bits, 0, 0))
        rows.append(
            (
                k,
                "beamcoding",
                PER_BEAM_BITS_BEAM_CODING,
                coded.training_bits,
                saving,
                ad.training_bits - coded.training_bits,
            )
        )
    return header, rows


def pattern_rows(
    num_antennas: int,
    spacing: float = 0.5,
    angles_deg: Sequence[float] = (90.0,),
    signs: Sequence[int] | None = None,
    quant_bits: int | None = None,
    uniform: bool = False,
    step_deg: float = 0.1,
    floor_db: float = -200.0,
) -> tuple[list[str], list[tuple]]:
    """Beam pattern of a (possibly coded, projected, quantized) weight vector.

    Gains are normalized to the pattern peak; zeros clip at ``floor_db``.
    """
    if num_antennas < 1:
        raise ValueError("need at least one antenna")
    cfg = ArrayConfig(num_antennas, spacing)
    vectors = [steering_vector(cfg, a) for a in angles_deg]
    if signs is None:
        signs = [1] * len(vectors)
    weights = superpose_beams(vectors, list(signs))
    if uniform:
        weights = project_uniform(weights)
    if quant_bits is not None:
        weights = quantize_phases(weights, quant_bits)
    grid = np.arange(step_deg, 180.0, step_deg)
    power = np.abs(array_factor_many(weights, grid, cfg)) ** 2
    peak = float(power.max())
    if peak <= 0.0:
        raise ConfigError("all-zero pattern: the beams cancel under these signs")
    with np.errstate(divide="ignore"):
        gain_db = np.maximum(10.0 * np.log10(power / peak), floor_db)
    rows = [(float(a), float(g)) for a, g in zip(grid, gain_db)]
    return ["angle_deg", "gain_db"], rows


def _beam_groups(num_beams: int, per_packet: int) -> list[list[int]]:
    """Strided beam groups: each packet's beams are maximally spread in angle.

    Interleaving keeps any single scattering cluster (a few degrees wide)
    inside at most one beam of a packet, which is what keeps coded
    per-field powers flat; contiguous grouping would hand one cluster to
    several beams of the same packet.
    """
    num_groups = max(1, math.ceil(num_beams / per_packet))
    return [list(range(g, num_beams, num_groups)) for g in range(num_groups)]


def _dft_codebook(key: str, num_antennas: int, spacing: float) -> BeamCodebook:
    """The DFT codebook of a configured array; a size or spacing that has
    none raises ConfigError naming ``key`` and ``array.spacing``."""
    try:
        return dft_codebook(ArrayConfig(num_antennas, spacing))
    except ValueError as exc:
        raise ConfigError(f"{key}, array.spacing: {exc}") from exc


_POWER_VAR_SCHEMES = ("80211ad", "beamcoding")
_ENVIRONMENTS = ("los", "nlos")


def _power_var_layout(scheme: str, beams: list[SteeringVector]) -> PacketLayout:
    if scheme == "80211ad":
        return layout_80211ad(beams)
    order = max(0, (len(beams) - 1).bit_length())
    codes = walsh_codes(order)[: len(beams)]
    return layout_beam_coding(build_schedule(beams, codes))


@dataclass(frozen=True)
class _PacketPlan:
    """One (K, packet, scheme) layout as indices into its plan's arrays."""

    beams_per_packet: int
    packet: int
    scheme: str
    fields: np.ndarray  # rows of _PowerVarPlan.weights, one per TRN field
    preamble: np.ndarray  # rows of _PowerVarPlan.weights, one per preamble weight


@dataclass(frozen=True)
class _PowerVarPlan:
    """Everything in a power-var campaign that does not depend on the channel."""

    weights: np.ndarray  # distinct field and preamble weights, (F, tx antennas)
    preamble_rows: np.ndarray  # rows of ``weights`` that some preamble rides
    packets: tuple[_PacketPlan, ...]
    golay: GolayPair


def _readonly(indices: list[int]) -> np.ndarray:
    arr = np.array(indices, dtype=np.intp)
    arr.setflags(write=False)
    return arr


@functools.lru_cache(maxsize=8)
def _power_var_plan(
    tx_antennas: int, spacing: float, beams_per_packet: tuple[int, ...], schemes: tuple[str, ...]
) -> _PowerVarPlan:
    """The plan of a power-var config; raises ConfigError for a bad scheme
    or beams-per-packet value."""
    unknown = [s for s in schemes if s not in _POWER_VAR_SCHEMES]
    if unknown:
        raise ConfigError(
            f"experiment.schemes: unknown power-var scheme(s) {', '.join(unknown)}; "
            f"pick from {', '.join(_POWER_VAR_SCHEMES)}"
        )
    out_of_range = [k for k in beams_per_packet if not 1 <= k <= tx_antennas]
    if out_of_range:
        raise ConfigError(
            f"packet.beams_per_packet: {', '.join(map(str, out_of_range))} outside "
            f"[1, {tx_antennas}] (array.tx_antennas)"
        )
    tx_cb = _dft_codebook("array.tx_antennas", tx_antennas, spacing)
    row_of: dict[bytes, int] = {}

    def row(w: WeightVector) -> int:
        return row_of.setdefault(w.weights.tobytes(), len(row_of))

    drafts = []
    for k in beams_per_packet:
        for packet_idx, group in enumerate(_beam_groups(len(tx_cb), k)):
            beams = [tx_cb.vectors[b] for b in group]
            for scheme in schemes:
                layout = _power_var_layout(scheme, beams)
                fields = [row(f.weight) for f in layout.trn_fields]
                preamble = [row(w) for w in layout.preamble_weights]
                drafts.append((k, packet_idx, scheme, fields, preamble))
    # The keys are the weights' bytes in row order; the cached plan is
    # shared by every later call, so its arrays are read-only.
    weights = np.frombuffer(b"".join(row_of), dtype=np.complex128)
    return _PowerVarPlan(
        weights=weights.reshape(len(row_of), tx_antennas),
        preamble_rows=_readonly(sorted({r for *_, preamble in drafts for r in preamble})),
        packets=tuple(
            _PacketPlan(k, packet, scheme, _readonly(fields), _readonly(preamble))
            for k, packet, scheme, fields, preamble in drafts
        ),
        golay=golay_pair(9),
    )


def _validate_campaign(exp: ExperimentConfig) -> None:
    """Checks shared by the campaigns, made before any channel is drawn."""
    unknown = [e for e in exp.environments if e not in _ENVIRONMENTS]
    if unknown:
        raise ConfigError(
            f"experiment.environments: unknown environment(s) {', '.join(unknown)}; "
            f"pick from {', '.join(_ENVIRONMENTS)}"
        )
    if exp.runs < 1:
        raise ConfigError(f"experiment.runs must be at least 1, got {exp.runs}")


def power_var_campaign(
    exp: ExperimentConfig,
) -> tuple[list[str], list[tuple], list[str], list[tuple]]:
    """Power-ratio samples and their CDFs per (scheme, beams-per-packet, env).

    The receiver is a single antenna, the worst case for coded training
    since it hears every path; the transmitter trains all its beams in
    groups of ``beams_per_packet`` per packet.  The config is checked
    before any channel is drawn; a bad value raises :class:`ConfigError`.

    The layouts depend only on the config, so their distinct field and
    preamble weights are stacked once per config, and each channel costs
    one :func:`~beamtrain.channel.cascade_gains` call.  A field's gamma is
    its power over three times the preamble's sigma, which is synthesized
    from Golay samples (:func:`~beamtrain.beam_coding.encode_ce_field`)
    once per distinct preamble weight, the mean over the weights of a
    multi-weight preamble.  Golay complementarity gives sigma in closed
    form, but not bit for bit, and the K=1 CDFs count distinct doubles, so
    the synthesis stays until the reference outputs are re-recorded.  The
    per-layout path :func:`~beamtrain.packets.power_trace`,
    :func:`~beamtrain.packets.preamble_samples` and
    :func:`~beamtrain.metrics.power_ratio` gives the same gammas.
    """
    _validate_campaign(exp)
    plan = _power_var_plan(
        exp.tx_antennas, exp.spacing, tuple(exp.beams_per_packet), tuple(exp.schemes)
    )
    tx_cfg = ArrayConfig(exp.tx_antennas, exp.spacing)
    rx_w = np.ones(1, dtype=np.complex128)
    rx_cfg = ArrayConfig(1, exp.spacing)

    gamma_header = [
        "experiment",
        "scheme",
        "environment",
        "beams_per_packet",
        "seed_index",
        "packet",
        "field",
        "gamma",
    ]
    cdf_header = ["experiment", "scheme", "environment", "beams_per_packet", "value", "cum_fraction"]
    gamma_rows: list[tuple] = []
    cdf_rows: list[tuple] = []

    for env_idx, env in enumerate(exp.environments):
        ch_cfg = replace(exp.channel, los=(env == "los"))
        env_master = derive_seed(derive_seed(exp.master_seed, _POWER_VAR_STREAM), env_idx)
        pooled: dict[tuple[str, int], list[np.ndarray]] = {
            (scheme, k): [] for scheme in exp.schemes for k in exp.beams_per_packet
        }
        for i in range(exp.runs):
            ch = sample_channel(ch_cfg, derive_seed(env_master, i))
            taps = _tap_rows(plan.weights, rx_w, ch, tx_cfg, rx_cfg)
            powers = np.sum(np.abs(taps) ** 2, axis=1)
            guard = taps.shape[1] - 1
            sigmas = np.zeros(len(taps))
            for r in plan.preamble_rows:
                sigmas[r] = np.mean(np.abs(encode_ce_field(taps[r], plan.golay, guard)) ** 2)
            if np.any(sigmas[plan.preamble_rows] <= 0.0):
                raise ValueError("undefined ratio: preamble has zero variance")
            for packet in plan.packets:
                sigma = np.mean(sigmas[packet.preamble])
                gammas = powers[packet.fields] / (3.0 * sigma)
                scheme, k = packet.scheme, packet.beams_per_packet
                cell = f"power_var/{scheme}/{env}/K{k}"
                gamma_rows.extend(
                    (cell, scheme, env, k, i, packet.packet, field, gamma)
                    for field, gamma in enumerate(gammas.tolist())
                )
                pooled[(scheme, k)].append(gammas)
        for (scheme, k), values in pooled.items():
            cell = f"power_var/{scheme}/{env}/K{k}"
            for value, frac in empirical_cdf(np.concatenate(values)).points():
                cdf_rows.append((cell, scheme, env, k, value, frac))

    gamma_rows.sort(key=lambda r: (r[0], r[4], r[5], r[6]))
    cdf_rows.sort(key=lambda r: (r[0], r[4]))
    return gamma_header, gamma_rows, cdf_header, cdf_rows


def quant_sweep_campaign(exp: ExperimentConfig) -> tuple[list[str], list[tuple]]:
    """Aggregate SNR versus phase-quantization bits, coded training against
    the exhaustive packet-by-packet upper bound.

    Training runs noiselessly (the comparison isolates quantization);
    the link budget only scales the reported SNR at the selected pair,
    which always uses clean steering.  The baseline is unquantized, so its
    row repeats across the bits axis.  The config is checked before any
    channel is drawn; a bad value raises :class:`ConfigError`.  The
    protocol configs, and with them their training weights, are shared by
    both environments.
    """
    _validate_campaign(exp)
    tx_cb = _dft_codebook("array.tx_antennas", exp.tx_antennas, exp.spacing)
    rx_cb = _dft_codebook("array.rx_antennas", exp.rx_antennas, exp.spacing)
    base_cfg = ProtocolConfig(
        tx_codebook=tx_cb,
        rx_codebook=rx_cb,
        scheme=Scheme.EXHAUSTIVE_PBP,
        snr_budget=exp.budget,
    )
    coded_cfgs = [
        (bits, replace(base_cfg, scheme=Scheme.EXHAUSTIVE_BEAMCODING, quantize_bits=bits))
        for bits in exp.quant_bits
    ]
    header = ["experiment", "environment", "bits", "scheme", "runs", "snr_db"]
    rows: list[tuple] = []

    for env_idx, env in enumerate(exp.environments):
        ch_cfg = replace(exp.channel, los=(env == "los"))
        env_master = derive_seed(derive_seed(exp.master_seed, _QUANT_SWEEP_STREAM), env_idx)
        channels = [
            sample_channel(ch_cfg, derive_seed(env_master, i)) for i in range(exp.runs)
        ]

        nbf_snrs = [
            10.0 ** (run_exhaustive_pbp(base_cfg, ch, i).snr_db / 10.0)
            for i, ch in enumerate(channels)
        ]
        nbf_db = 10.0 * math.log10(aggregate_snr(nbf_snrs))

        for bits, coded_cfg in coded_cfgs:
            snrs = [
                10.0 ** (run(coded_cfg, ch, i).snr_db / 10.0)
                for i, ch in enumerate(channels)
            ]
            coded_db = 10.0 * math.log10(aggregate_snr(snrs))
            bits_label = "inf" if bits is None else str(bits)
            cell = f"quant_sweep/{env}"
            rows.append((cell, env, bits_label, "beamcoding", exp.runs, coded_db))
            rows.append((cell, env, bits_label, "nbf", exp.runs, nbf_db))

    rows.sort(key=lambda r: (r[0], r[2], r[3]))
    return header, rows


def train_once(
    exp: ExperimentConfig,
    scheme: Scheme,
    seed: int,
    toy: bool = False,
) -> tuple[dict, tuple[list[str], list[tuple]]]:
    """Single training run with a full trace dump, for debugging.

    With ``toy=True`` the run uses the classic 4-beam two-path scene
    (attenuation 0.5) instead of a sampled cluster channel.
    """
    if toy:
        tx_cb, rx_cb = toy_codebooks()
        ch = toy_channel(0.5)
    else:
        tx_cb = _dft_codebook("array.tx_antennas", exp.tx_antennas, exp.spacing)
        rx_cb = _dft_codebook("array.rx_antennas", exp.rx_antennas, exp.spacing)
        ch = sample_channel(
            exp.channel, derive_seed(derive_seed(exp.master_seed, _TRAIN_STREAM), seed)
        )
    cfg = ProtocolConfig(
        tx_codebook=tx_cb, rx_codebook=rx_cb, scheme=scheme, snr_budget=exp.budget
    )
    outcome = run(cfg, ch, seed)
    summary = {
        "scheme": outcome.scheme.value,
        "seed": outcome.seed,
        "success": outcome.success,
        "best_pair": outcome.best_pair,
        "packets_sent": outcome.packets_sent,
        "training_bits": outcome.training_bits,
        "feedback_bits": outcome.feedback_bits,
        "snr_db": outcome.snr_db,
    }
    header = ["scheme", "seed", "packet", "field", "measured_power"]
    rows: list[tuple] = []
    for packet_idx, trace in enumerate(outcome.power_traces):
        for field_idx, value in enumerate(np.asarray(trace).ravel()):
            rows.append((outcome.scheme.value, seed, packet_idx, field_idx, float(value)))
    return summary, (header, rows)
