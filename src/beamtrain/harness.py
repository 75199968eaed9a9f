"""Monte-Carlo campaign runners behind the CLI subcommands.

Campaigns are pure functions of an :class:`ExperimentConfig`; all
randomness flows from the master seed through the documented splitting
rule, cells are evaluated in a fixed order, and rows come out in a fixed
order, so re-running a config yields byte-identical CSV files.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass, replace
from itertools import accumulate, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .array_model import (
    ArrayConfig,
    BeamCodebook,
    _readonly,
    array_factor_many,
    dft_codebook,
    project_uniform,
    quantize_phases,
    steering_vector,
    superpose_beams,
)
from .beam_coding import GolayPair, ce_field_powers, golay_pair
from .channel import (
    ChannelRealization,
    derive_seed,
    sample_channel,
    toy_channel,
    toy_codebooks,
)
from .experiment import ConfigError, ExperimentConfig
from .metrics import aggregate_snr, empirical_cdf
from .packets import (
    LAYOUTS,
    PER_BEAM_BITS_80211AD,
    PER_BEAM_BITS_BEAM_CODING,
    _tap_rows,
    training_bits,
)
from .protocols import ProtocolConfig, Scheme, run

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

log = logging.getLogger(__name__)


def _fmt_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


# The printf spec of a column whose cells all have one of these exact types;
# each formats a cell as _fmt_cell does ("%.12g" % v == f"{v:.12g}" for every
# float, inf, nan and -0.0 included).
_SPECS = {str: "%s", int: "%d", float: "%.12g"}


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write rows with a header, formatting floats to 12 significant digits.

    Every row must have one cell per header column; a row of any other
    width raises ValueError before anything is written.  Each column gets
    one printf spec, found once from its set of cell types.  A column of
    any other type, or of mixed types (bool and numpy scalars included),
    is turned into text cell by cell with _fmt_cell first.  Each row is
    then one ``template % row``.
    """
    path = Path(path)
    rows = list(map(tuple, rows))
    widths = set(map(len, rows)) - {len(header)}
    if widths:
        raise ValueError(f"row width {min(widths)} does not match the header's {len(header)}")
    specs = []
    text_columns = set()
    for i, column in enumerate(zip(*rows)):
        types = set(map(type, column))
        spec = _SPECS.get(types.pop()) if len(types) == 1 else None
        if spec is None:
            spec = "%s"
            text_columns.add(i)
        specs.append(spec)
    if text_columns:
        rows = [
            tuple(_fmt_cell(v) if i in text_columns else v for i, v in enumerate(row))
            for row in rows
        ]
    body = "".join(map((",".join(specs) + "\n").__mod__, rows))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n" + body)
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
        ad, coded = training_bits("80211ad", k), training_bits("beamcoding", k)
        rows.append((k, "80211ad", PER_BEAM_BITS_80211AD, ad, 0, 0))
        rows.append((k, "beamcoding", PER_BEAM_BITS_BEAM_CODING, coded, saving, ad - coded))
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
    beams = np.stack([steering_vector(cfg, a) for a in angles_deg])
    if signs is None:
        signs = [1] * len(beams)
    weights = superpose_beams(beams, list(signs))
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


_POWER_VAR_SCHEMES = tuple(LAYOUTS)
_ENVIRONMENTS = ("los", "nlos")


@dataclass(frozen=True)
class _PowerVarPlan:
    """Everything in a power-var campaign that does not depend on the channel.

    The gammas of one channel form a vector laid out cell by cell, with the
    (scheme, beams per packet) cells in config order, then packet by packet
    and field by field.  ``fields`` and ``packet_of`` give each entry's
    weight row and packet.  Packets are numbered through ``preambles``,
    which holds one (packets, P) matrix of preamble weight rows per
    preamble length P.  ``cells`` gives each cell's (scheme, K, slice of
    the vector, packet labels, field labels).
    """

    weights: np.ndarray  # distinct field and preamble weights, (W, tx antennas)
    preamble_rows: np.ndarray  # rows of ``weights`` that some preamble rides
    fields: np.ndarray
    packet_of: np.ndarray
    preambles: tuple[np.ndarray, ...]
    cells: tuple[tuple[str, int, slice, tuple[int, ...], tuple[int, ...]], ...]
    golay: GolayPair


@functools.lru_cache(maxsize=8)
def _power_var_plan(
    tx_antennas: int, spacing: float, beams_per_packet: tuple[int, ...], schemes: tuple[str, ...]
) -> _PowerVarPlan:
    """The plan of a power-var config; raises ConfigError for a bad
    beams-per-packet value.  Schemes are checked by _validate_campaign."""
    if not beams_per_packet:
        raise ConfigError("packet.beams_per_packet: the list is empty")
    out_of_range = [k for k in beams_per_packet if not 1 <= k <= tx_antennas]
    if out_of_range:
        raise ConfigError(
            f"packet.beams_per_packet: {', '.join(map(str, out_of_range))} outside "
            f"[1, {tx_antennas}] (array.tx_antennas)"
        )
    tx_cb = _dft_codebook("array.tx_antennas", tx_antennas, spacing)
    row_of: dict[bytes, int] = {}

    def rows(weights: np.ndarray) -> list[int]:
        return [row_of.setdefault(w.tobytes(), len(row_of)) for w in weights]

    fields: list[int] = []
    # Each entry's packet as (preamble length, packet among those of that
    # length), and each length's packets' preamble rows.
    packets: list[tuple[int, int]] = []
    preambles: dict[int, list[list[int]]] = {}
    cells = []
    for scheme in schemes:
        for k in beams_per_packet:
            start, packet_labels, field_labels = len(fields), [], []
            for packet_idx, group in enumerate(_beam_groups(len(tx_cb), k)):
                preamble, packet_fields = LAYOUTS[scheme](tx_cb.matrix[group])
                fields += rows(packet_fields)
                same_length = preambles.setdefault(len(preamble), [])
                packets += [(len(preamble), len(same_length))] * len(packet_fields)
                same_length.append(rows(preamble))
                packet_labels += [packet_idx] * len(packet_fields)
                field_labels += range(len(packet_fields))
            cells.append(
                (scheme, k, slice(start, len(fields)), tuple(packet_labels), tuple(field_labels))
            )
    first_packet = dict(zip(preambles, accumulate(map(len, preambles.values()), initial=0)))
    # The keys are the weights' bytes in row order; the cached plan is
    # shared by every later call, so its arrays are read-only.
    weights = np.frombuffer(b"".join(row_of), dtype=np.complex128)
    preamble_rows = sorted({r for matrix in preambles.values() for p in matrix for r in p})
    return _PowerVarPlan(
        weights=weights.reshape(len(row_of), tx_antennas),
        preamble_rows=_readonly(np.array(preamble_rows, np.intp)),
        fields=_readonly(np.array(fields, np.intp)),
        packet_of=_readonly(np.array([first_packet[p] + i for p, i in packets], np.intp)),
        preambles=tuple(_readonly(np.array(m, np.intp)) for m in preambles.values()),
        cells=tuple(cells),
        golay=golay_pair(9),
    )


def _channel_gammas(plan: _PowerVarPlan, taps: np.ndarray) -> np.ndarray:
    """The gammas of one channel in the plan's layout, given the taps of
    every plan weight (one contiguous row each)."""
    powers = np.sum(np.abs(taps) ** 2, axis=1)
    sigmas = np.zeros(len(taps))
    sigmas[plan.preamble_rows] = ce_field_powers(taps[plan.preamble_rows], plan.golay)
    if np.any(sigmas[plan.preamble_rows] <= 0.0):
        raise ValueError("undefined ratio: preamble has zero variance")
    packet_sigmas = np.concatenate([np.mean(sigmas[p], axis=1) for p in plan.preambles])
    return powers[plan.fields] / (3.0 * packet_sigmas[plan.packet_of])


def _validate_campaign(exp: ExperimentConfig) -> None:
    """Checks shared by the campaigns, made before any channel is drawn."""
    lists = (("experiment.environments", exp.environments), ("experiment.schemes", exp.schemes))
    for key, values in lists:
        if not values:
            raise ConfigError(f"{key}: the list is empty")
    unknown = [e for e in exp.environments if e not in _ENVIRONMENTS]
    if unknown:
        raise ConfigError(
            f"experiment.environments: unknown environment(s) {', '.join(unknown)}; "
            f"pick from {', '.join(_ENVIRONMENTS)}"
        )
    repeated = sorted({e for e in exp.environments if exp.environments.count(e) > 1})
    if repeated:
        raise ConfigError(
            f"experiment.environments: {', '.join(repeated)} listed more than once; "
            "their rows would share one label"
        )
    unknown = [s for s in exp.schemes if s not in _POWER_VAR_SCHEMES]
    if unknown:
        raise ConfigError(
            f"experiment.schemes: unknown scheme(s) {', '.join(unknown)}; "
            f"pick from {', '.join(_POWER_VAR_SCHEMES)}"
        )
    if exp.runs < 1:
        raise ConfigError(f"experiment.runs must be at least 1, got {exp.runs}")
    _validate_channel_and_link(exp)


def _validate_channel_and_link(exp: ExperimentConfig) -> None:
    """Checks of the channel and link settings, made before any channel is
    drawn or any run is trained."""
    ch = exp.channel
    spread, rms, carrier = ch.intra_cluster_tap_spread, ch.cluster_loss_rms_db, ch.carrier_hz
    bandwidth = exp.budget.bandwidth_hz
    # Values the channel sampler or the link budget cannot work with.
    for key, value, valid, rule in (
        ("channel.intra_cluster_tap_spread", spread, spread >= 0, "nonnegative"),
        ("channel.cluster_loss_rms_db", rms, rms >= 0, "nonnegative"),
        ("channel.carrier_hz", carrier, 0 < carrier < math.inf, "positive and finite"),
        ("channel.distance_m", ch.distance_m, math.isfinite(ch.distance_m), "finite"),
        ("link.bandwidth_hz", bandwidth, bandwidth > 0, "positive"),
    ):
        if not valid:
            raise ConfigError(f"{key} must be {rule}, got {value!r}")
    # The sampler redraws each cluster loss until one passes the cap; when
    # almost none do (here, under 1 in 10^4), it never returns in practice.
    excess = ch.cluster_loss_mean_db - ch.cluster_loss_truncation_db
    passing = 0.5 * math.erfc(excess / (rms * math.sqrt(2.0))) if rms > 0 else float(excess <= 0)
    if passing < 1e-4:
        raise ConfigError(
            f"channel.cluster_loss_mean_db: with channel.cluster_loss_rms_db = {rms!r}, only "
            f"{passing:.3g} of the draws pass channel.cluster_loss_truncation_db (need 1e-4)"
        )


def power_var_campaign(
    exp: ExperimentConfig,
) -> tuple[list[str], list[tuple], list[str], list[tuple]]:
    """Power-ratio samples and their CDFs per (scheme, beams-per-packet, env).

    The receiver is a single antenna, the worst case for coded training
    since it hears every path; the transmitter trains all its beams in
    groups of ``beams_per_packet`` per packet.  The config is checked
    before any channel is drawn; a bad value raises :class:`ConfigError`.

    The layouts depend only on the config, so once per config their
    distinct field and preamble weights are stacked into one matrix and
    their packets' preambles are grouped by preamble length.  Per
    channel, one :func:`~beamtrain.channel.cascade_gains` call gives every
    weight's taps; a field's gamma is its power over three times its
    preamble's sigma.  Sigma, the mean sample power of the Golay CE field
    heard through a preamble weight's taps, comes from
    :func:`~beamtrain.beam_coding.ce_field_powers` once per distinct
    preamble weight.  It convolves only the chip windows that differ, up
    to sign, at the channel's nonzero taps, and gives bit for bit what
    :func:`~beamtrain.beam_coding.encode_ce_field` synthesis of the whole
    field gives.  Sigma is averaged over the weights of a multi-weight
    preamble, one array operation per preamble length.  Golay
    complementarity gives sigma in closed form, but not bit for bit, and
    the K=1 CDFs count distinct doubles, so the synthesis stays until the
    reference outputs are re-recorded.  The per-layout path
    :func:`~beamtrain.packets.power_trace`,
    :func:`~beamtrain.packets.preamble_samples` and
    :func:`~beamtrain.metrics.power_ratio` gives the same gammas.

    Rows are emitted in their final order and nothing is sorted.  The plan
    lays each cell's entries out in (packet, field) order; the blocks of one
    (environment, cell) come in the order of their label strings, each
    with its runs in index order, and each block's CDF points come out of
    :meth:`~beamtrain.metrics.EmpiricalCdf.points` in value order.
    """
    started = time.perf_counter()
    _validate_campaign(exp)
    if "nlos" in exp.environments and exp.channel.num_clusters == 0:
        raise ConfigError(
            "channel.num_clusters: an NLOS channel without clusters has no rays to train on"
        )
    plan = _power_var_plan(
        exp.tx_antennas, exp.spacing, tuple(exp.beams_per_packet), tuple(exp.schemes)
    )
    log.info("power-var: %d runs in %s", exp.runs, ", ".join(exp.environments))
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

    gammas_of: dict[str, np.ndarray] = {}
    for env_idx, env in enumerate(exp.environments):
        env_started = time.perf_counter()
        ch_cfg = replace(exp.channel, los=(env == "los"))
        env_master = derive_seed(derive_seed(exp.master_seed, _POWER_VAR_STREAM), env_idx)
        gammas = gammas_of[env] = np.empty((exp.runs, len(plan.fields)))
        for i in range(exp.runs):
            ch = sample_channel(ch_cfg, derive_seed(env_master, i))
            gammas[i] = _channel_gammas(plan, _tap_rows(plan.weights, rx_w, ch, tx_cfg, rx_cfg))
        log.debug("power-var: %s done in %.3f s", env, time.perf_counter() - env_started)

    # Blocks in label order, runs in index order, entries in (packet, field)
    # order: the order a sort by (label, run, packet, field) would give.
    blocks = sorted(
        (
            (f"power_var/{scheme}/{env}/K{k}", env, scheme, k, entries, packets, fields)
            for scheme, k, entries, packets, fields in plan.cells
            for env in exp.environments
        ),
        key=itemgetter(0),
    )
    for label, env, scheme, k, entries, packets, fields in blocks:
        cell_gammas = gammas_of[env][:, entries]
        for i, run_gammas in enumerate(cell_gammas.tolist()):
            gamma_rows.extend(
                zip(
                    repeat(label),
                    repeat(scheme),
                    repeat(env),
                    repeat(k),
                    repeat(i),
                    packets,
                    fields,
                    run_gammas,
                )
            )
        points = empirical_cdf(cell_gammas.ravel()).points()
        cdf_rows.extend((label, scheme, env, k, value, frac) for value, frac in points)

    log.info(
        "power-var: %d runs, %d environments, %d gamma and %d CDF rows in %.3f s",
        exp.runs,
        len(exp.environments),
        len(gamma_rows),
        len(cdf_rows),
        time.perf_counter() - started,
    )
    return gamma_header, gamma_rows, cdf_header, cdf_rows


def _linear_snrs(
    cfgs: Sequence[ProtocolConfig], ch: ChannelRealization, seed: int
) -> list[float]:
    """The linear SNR of each config's run on one channel."""
    return [10.0 ** (run(cfg, ch, seed).snr_db / 10.0) for cfg in cfgs]


def quant_sweep_campaign(exp: ExperimentConfig) -> tuple[list[str], list[tuple]]:
    """Aggregate SNR versus phase-quantization bits, coded training against
    the exhaustive packet-by-packet upper bound.

    Training runs noiselessly (the comparison isolates quantization);
    the link budget only scales the reported SNR at the selected pair,
    which always uses clean steering.  The baseline is unquantized, so its
    row repeats across the bits axis.  The config is checked before any
    channel is drawn; a bad value raises :class:`ConfigError`.  The
    protocol configs, and with them their training weights, are shared by
    both environments.  Every training run, the baseline's included, goes
    through :func:`~beamtrain.protocols.run`.

    The loop is channel-major: each channel is drawn, trained by the
    baseline and then at every bit width, and dropped before the next is
    drawn, so only one realization and its cached gain tables is alive at
    a time.  The coded runs report their SNR from the baseline's table of
    the clean codebooks.  Each config's SNRs are aggregated in channel
    order, as a config-major loop would.
    """
    started = time.perf_counter()
    _validate_campaign(exp)
    if tuple(exp.schemes) != _POWER_VAR_SCHEMES:
        raise ConfigError(
            f"experiment.schemes: quant-sweep always compares {', '.join(_POWER_VAR_SCHEMES)}; "
            f"got {', '.join(exp.schemes)}"
        )
    if not exp.quant_bits:
        raise ConfigError("quant.bits: the list is empty")
    bad_bits = [b for b in exp.quant_bits if b is not None and b < 1]
    if bad_bits:
        raise ConfigError(f"quant.bits: a phase shifter needs at least 1 bit, got {bad_bits}")
    tx_cb = _dft_codebook("array.tx_antennas", exp.tx_antennas, exp.spacing)
    rx_cb = _dft_codebook("array.rx_antennas", exp.rx_antennas, exp.spacing)
    log.info("quant-sweep: %d runs in %s", exp.runs, ", ".join(exp.environments))
    base_cfg = ProtocolConfig(
        tx_codebook=tx_cb,
        rx_codebook=rx_cb,
        scheme=Scheme.EXHAUSTIVE_PBP,
        snr_budget=exp.budget,
    )
    configs = [base_cfg] + [
        replace(base_cfg, scheme=Scheme.EXHAUSTIVE_BEAMCODING, quantize_bits=bits)
        for bits in exp.quant_bits
    ]
    header = ["experiment", "environment", "bits", "scheme", "runs", "snr_db"]
    rows: list[tuple] = []

    for env_idx, env in enumerate(exp.environments):
        env_started = time.perf_counter()
        ch_cfg = replace(exp.channel, los=(env == "los"))
        env_master = derive_seed(derive_seed(exp.master_seed, _QUANT_SWEEP_STREAM), env_idx)
        per_channel = [
            _linear_snrs(configs, sample_channel(ch_cfg, derive_seed(env_master, i)), i)
            for i in range(exp.runs)
        ]
        # A cell whose every run failed detection aggregates to 0: -inf dB.
        nbf_db, *coded_dbs = (
            10.0 * math.log10(a) if a > 0.0 else -math.inf
            for a in map(aggregate_snr, zip(*per_channel))
        )
        for bits, coded_db in zip(exp.quant_bits, coded_dbs):
            bits_label = "inf" if bits is None else str(bits)
            cell = f"quant_sweep/{env}"
            rows.append((cell, env, bits_label, "beamcoding", exp.runs, coded_db))
            rows.append((cell, env, bits_label, "nbf", exp.runs, nbf_db))
        log.debug("quant-sweep: %s done in %.3f s", env, time.perf_counter() - env_started)

    rows.sort(key=itemgetter(0, 2, 3))
    log.info(
        "quant-sweep: %d runs, %d environments, %d rows in %.3f s",
        exp.runs,
        len(exp.environments),
        len(rows),
        time.perf_counter() - started,
    )
    return header, rows


def train_once(
    exp: ExperimentConfig,
    scheme: Scheme,
    seed: int,
    toy: bool = False,
) -> tuple[dict, tuple[list[str], list[tuple]]]:
    """Single training run with a full trace dump, for debugging.

    With ``toy=True`` the run uses the classic 4-beam two-path scene
    (attenuation 0.5) instead of a sampled cluster channel.  The channel
    and link settings are checked first, as the campaigns check them; a
    bad value raises :class:`ConfigError`.
    """
    _validate_channel_and_link(exp)
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
