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
import sys
import time
from dataclasses import dataclass, replace
from itertools import accumulate
from operator import attrgetter, itemgetter, mul
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .array_model import (
    ArrayConfig,
    BeamCodebook,
    _MAX_PHASE_BITS,
    _readonly,
    array_factor_many,
    dft_codebook,
    project_uniform,
    quantize_phases,
    steering_vector,
    superpose_beams,
)
from .beam_coding import CE_GOLAY, ce_field_powers
from .channel import (
    ChannelRealization,
    cascade_gains,
    derive_seed,
    sample_channel,
    toy_channel,
    toy_codebooks,
)
from .experiment import ConfigError, ExperimentConfig
from .metrics import aggregate_snr, grouped_cdf
from .packets import LAYOUTS, PER_BEAM_BITS_80211AD, PER_BEAM_BITS_BEAM_CODING, training_bits
from .protocols import ProtocolConfig, Scheme, run

__all__ = [
    "CsvBlock",
    "GAMMA_HEADER",
    "CDF_HEADER",
    "PowerVarResult",
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


@dataclass(frozen=True)
class CsvBlock:
    """CSV rows formatted by one printf template: the text of whole rows
    with a slot for each cell that varies (``%s`` text, ``%d`` integer,
    ``%.12g`` float, as ``f"{v:.12g}"`` prints it) and any other cell, its
    ``%`` doubled, in its text.  Each tuple of ``values`` fills the slots
    with one ``%``.
    """

    template: str
    values: Iterable[tuple]


def write_csv(path: str | Path, header: Sequence[str], blocks: Iterable[CsvBlock]) -> Path:
    """Write a header line, then the rows of each block as it comes, so the
    size of its blocks bounds the memory a file takes.

    A block's template must be whole lines of one cell per header column
    (by its counts of commas and newlines), or ValueError is raised.  Any
    failure removes the partly written file.  An existing file is replaced,
    not truncated: ext4 writes a truncated file back to disk on close.
    """
    path = Path(path)
    if not path.parent.is_dir():
        path.parent.mkdir(parents=True)
    path.unlink(missing_ok=True)
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for block in blocks:
                template = block.template
                lines, commas = template.count("\n"), template.count(",")
                if not template.endswith("\n") or commas != lines * (len(header) - 1):
                    raise ValueError(
                        f"template {template[:80]!r} is not whole lines of the header's "
                        f"{len(header)} cells"
                    )
                fh.write("".join(map(template.__mod__, block.values)))
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return path


def overhead_rows(beam_counts: Sequence[int]) -> tuple[list[str], CsvBlock]:
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
    return header, CsvBlock("%d,%s,%d,%d,%d,%d\n", rows)


# The gain, in dB below the peak, that a pattern's nulls print as.
_PATTERN_FLOOR_DB = -200.0


def pattern_rows(
    num_antennas: int,
    spacing: float = 0.5,
    angles_deg: Sequence[float] = (90.0,),
    signs: Sequence[int] | None = None,
    quant_bits: int | None = None,
    uniform: bool = False,
    step_deg: float = 0.1,
) -> tuple[list[str], CsvBlock]:
    """Beam pattern of a (possibly coded, projected, quantized) weight vector.

    Gains are normalized to the pattern peak; zeros clip at _PATTERN_FLOOR_DB.
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
        gain_db = np.maximum(10.0 * np.log10(power / peak), _PATTERN_FLOOR_DB)
    rows = list(zip(grid.tolist(), gain_db.tolist()))
    return ["angle_deg", "gain_db"], CsvBlock("%.12g,%.12g\n", rows)


def _beam_groups(num_beams: int, per_packet: int) -> list[list[int]]:
    """Strided beam groups: each packet's beams are maximally spread in
    angle, so that a scattering cluster (a few degrees wide) stays inside
    one beam of a packet, which keeps coded per-field powers flat.
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


class _Block(NamedTuple):
    """One (environment, cell) block of power-var rows: its label cells,
    where its gammas lie in a result's (environment index, entry slice of
    every run), each entry's packet and field label, and the text of its
    rows but the numbers: the label cells as printf text (``lead``) and,
    after "", the rest of each of a run's rows (``tails``), which the lead
    and a run index join."""

    label: str
    scheme: str
    environment: str
    beams_per_packet: int
    env_index: int
    entries: slice
    packets: tuple[int, ...]
    fields: tuple[int, ...]
    lead: str
    tails: tuple[str, ...]


# A chunk of blocks holds fewer gamma rows than this plus its last block's.
_CHUNK_ROWS = 4096


@dataclass(frozen=True, eq=False)
class _PowerVarPlan:
    """Everything in a power-var campaign that does not depend on the channel.

    A channel's gammas form a vector of (scheme, beams per packet) cells in
    config order, each packet by packet and field by field.  ``fields`` and
    ``packet_of`` give each entry's weight row and packet, numbered through
    ``preambles``: one (packets, P) matrix of preamble weight rows per
    preamble length P.  ``blocks`` are the CSV blocks in label order, and
    ``chunks`` cuts them into runs of whole blocks.
    """

    weights: np.ndarray  # distinct field and preamble weights, (W, tx antennas)
    preamble_rows: np.ndarray  # rows of ``weights`` that some preamble rides
    fields: np.ndarray
    packet_of: np.ndarray
    preambles: tuple[np.ndarray, ...]
    blocks: tuple[_Block, ...]
    chunks: tuple[tuple[_Block, ...], ...]


@functools.lru_cache(maxsize=8)
def _power_var_plan(
    tx_antennas: int,
    spacing: float,
    beams_per_packet: tuple[int, ...],
    schemes: tuple[str, ...],
    environments: tuple[str, ...],
    runs: int,
) -> _PowerVarPlan:
    """The plan of a power-var config; raises ConfigError for a bad
    beams-per-packet list.  Schemes and environments are checked by
    _validate_campaign."""
    rule = f"[1, {tx_antennas}] (array.tx_antennas)"
    _check_list("packet.beams_per_packet", beams_per_packet, lambda k: 1 <= k <= tx_antennas, rule)
    tx_cb = _dft_codebook("array.tx_antennas", tx_antennas, spacing)
    row_of: dict[bytes, int] = {}

    def rows(weights: np.ndarray) -> list[int]:
        return [row_of.setdefault(w.tobytes(), len(row_of)) for w in weights]

    fields: list[int] = []
    # Each entry's packet as (preamble length, packet among those of that
    # length), and each length's packets' preamble rows.
    packets: list[tuple[int, int]] = []
    preambles: dict[int, list[list[int]]] = {}
    blocks: list[_Block] = []
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
            places = (slice(start, len(fields)), tuple(packet_labels), tuple(field_labels))
            tails = ("", *(f"{p},{f},%.12g\n" for p, f in zip(packet_labels, field_labels)))
            for e, env in enumerate(environments):
                cells = (f"power_var/{scheme}/{env}/K{k}", scheme, env, k)
                lead = ",".join(map(str, cells)).replace("%", "%%") + ","
                blocks.append(_Block(*cells, e, *places, lead, tails))
    blocks.sort(key=attrgetter("label"))
    first_packet = dict(zip(preambles, accumulate(map(len, preambles.values()), initial=0)))
    # A block starts a chunk when its first gamma row is in a later span of
    # _CHUNK_ROWS than the last's.
    first_rows = runs * np.cumsum([0, *(len(b.fields) for b in blocks[:-1])])
    cuts = [*np.flatnonzero(np.diff(first_rows // _CHUNK_ROWS, prepend=-1)).tolist(), len(blocks)]
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
        blocks=tuple(blocks),
        chunks=tuple(tuple(blocks[first:end]) for first, end in zip(cuts, cuts[1:])),
    )


def _tap_rows(
    tx: np.ndarray, rx: np.ndarray, ch: ChannelRealization, tx_cfg: ArrayConfig, rx_cfg: ArrayConfig
) -> np.ndarray:
    """Cascade taps of each transmit weight row through the receive weights
    ``rx``, shape (rows, num_taps).

    Each row is contiguous, so that a sum along it adds in the same order
    as a sum over that weight's own tap vector.
    """
    taps = cascade_gains(tx, rx[None, :], ch, tx_cfg, rx_cfg)
    return np.ascontiguousarray(taps[:, :, 0].T)


def _channel_gammas(plan: _PowerVarPlan, taps: np.ndarray) -> np.ndarray:
    """The gammas of one channel in the plan's layout, given the taps of
    every plan weight (one contiguous row each)."""
    powers = np.sum(np.abs(taps) ** 2, axis=1)
    sigmas = np.zeros(len(taps))
    sigmas[plan.preamble_rows] = ce_field_powers(taps[plan.preamble_rows])
    if np.any(sigmas[plan.preamble_rows] <= 0.0):
        raise ValueError("undefined ratio: preamble has zero variance")
    # The sum over P and a division by P, as np.mean computes it.
    packet_sigmas = np.concatenate([sigmas[p].sum(axis=1) / p.shape[1] for p in plan.preambles])
    return powers[plan.fields] / (3.0 * packet_sigmas[plan.packet_of])


def _validate_campaign(exp: ExperimentConfig) -> None:
    """Checks shared by the campaigns, made before any channel is drawn."""
    for key, values, known in (
        ("experiment.environments", exp.environments, _ENVIRONMENTS),
        ("experiment.schemes", exp.schemes, _POWER_VAR_SCHEMES),
    ):
        _check_list(key, values, known.__contains__, "{" + ", ".join(known) + "}")
    if exp.runs < 1:
        raise ConfigError(f"experiment.runs must be at least 1, got {exp.runs}")
    _validate_channel_and_link(exp, nlos="nlos" in exp.environments)


def _check_list(key: str, values: Sequence, valid: Callable[..., bool], rule: str) -> None:
    """ConfigError naming ``key`` if its list is empty, has values that
    ``valid`` refuses (outside ``rule``) or has values listed more than
    once; a value prints as its row label, None as "inf"."""
    if not values:
        raise ConfigError(f"{key}: the list is empty")
    labels = ["inf" if v is None else str(v) for v in values]
    if bad := [label for v, label in zip(values, labels) if not valid(v)]:
        raise ConfigError(f"{key}: {', '.join(bad)} outside {rule}")
    if repeated := [v for v in dict.fromkeys(labels) if labels.count(v) > 1]:
        raise ConfigError(
            f"{key}: {', '.join(repeated)} listed more than once; "
            "their rows would share one label"
        )


# numpy's standard normal draws stay below 14 in magnitude: its ziggurat
# tail draws r - ln(1 - u) / r with r = 3.65 and u at most 1 - 2**-53.  So
# a spread s scales every draw to a finite float, with room to add an
# angle, while 16 s is finite; and no cluster loss falls below its mean
# by more than 14 rms.
_NORMAL_DRAW_MAX = 14.0
_SPREAD_MAX = sys.float_info.max / 16
_SPREAD_RULE = f"nonnegative and at most {_SPREAD_MAX:.4g}"


def _validate_channel_and_link(exp: ExperimentConfig, nlos: bool) -> None:
    """Checks of the array, channel and link settings, made before any
    channel is drawn or any run is trained; ``nlos`` says whether some run
    draws a channel without line of sight."""
    ch, tx, rx = exp.channel, exp.tx_antennas, exp.rx_antennas
    spread, rms, carrier = ch.intra_cluster_tap_spread, ch.cluster_loss_rms_db, ch.carrier_hz
    std, bandwidth = ch.intra_cluster_angle_std_deg, exp.budget.bandwidth_hz
    # Values the arrays, the channel sampler or the link budget cannot work with.
    for key, value, valid, rule in (
        ("array.tx_antennas", tx, tx >= 1, "at least 1"),
        ("array.rx_antennas", rx, rx >= 1, "at least 1"),
        ("channel.intra_cluster_tap_spread", spread, spread >= 0, "nonnegative"),
        ("channel.cluster_loss_rms_db", rms, rms >= 0, "nonnegative"),
        ("channel.intra_cluster_angle_std_deg", std, 0 <= std <= _SPREAD_MAX, _SPREAD_RULE),
        ("channel.carrier_hz", carrier, 0 < carrier < math.inf, "positive and finite"),
        ("channel.distance_m", ch.distance_m, math.isfinite(ch.distance_m), "finite"),
        ("link.bandwidth_hz", bandwidth, 0 < bandwidth < math.inf, "positive and finite"),
    ):
        if not valid:
            raise ConfigError(f"{key} must be {rule}, got {value!r}")
    # A channel must fit inside the Golay half of the CE field that estimates it.
    chips, excess = CE_GOLAY.shape[1], ch.max_excess_tap + spread
    if excess >= chips:
        raise ConfigError(
            f"channel.max_excess_tap, channel.intra_cluster_tap_spread: {ch.max_excess_tap} + "
            f"{spread} = {excess} taps of excess delay; at most {chips - 1} fit inside the "
            f"{chips}-chip Golay sequence of the CE field"
        )
    if nlos and ch.num_clusters == 0:
        raise ConfigError(
            "channel.num_clusters: an NLOS channel without clusters has no rays to train on"
        )
    # Every SNR divides by the noise-to-signal ratio, and every noise draw
    # scales with it.
    try:
        ratio = exp.budget.noise_to_signal
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ConfigError(
            f"link.tx_power_dbm, link.noise_figure_plus_impl_db: {exp.budget.tx_power_dbm!r} dBm "
            f"and {exp.budget.noise_figure_plus_impl_db!r} dB give a noise-to-signal ratio of "
            f"{ratio!r}; it must be positive and finite"
        )
    # The sampler redraws each cluster loss until one passes the cap; when
    # almost none do (here, under 1 in 10^4), it never returns in practice.
    excess = ch.cluster_loss_mean_db - ch.cluster_loss_truncation_db
    passing = 0.5 * math.erfc(excess / (rms * math.sqrt(2.0))) if rms > 0 else float(excess <= 0)
    if passing < 1e-4:
        raise ConfigError(
            f"channel.cluster_loss_mean_db: with channel.cluster_loss_rms_db = {rms!r}, only "
            f"{passing:.3g} of the draws pass channel.cluster_loss_truncation_db (need 1e-4)"
        )
    _validate_amplitudes(exp)


def _overflow_to_inf(value) -> float:
    """``value()``, or inf where float arithmetic raises OverflowError."""
    try:
        return value()
    except OverflowError:
        return math.inf


def _validate_amplitudes(exp: ExperimentConfig) -> None:
    """Ray amplitudes whose powers float arithmetic can hold: the
    line-of-sight amplitude, a cluster ray's at the loss cap (the largest
    it can draw) and at the lowest loss a draw can give, and the peak tap
    amplitude (every ray's largest, times at most sqrt(antennas) per end)
    must each square to a positive normal float."""
    ch = exp.channel
    keys = "channel.distance_m, channel.path_loss_exponent, channel.carrier_hz"
    los = _overflow_to_inf(ch.los_amplitude)
    checks = [(keys, "line-of-sight amplitude", los)]
    rays, cluster = ch.num_clusters * ch.rays_per_cluster, 0.0
    if rays:

        def ray(loss_db):
            return _overflow_to_inf(
                lambda: los * 10.0 ** (loss_db / 20.0) / math.sqrt(ch.rays_per_cluster)
            )

        cluster = ray(ch.cluster_loss_truncation_db)
        lowest_db = ch.cluster_loss_mean_db - _NORMAL_DRAW_MAX * ch.cluster_loss_rms_db
        lowest_keys = keys + ", channel.cluster_loss_mean_db, channel.cluster_loss_rms_db"
        keys += ", channel.cluster_loss_truncation_db"
        checks.append((keys, "cluster ray amplitude at the loss cap", cluster))
        checks.append((lowest_keys, "cluster ray amplitude at the lowest loss", ray(lowest_db)))
        keys += ", channel.num_clusters, channel.rays_per_cluster"
    keys += ", array.tx_antennas, array.rx_antennas"
    antennas = exp.tx_antennas * exp.rx_antennas
    peak = _overflow_to_inf(lambda: (los + rays * cluster) * math.sqrt(antennas))
    checks.append((keys, "peak tap amplitude", peak))
    for keys, what, amplitude in checks:
        if not sys.float_info.min <= amplitude * amplitude < math.inf:
            raise ConfigError(
                f"{keys}: the {what} is {amplitude!r}; its square must be a positive normal float"
            )


GAMMA_HEADER = (
    "experiment", "scheme", "environment", "beams_per_packet",
    "seed_index", "packet", "field", "gamma",
)
CDF_HEADER = (*GAMMA_HEADER[:4], "value", "cum_fraction")


@dataclass(frozen=True, eq=False)
class PowerVarResult:
    """The gammas of a power-var campaign: row ``[e, i]`` of the read-only
    (environments, runs, entries) ``gammas`` holds the channel of run i in
    environment e, in the order of the ``plan``'s entries.  The plan's
    blocks give the CSV row order: block by block in label order, each
    block's runs in index order, each run's entries in (packet, field)
    order.  Each CSV takes one ``%`` per chunk of blocks."""

    plan: _PowerVarPlan
    gammas: np.ndarray

    def _chunk_gammas(self) -> Iterator[tuple[tuple[_Block, ...], np.ndarray]]:
        """Each chunk's blocks, and their gammas in row order."""
        for blocks in self.plan.chunks:
            views = [self.gammas[b.env_index, :, b.entries].ravel() for b in blocks]
            yield blocks, np.concatenate(views)

    def gamma_rows(self) -> Iterator[CsvBlock]:
        """The gamma CSV's rows, one block per chunk, a slot for each gamma."""
        runs = self.gammas.shape[1]
        for blocks, gammas in self._chunk_gammas():
            template = "".join(f"{b.lead}{i},".join(b.tails) for b in blocks for i in range(runs))
            yield CsvBlock(template, [tuple(gammas.tolist())])

    def cdf_rows(self) -> Iterator[CsvBlock]:
        """Each block's jump points in value order, from one
        :func:`grouped_cdf` call per chunk."""
        runs = self.gammas.shape[1]
        for blocks, gammas in self._chunk_gammas():
            sizes = [runs * len(b.fields) for b in blocks]
            values, fractions, counts = grouped_cdf(gammas, sizes)
            slots = np.empty(2 * len(values))
            slots[0::2], slots[1::2] = values, fractions
            leads = (b.lead + "%.12g,%.12g\n" for b in blocks)
            yield CsvBlock("".join(map(mul, leads, counts.tolist())), [tuple(slots.tolist())])


def power_var_campaign(exp: ExperimentConfig) -> PowerVarResult:
    """Power-ratio samples per (scheme, beams-per-packet, env) cell.

    The receiver is a single antenna, the worst case for coded training
    since it hears every path; the transmitter trains all its beams in
    groups of ``beams_per_packet`` per packet.  The config is checked
    before any channel is drawn; a bad value raises :class:`ConfigError`.

    One plan, cached per config less its seed, holds everything that does
    not depend on the channel: the distinct weights of the config's
    layouts, the packet of each gamma, and the CSV blocks and chunks.  Per
    channel, one cascade gives the taps of every distinct weight, and a
    field's gamma is its power over three times its preamble's sigma from
    :func:`~beamtrain.beam_coding.ce_field_powers`: bit for bit what a
    sample-level synthesis of each layout gives.  Golay complementarity
    gives sigma in closed form, but not bit for bit, so the synthesis
    stays until the reference outputs are re-recorded.
    """
    started = time.perf_counter()
    _validate_campaign(exp)
    plan = _power_var_plan(
        exp.tx_antennas, exp.spacing, tuple(exp.beams_per_packet), tuple(exp.schemes),
        tuple(exp.environments), exp.runs,
    )
    tx_cfg = ArrayConfig(exp.tx_antennas, exp.spacing)
    rx_w = np.ones(1, dtype=np.complex128)
    rx_cfg = ArrayConfig(1, exp.spacing)
    gammas = np.empty((len(exp.environments), exp.runs, len(plan.fields)))

    def channel_gammas(env_idx: int, i: int, ch: ChannelRealization) -> None:
        taps = _tap_rows(plan.weights, rx_w, ch, tx_cfg, rx_cfg)
        gammas[env_idx, i] = _channel_gammas(plan, taps)

    _each_channel(exp, _POWER_VAR_STREAM, "power-var", channel_gammas)
    gammas.setflags(write=False)
    log.info(
        "power-var: %d runs, %d environments, %d blocks of %d gamma rows in %.3f s",
        exp.runs,
        len(exp.environments),
        len(plan.blocks),
        gammas.size,
        time.perf_counter() - started,
    )
    return PowerVarResult(plan, gammas)


def _each_channel(exp: ExperimentConfig, stream: int, name: str, work: Callable[..., None]) -> None:
    """Call ``work(env_idx, i, channel)`` for each run i of each environment
    in config order, on the channel that the splitting rule seeds with
    ``derive_seed(derive_seed(derive_seed(master, stream), env_idx), i)``,
    with line of sight in "los" only.  Each channel is dropped before the
    next is drawn.  The campaign ``name`` heads an INFO line at the start
    and a DEBUG line with each environment's time."""
    log.info("%s: %d runs in %s", name, exp.runs, ", ".join(exp.environments))
    for env_idx, env in enumerate(exp.environments):
        env_started = time.perf_counter()
        ch_cfg = replace(exp.channel, los=(env == "los"))
        env_master = derive_seed(derive_seed(exp.master_seed, stream), env_idx)
        for i in range(exp.runs):
            work(env_idx, i, sample_channel(ch_cfg, derive_seed(env_master, i)))
        log.debug("%s: %s done in %.3f s", name, env, time.perf_counter() - env_started)


def quant_sweep_campaign(exp: ExperimentConfig) -> tuple[list[str], CsvBlock]:
    """Aggregate SNR versus phase-quantization bits, coded training against
    the exhaustive packet-by-packet upper bound.

    Training runs noiselessly, to isolate quantization; the link budget
    only scales the SNR reported at the selected pair, with clean
    steering.  The unquantized baseline's row repeats across the bits
    axis.  The config is checked before any channel is drawn; a bad value
    raises :class:`ConfigError`.  Every run goes through
    :func:`~beamtrain.protocols.run`.  Each channel is trained by the
    baseline, then at every bit width, and dropped before the next is
    drawn; each config's SNRs are aggregated in channel order.
    """
    started = time.perf_counter()
    _validate_campaign(exp)
    if tuple(exp.schemes) != _POWER_VAR_SCHEMES:
        raise ConfigError(
            f"experiment.schemes: quant-sweep always compares {', '.join(_POWER_VAR_SCHEMES)}; "
            f"got {', '.join(exp.schemes)}"
        )
    _check_list(
        "quant.bits", exp.quant_bits, lambda b: b is None or 1 <= b <= _MAX_PHASE_BITS,
        f"[1, {_MAX_PHASE_BITS}]",
    )
    tx_cb = _dft_codebook("array.tx_antennas", exp.tx_antennas, exp.spacing)
    rx_cb = _dft_codebook("array.rx_antennas", exp.rx_antennas, exp.spacing)
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
    # Each config's linear SNR on each channel, in channel order.
    linear = np.empty((len(exp.environments), len(configs), exp.runs))

    def train(env_idx: int, i: int, ch: ChannelRealization) -> None:
        linear[env_idx, :, i] = [10.0 ** (run(cfg, ch, i).snr_db / 10.0) for cfg in configs]

    _each_channel(exp, _QUANT_SWEEP_STREAM, "quant-sweep", train)
    header = ["experiment", "environment", "bits", "scheme", "runs", "snr_db"]
    rows: list[tuple] = []
    for env, env_linear in zip(exp.environments, linear):
        # A cell whose every run failed detection aggregates to 0: -inf dB.
        nbf_db, *coded_dbs = (
            10.0 * math.log10(a) if a > 0.0 else -math.inf for a in map(aggregate_snr, env_linear)
        )
        for bits, coded_db in zip(exp.quant_bits, coded_dbs):
            lead = (f"quant_sweep/{env}", env, "inf" if bits is None else str(bits))
            rows += [(*lead, "beamcoding", exp.runs, coded_db), (*lead, "nbf", exp.runs, nbf_db)]
    rows.sort(key=itemgetter(0, 2, 3))
    log.info(
        "quant-sweep: %d runs, %d environments, %d rows in %.3f s",
        exp.runs,
        len(exp.environments),
        len(rows),
        time.perf_counter() - started,
    )
    return header, CsvBlock("%s,%s,%s,%s,%d,%.12g\n", rows)


def train_once(
    exp: ExperimentConfig,
    scheme: Scheme,
    seed: int,
    toy: bool = False,
) -> tuple[dict, tuple[list[str], CsvBlock]]:
    """Single training run with a full trace dump, for debugging.

    With ``toy=True`` the run uses the classic 4-beam two-path scene
    (attenuation 0.5) instead of a sampled cluster channel.  The channel
    and link settings are checked first, as the campaigns check them; a
    bad value raises :class:`ConfigError`.
    """
    _validate_channel_and_link(exp, nlos=not (toy or exp.channel.los))
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
    keys = "seed success best_pair packets_sent training_bits feedback_bits snr_db".split()
    summary = {"scheme": outcome.scheme.value, **{k: getattr(outcome, k) for k in keys}}
    header = ["scheme", "seed", "packet", "field", "measured_power"]
    rows: list[tuple] = []
    for packet_idx, trace in enumerate(outcome.power_traces):
        for field_idx, value in enumerate(np.asarray(trace).ravel()):
            rows.append((outcome.scheme.value, seed, packet_idx, field_idx, float(value)))
    return summary, (header, CsvBlock("%s,%d,%d,%d,%.12g\n", rows))
