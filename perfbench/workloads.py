"""The benchmark's workloads, why each exists, and the checks on their outputs.

Every workload is a closed loop with one caller: it issues one operation,
waits for it, checks its output, then issues the next.  Nothing runs
concurrently.  Inputs come only from the workload seed.  The library is
driven through its public API: ``cli.main`` for the two campaigns and
``protocols.run`` for the scheme comparison.  Functions are looked up on
their module at call time so that the traced run's wrappers see the calls.

Why each workload exists (performance changes cite these lines when they
predict "no change"):

- power_var: the power-ratio CDF campaign.  Stresses ``packets``
  (``power_trace``, ``preamble_samples`` with its Golay convolutions),
  ``channel.end_to_end_gain``, ``metrics`` and ``harness.write_csv``.
  Never enters ``protocols``.
- quant_sweep: SNR versus phase-quantization bits.  Stresses ``protocols``
  (``run_exhaustive_beamcoding``), ``beam_coding.build_schedule`` with its
  O(K^2) ``are_orthogonal`` check and ``array_model.quantize_phases``, all
  rebuilt for every channel although their inputs never change.  Never
  touches ``packets``; writes only 20 CSV rows.
- scheme_mix: all six training schemes on each noisy channel realization
  (-10 dBm).  The only workload that exercises the noise RNG, the
  multilevel and feedback runners, receive-side coding and the
  detection-failure path.  Stresses ``protocols`` and
  ``channel.sample_channel``; never touches ``packets``, ``metrics`` or
  ``harness``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import replace
from pathlib import Path

from beamtrain import array_model, channel, cli, experiment, protocols

# Seed of the operation whose outputs are compared with the values recorded
# in reference/; it is the library's default master seed.
REF_SEED = 1
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Run indices per campaign call: one, for many latency samples in a run.
# Per-config work still repeats across the call's two channels (one per
# environment) and, in power_var, across packets and beam counts.
CAMPAIGN_RUNS = 1
# Realizations the scheme_mix reference covers: both environments, with
# detection failures among them.
SCHEME_MIX_REF_REALIZATIONS = 8

# Closed-form training costs (bits per trained beam).  The standard layout
# spends 4 AGC subfields of 320 bits, 4 delay subfields of 640 bits and a
# 1024-bit CE field per beam; coding drops the AGC and delay subfields.
BITS_PER_BEAM_STANDARD = 4 * 320 + 4 * 640 + 1024
BITS_PER_BEAM_CODED = BITS_PER_BEAM_STANDARD - 3840
FEEDBACK_BITS = 512

# Default power_var config: 2 environments x 2 schemes x 5 beams-per-packet
# values x 16 trained fields.
GAMMA_ROWS_PER_RUN = 320


def _input_seed(seed: int, index: int) -> int:
    """Master seed of campaign call ``index`` in a run seeded with ``seed``."""
    return seed * 100_000 + index


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _cell_equal(actual: str, expected: str) -> bool:
    if actual == expected:
        return True
    try:
        return int(actual) == int(expected)
    except ValueError:
        pass
    try:
        a, e = float(actual), float(expected)
    except ValueError:
        return False
    if math.isnan(a) or math.isnan(e):
        return math.isnan(a) and math.isnan(e)
    return math.isclose(a, e, rel_tol=1e-9, abs_tol=0.0)


def compare_rows(label: str, actual: list[list[str]], expected: list[list[str]]) -> list[str]:
    """Errors where ``actual`` differs from ``expected``.

    Integer cells must match exactly, float cells to a relative 1e-9, and
    any other cell as a string.
    """
    if len(actual) != len(expected):
        return [f"{label}: {len(actual)} rows, reference has {len(expected)}"]
    errors = []
    for i, (row, ref) in enumerate(zip(actual, expected)):
        if len(row) != len(ref):
            errors.append(f"{label} row {i}: {len(row)} cells, reference has {len(ref)}")
            continue
        for j, (a, e) in enumerate(zip(row, ref)):
            if not _cell_equal(a, e):
                errors.append(f"{label} row {i} col {j}: {a!r} != reference {e!r}")
    return errors[:10]


def check_reference(workload, reference_dir: Path = REFERENCE_DIR) -> list[str]:
    """Run ``workload`` at REF_SEED; errors from its checks and from comparing
    its outputs with the recorded reference files."""
    outputs, errors = workload.reference_run()
    for name, rows in outputs.items():
        path = reference_dir / name
        if not path.is_file():
            errors.append(f"missing reference {name}")
            continue
        errors += compare_rows(name, rows, _read_csv(path))
    return errors


class _Campaign:
    """A campaign subcommand run through ``cli.main`` with the default config."""

    subcommand = ""
    csv_names: tuple[str, ...] = ()

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.exp = experiment.parse_config(f"experiment.runs = {CAMPAIGN_RUNS}\n")
        self.realizations_per_op = self.exp.runs * len(self.exp.environments)

    def inputs(self, index: int) -> int:
        return _input_seed(self.seed, index)

    def op(self, master_seed: int) -> int:
        argv = [
            self.subcommand,
            "--runs", str(self.exp.runs),
            "--seed", str(master_seed),
            "--out", str(self.out_dir),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def _outputs(self) -> dict[str, list[list[str]]]:
        return {name: _read_csv(self.out_dir / name) for name in self.csv_names}

    def check(self, master_seed: int, status: int) -> list[str]:
        if status != 0:
            return [f"{self.subcommand} exited with {status}"]
        return self.check_outputs(self._outputs())

    def check_outputs(self, outputs: dict[str, list[list[str]]]) -> list[str]:
        raise NotImplementedError

    def reference_run(self) -> tuple[dict[str, list[list[str]]], list[str]]:
        status = self.op(REF_SEED)
        errors = self.check(REF_SEED, status)
        return (self._outputs() if status == 0 else {}), errors


class PowerVar(_Campaign):
    name = "power_var"
    subcommand = "power-var"
    csv_names = ("power_var_gamma.csv", "power_var_cdf.csv")

    def check_outputs(self, outputs: dict[str, list[list[str]]]) -> list[str]:
        errors = []
        gamma = outputs["power_var_gamma.csv"][1:]
        want = GAMMA_ROWS_PER_RUN * self.exp.runs
        if len(gamma) != want:
            errors.append(f"{len(gamma)} gamma rows, want {want}")
        bad = [row for row in gamma if not (math.isfinite(float(row[-1])) and float(row[-1]) > 0)]
        if bad:
            errors.append(f"{len(bad)} gamma values not finite and positive, first {bad[0]}")
        last: dict[str, float] = {}
        for row in outputs["power_var_cdf.csv"][1:]:
            last[row[0]] = float(row[-1])
        cells = {row[0] for row in gamma}
        if set(last) != cells:
            errors.append(f"CDF cells {sorted(set(last) ^ cells)} do not match gamma cells")
        errors += [f"CDF {cell} ends at {frac}, not 1.0" for cell, frac in last.items() if frac != 1.0]
        return errors


class QuantSweep(_Campaign):
    name = "quant_sweep"
    subcommand = "quant-sweep"
    csv_names = ("quant_sweep.csv",)

    def check_outputs(self, outputs: dict[str, list[list[str]]]) -> list[str]:
        errors = []
        rows = outputs["quant_sweep.csv"][1:]
        want = len(self.exp.environments) * len(self.exp.quant_bits) * 2
        if len(rows) != want:
            errors.append(f"{len(rows)} quant_sweep rows, want {want}")
        snr = {(env, bits, scheme): float(db) for _, env, bits, scheme, _, db in rows}
        if any(int(row[4]) != self.exp.runs for row in rows):
            errors.append(f"runs column differs from {self.exp.runs}")
        for env in self.exp.environments:
            nbf = {v for (e, _, s), v in snr.items() if e == env and s == "nbf"}
            if len(nbf) != 1 or not all(math.isfinite(v) for v in nbf):
                errors.append(f"{env}: nbf baseline {sorted(nbf)} is not one finite value")
            # Noiseless coded training with unquantized weights matches
            # exhaustive search exactly.
            coded = snr.get((env, "inf", "beamcoding"))
            if coded is None or coded not in nbf:
                errors.append(f"{env}: bits=inf beamcoding {coded} != nbf {sorted(nbf)}")
        return errors


class SchemeMix:
    """All six schemes trained on each noisy realization via ``protocols.run``."""

    name = "scheme_mix"
    realizations_per_op = 1

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.exp = experiment.parse_config("link.tx_power_dbm = -10.0\n")
        self.channel_cfgs = (
            replace(self.exp.channel, los=True),
            replace(self.exp.channel, los=False),
        )
        cfg = array_model.ArrayConfig(self.exp.tx_antennas, self.exp.spacing)
        tx_cb = array_model.dft_codebook(cfg)
        rx_cb = array_model.dft_codebook(
            array_model.ArrayConfig(self.exp.rx_antennas, self.exp.spacing)
        )
        self.configs = [
            protocols.ProtocolConfig(
                tx_codebook=tx_cb, rx_codebook=rx_cb, scheme=scheme, noise=self.exp.budget
            )
            for scheme in protocols.Scheme
        ]
        self.expected = {cfg.scheme: _closed_form_costs(cfg) for cfg in self.configs}

    def inputs(self, index: int) -> tuple[int, int]:
        return index, channel.derive_seed(self.seed, index)

    def op(self, args: tuple[int, int]) -> list:
        index, seed = args
        ch = channel.sample_channel(self.channel_cfgs[index % 2], seed)
        return [protocols.run(cfg, ch, seed) for cfg in self.configs]

    def check(self, args: tuple[int, int], outcomes: list) -> list[str]:
        errors = []
        by_scheme = {o.scheme: o for o in outcomes}
        S = protocols.Scheme
        pbp, inpacket = by_scheme[S.EXHAUSTIVE_PBP], by_scheme[S.EXHAUSTIVE_INPACKET]
        # Both make the same noise draw over the same gain table.
        if (pbp.success, pbp.best_pair) != (inpacket.success, inpacket.best_pair):
            errors.append(
                f"realization {args[0]}: exhaustive_pbp picked {pbp.best_pair}, "
                f"exhaustive_inpacket {inpacket.best_pair}"
            )
        for o in outcomes:
            got = (o.packets_sent, o.training_bits, o.feedback_bits)
            if got != self.expected[o.scheme]:
                errors.append(
                    f"realization {args[0]} {o.scheme.value}: (packets, bits, feedback) "
                    f"{got} != closed form {self.expected[o.scheme]}"
                )
            # A detection failure is a correct outcome; it must be reported
            # consistently.
            if o.success != (o.best_pair is not None) or o.success != math.isfinite(o.snr_db):
                errors.append(
                    f"realization {args[0]} {o.scheme.value}: success={o.success} with "
                    f"pair {o.best_pair} and snr {o.snr_db}"
                )
        return errors

    def reference_run(self) -> tuple[dict[str, list[list[str]]], list[str]]:
        rows = [["realization", "scheme", "success", "tx", "rx", "packets",
                 "training_bits", "feedback_bits", "snr_db"]]
        errors = []
        for i in range(SCHEME_MIX_REF_REALIZATIONS):
            args = (i, channel.derive_seed(REF_SEED, i))
            outcomes = self.op(args)
            errors += self.check(args, outcomes)
            for o in outcomes:
                tx, rx = o.best_pair if o.best_pair is not None else (-1, -1)
                rows.append([str(v) for v in (
                    i, o.scheme.value, int(o.success), tx, rx, o.packets_sent,
                    o.training_bits, o.feedback_bits, repr(float(o.snr_db)),
                )])
        return {"scheme_mix.csv": rows}, errors


def _closed_form_costs(cfg) -> tuple[int, int, int]:
    """(packets_sent, training_bits, feedback_bits) each scheme must report."""
    p, q = len(cfg.tx_codebook), len(cfg.rx_codebook)
    t_tx, t_rx = (1 << max(0, (k - 1).bit_length()) for k in (p, q))
    s = cfg.num_sectors
    multilevel = s * s + (p // s) * (q // s)
    S = protocols.Scheme
    return {
        S.EXHAUSTIVE_PBP: (p * q, p * q * BITS_PER_BEAM_STANDARD, 0),
        S.MULTILEVEL_PBP: (multilevel, multilevel * BITS_PER_BEAM_STANDARD, 0),
        S.EXHAUSTIVE_INPACKET: (q, p * q * BITS_PER_BEAM_STANDARD, 0),
        S.FEEDBACK_INPACKET: (2, (p + q) * BITS_PER_BEAM_STANDARD, FEEDBACK_BITS),
        S.EXHAUSTIVE_BEAMCODING: (q, q * t_tx * BITS_PER_BEAM_CODED, 0),
        S.FEEDBACK_BEAMCODING: (2, (t_tx + t_rx) * BITS_PER_BEAM_CODED, FEEDBACK_BITS),
    }[cfg.scheme]


WORKLOADS = {w.name: w for w in (PowerVar, QuantSweep, SchemeMix)}
