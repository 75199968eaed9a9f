"""Regenerate the golden campaign outputs in this directory.

Run from the repository root as ``PYTHONPATH=src python
tests/golden/regenerate.py``.  Each campaign case is a directory holding
its config (``config.txt``, canonical ``serialize_config`` text) and the
CSVs that ``beamtrain <command> --config config.txt`` writes;
``train_toy.json`` holds the ``train --toy`` summary of every scheme, and
``scheme_outcomes.json`` every field of every scheme's outcome on a few
noisy realizations.
``tests/test_golden.py`` holds the library to these files.  Regenerating
them changes that check: record in CHANGES.md which commit generated
them and why the numbers moved.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import replace
from pathlib import Path

from beamtrain import cli
from beamtrain.array_model import ArrayConfig, dft_codebook
from beamtrain.channel import ChannelConfig, LinkBudget, derive_seed, sample_channel
from beamtrain.experiment import ExperimentConfig, serialize_config
from beamtrain.harness import train_once
from beamtrain.protocols import ProtocolConfig, Scheme, TrainingOutcome, run

GOLDEN_DIR = Path(__file__).resolve().parent

_BASE = ExperimentConfig(runs=2, master_seed=7)

# case directory -> (subcommand, config)
CASES = {
    "power_var_default": ("power-var", _BASE),
    "power_var_k3_spread4": (
        "power-var",
        replace(_BASE, beams_per_packet=(3,), channel=ChannelConfig(intra_cluster_tap_spread=4)),
    ),
    "quant_sweep": ("quant-sweep", replace(_BASE, runs=5)),
}

TRAIN_SEED = 1


def train_toy_summaries() -> dict[str, dict]:
    """The ``train --toy`` summary of every scheme, JSON-ready, with the
    number of rows of its trace dump."""
    out = {}
    for scheme in Scheme:
        summary, (_, block) = train_once(ExperimentConfig(), scheme, TRAIN_SEED, toy=True)
        trace_rows = len(block.values)
        out[scheme.value] = {**summary, "best_pair": list(summary["best_pair"]), "trace_rows": trace_rows}
    return out


# Noisy outcomes: DFT codebooks at -10 dBm, where some runs fail
# detection; realization i of an environment has seed derive_seed(11, i)
# and is trained with run seed i.  Each case is a key prefix -> (transmit
# antennas, receive antennas, weight transforms): plain 8x8 links, a
# 16 tx x 4 rx link whose tables are not square, and 8x8 links with 3-bit
# phases and with phase-only weights, whose SNR tables differ from their
# training tables.
OUTCOME_BUDGET = LinkBudget(tx_power_dbm=-10.0)
OUTCOME_MASTER_SEED = 11
OUTCOME_REALIZATIONS = 3
OUTCOME_CASES = {
    "": (8, 8, {}),
    "16x4/": (16, 4, {}),
    "quantize3/": (8, 8, {"quantize_bits": 3}),
    "phase_only/": (8, 8, {"project_phase_only": True}),
}


def _outcome_record(out: TrainingOutcome) -> dict:
    """Every field of an outcome, JSON-ready; a complex array is split
    into its real and imaginary parts."""
    corr = out.correlation
    if corr is not None:
        corr = {"real": corr.real.tolist(), "imag": corr.imag.tolist()}
    return {
        "scheme": out.scheme.value,
        "seed": out.seed,
        "success": out.success,
        "best_pair": None if out.best_pair is None else list(out.best_pair),
        "pair_power": None if out.pair_power is None else out.pair_power.tolist(),
        "correlation": corr,
        "packets_sent": out.packets_sent,
        "training_bits": out.training_bits,
        "power_traces": [trace.tolist() for trace in out.power_traces],
        "snr_db": out.snr_db,
        "feedback_messages": out.feedback_messages,
        "feedback_bits": out.feedback_bits,
    }


def scheme_outcomes() -> dict[str, dict[str, dict]]:
    """Every scheme's outcome record on each noisy realization of each
    case, keyed by ``<case prefix><environment>/<index>`` and scheme name."""
    out = {}
    for prefix, (n_tx, n_rx, transforms) in OUTCOME_CASES.items():
        tx_cb, rx_cb = dft_codebook(ArrayConfig(n_tx)), dft_codebook(ArrayConfig(n_rx))
        cfgs = [
            ProtocolConfig(tx_cb, rx_cb, scheme, noise=OUTCOME_BUDGET, **transforms)
            for scheme in Scheme
        ]
        for env in ("los", "nlos"):
            for i in range(OUTCOME_REALIZATIONS):
                seed = derive_seed(OUTCOME_MASTER_SEED, i)
                ch = sample_channel(ChannelConfig(los=env == "los"), seed)
                out[f"{prefix}{env}/{i}"] = {
                    cfg.scheme.value: _outcome_record(run(cfg, ch, i)) for cfg in cfgs
                }
    return out


def run_case(command: str, exp: ExperimentConfig, out_dir: Path) -> None:
    """Write ``config.txt`` and the subcommand's CSVs into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    config = out_dir / "config.txt"
    config.write_text(serialize_config(exp))
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main([command, "--config", str(config), "--out", str(out_dir)])
    if status != 0:
        raise SystemExit(f"{command} exited {status}")


def main() -> None:
    for name, (command, exp) in CASES.items():
        run_case(command, exp, GOLDEN_DIR / name)
    text = json.dumps(train_toy_summaries(), indent=2, sort_keys=True)
    (GOLDEN_DIR / "train_toy.json").write_text(text + "\n")
    text = json.dumps(scheme_outcomes(), indent=1, sort_keys=True)
    (GOLDEN_DIR / "scheme_outcomes.json").write_text(text + "\n")


if __name__ == "__main__":
    main()
