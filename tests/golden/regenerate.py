"""Regenerate the golden campaign outputs in this directory.

Run from the repository root as ``PYTHONPATH=src python
tests/golden/regenerate.py``.  Each campaign case is a directory holding
its config (``config.txt``, canonical ``serialize_config`` text) and the
CSVs that ``beamtrain <command> --config config.txt`` writes;
``train_toy.json`` holds the ``train --toy`` summary of every scheme.
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
from beamtrain.channel import ChannelConfig
from beamtrain.experiment import ExperimentConfig, serialize_config
from beamtrain.harness import train_once
from beamtrain.protocols import Scheme

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
        summary, (_, rows) = train_once(ExperimentConfig(), scheme, TRAIN_SEED, toy=True)
        out[scheme.value] = {**summary, "best_pair": list(summary["best_pair"]), "trace_rows": len(rows)}
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


if __name__ == "__main__":
    main()
