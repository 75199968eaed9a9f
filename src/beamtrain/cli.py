"""Command-line front end.

Subcommands: ``pattern``, ``power-var``, ``quant-sweep``, ``overhead`` and
``train``.  All outputs are CSV files under ``--out``.  Exit status is 0 on
success, 2 on configuration errors (bad flags, config values or ``--out``,
checked before any work is done) and 1 on any other failure, reported in
one line with its traceback logged at BEAMTRAIN_LOG=debug.  The
BEAMTRAIN_LOG environment variable (debug/info/warning) sets the log
verbosity.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import harness
from .array_model import _MAX_PHASE_BITS, ArrayConfig, dft_codebook
from .experiment import ConfigError, ExperimentConfig, parse_config
from .protocols import Scheme

log = logging.getLogger("beamtrain")


def _setup_logging() -> None:
    level = os.environ.get("BEAMTRAIN_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _load_experiment(args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "config", None):
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"--config: cannot read {args.config}: {exc.strerror}") from None
        exp = parse_config(text)
    else:
        exp = ExperimentConfig()
    flags = {"runs": "runs", "master_seed": "seed", "out_dir": "out"}
    given = {k: v for k, flag in flags.items() if (v := getattr(args, flag, None)) is not None}
    if given.get("runs", 1) < 1:
        raise ConfigError(f"--runs must be at least 1, got {given['runs']}")
    exp = replace(exp, **given)
    _check_out(exp.out_dir, "--out" if "out_dir" in given else "output.dir")
    return exp


def _check_out(out: str, key: str = "--out") -> Path:
    """``out`` as a path; ConfigError naming ``key`` when the nearest part
    of it that exists is not a directory.  Creates nothing."""
    path = Path(out)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"{key}: {existing} exists and is not a directory")
    return path


def _parse_list(raw: str, flag: str, kind: type) -> list:
    try:
        return [kind(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(
            f"{flag} takes comma-separated {kind.__name__} values, got {raw!r}"
        ) from None


def _parse_sign_list(raw: str) -> list[int]:
    out = []
    for v in raw.split(","):
        v = v.strip()
        if v in ("+", "+1", "1"):
            out.append(1)
        elif v in ("-", "-1"):
            out.append(-1)
        elif v:
            raise ConfigError(f"--signs: signs must be +1 or -1, got {v!r}")
    return out


def cmd_pattern(args: argparse.Namespace) -> int:
    out = _check_out(args.out)
    if (args.angles is None) == (args.dft_beams is None):
        raise ConfigError("pass exactly one of --angles or --dft-beams")
    if args.antennas < 1:
        raise ConfigError(f"--antennas must be at least 1, got {args.antennas}")
    if not 0.0 < args.spacing < math.inf:
        raise ConfigError(f"--spacing must be positive and finite, got {args.spacing}")
    if args.quant_bits is not None and not 1 <= args.quant_bits <= _MAX_PHASE_BITS:
        raise ConfigError(f"--quant-bits must lie in [1, {_MAX_PHASE_BITS}], got {args.quant_bits}")
    if not 0.0 < args.step < 180.0:
        raise ConfigError(f"--step must lie in (0, 180) degrees, got {args.step}")
    if args.dft_beams is not None:
        try:
            codebook = dft_codebook(ArrayConfig(args.antennas, args.spacing))
        except ValueError as exc:
            raise ConfigError(f"--spacing: {exc}") from None
        indices = _parse_list(args.dft_beams, "--dft-beams", int)
        if any(not 0 <= i < len(codebook) for i in indices):
            raise ConfigError(f"--dft-beams: beam indices must lie in [0, {len(codebook) - 1}]")
        angles = [codebook.angles_deg[i] for i in indices]
    else:
        angles = _parse_list(args.angles, "--angles", float)
        if any(not 0.0 <= a <= 180.0 for a in angles):
            raise ConfigError("--angles: beam angles must lie in [0, 180] degrees")
    if not angles:
        raise ConfigError("--angles or --dft-beams must name at least one beam")
    signs = _parse_sign_list(args.signs) if args.signs else None
    if signs is not None and len(signs) != len(angles):
        raise ConfigError(f"--signs gives {len(signs)} signs for {len(angles)} beams")
    header, block = harness.pattern_rows(
        num_antennas=args.antennas,
        spacing=args.spacing,
        angles_deg=angles,
        signs=signs,
        quant_bits=args.quant_bits,
        uniform=args.uniform,
        step_deg=args.step,
    )
    path = harness.write_csv(out / "pattern.csv", header, [block])
    print(f"wrote {path}")
    return 0


def cmd_power_var(args: argparse.Namespace) -> int:
    exp = _load_experiment(args)
    result = harness.power_var_campaign(exp)
    out = Path(exp.out_dir)
    p1 = harness.write_csv(out / "power_var_gamma.csv", harness.GAMMA_HEADER, result.gamma_rows())
    p2 = harness.write_csv(out / "power_var_cdf.csv", harness.CDF_HEADER, result.cdf_rows())
    print(f"wrote {p1}")
    print(f"wrote {p2}")
    return 0


def cmd_quant_sweep(args: argparse.Namespace) -> int:
    exp = _load_experiment(args)
    header, block = harness.quant_sweep_campaign(exp)
    path = harness.write_csv(Path(exp.out_dir) / "quant_sweep.csv", header, [block])
    print(f"wrote {path}")
    return 0


def cmd_overhead(args: argparse.Namespace) -> int:
    out = _check_out(args.out)
    counts = _parse_list(args.beams, "--beams", int)
    if not counts or min(counts) < 1:
        raise ConfigError(f"--beams takes beam counts of at least 1, got {args.beams!r}")
    header, block = harness.overhead_rows(counts)
    path = harness.write_csv(out / "overhead.csv", header, [block])
    print(f"wrote {path}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    exp = _load_experiment(args)
    try:
        scheme = Scheme(args.scheme)
    except ValueError:
        raise ConfigError(
            f"unknown scheme {args.scheme!r}; pick one of "
            + ", ".join(s.value for s in Scheme)
        ) from None
    summary, (header, block) = harness.train_once(
        exp, scheme, seed=exp.master_seed, toy=args.toy
    )
    path = harness.write_csv(Path(exp.out_dir) / "train_trace.csv", header, [block])
    for key, value in summary.items():
        print(f"{key}: {value}")
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamtrain",
        description="Beam training simulator: coded in-packet training versus "
        "standard-style sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pattern", help="array pattern CSV for given weights")
    p.add_argument("--antennas", type=int, required=True)
    p.add_argument("--spacing", type=float, default=0.5)
    p.add_argument("--angles", default=None, help="comma-separated beam angles in degrees")
    p.add_argument(
        "--dft-beams", default=None, help="comma-separated beam indices into the DFT codebook"
    )
    p.add_argument("--signs", default=None, help="comma-separated +1/-1 per beam")
    p.add_argument("--quant-bits", type=int, default=None)
    p.add_argument("--uniform", action="store_true", help="project onto phase-only weights")
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_pattern)

    for name, func in (("power-var", cmd_power_var), ("quant-sweep", cmd_quant_sweep)):
        p = sub.add_parser(name, help=f"run the {name} campaign")
        p.add_argument("--config", default=None)
        p.add_argument("--runs", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("overhead", help="training-bit accounting table")
    p.add_argument("--beams", default="1,16", help="comma-separated beam counts")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_overhead)

    p = sub.add_parser("train", help="single training run with trace dump")
    p.add_argument("--scheme", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--toy", action="store_true", help="use the 4-beam two-path toy scene")
    p.set_defaults(func=cmd_train)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first :func:`main` call and then reused."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Anything else is a fault of the program, not of its input.
        log.debug("%s failed", args.command, exc_info=True)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
