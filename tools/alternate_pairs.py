"""Compare two checkouts on one benchmark workload over alternating pairs.

    python3 tools/alternate_pairs.py PARENT CHANGE --workload scheme_mix \
        --seed 3 --seconds 10 --pairs 10

Each pair runs ``perfbench/run.py`` once in each checkout, one after the
other; the side that goes first alternates from pair to pair, so a slow
spell on the host does not always fall on the same side.  Every run's
end-to-end metrics are printed as it finishes.  At the end, for each
metric, the summary gives both sides' quartiles, the ratio of medians
(change / parent), the pairs the change won (ties count for neither), and
whether a gain may be claimed: the change wins at least nine pairs in ten
and its median beats the parent's by more than the distance between the
parent's quartiles.  Which way is better comes from the end-to-end list
of ``BENCHMARK.json`` in the parent checkout.

Uses only the standard library.  Exits 1 when a run fails or reports
``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, args: argparse.Namespace) -> dict[str, float]:
    """One benchmark run in ``checkout``: its metric values by name."""
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{checkout}: no result (exit {proc.returncode}): {proc.stderr.strip()}")
    if not result["correct"]:
        raise SystemExit(f"{checkout}: incorrect output: {proc.stderr.strip()}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(name: str, better: str, parent: list[float], change: list[float]) -> str:
    """One metric's line of the summary."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    gain = 10 * wins >= 9 * len(parent) and sign * (cm - pm) > p3 - p1
    return (
        f"{name} ({better} is better): parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
        f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  ratio {cm / pm:.4f}  "
        f"wins {wins}/{len(parent)}  gain {'yes' if gain else 'no'}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            values = run_once(sides[side], args)
            runs[side].append(values)
            shown = "  ".join(f"{k}={v:.6g}" for k, v in values.items())
            print(f"pair {i + 1} {side}: {shown}", flush=True)

    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s runs, {args.pairs} pairs")
    for name, direction in better.items():
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        print(summarize(name, direction, parent, change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
