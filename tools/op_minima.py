r"""Compare two checkouts by the sum of per-operation minima on one workload.

    python3 tools/op_minima.py PARENT CHANGE --workload scheme_mix \
        --seed 3 --ops 200 --repeats 8 --alternations 4

Each side runs in a subprocess of its own that imports ``perfbench`` and
the library from its checkout, with one BLAS thread.  The subprocess makes
the workload's operations 0 to ops - 1, ``repeats`` passes over them in
index order, and times each call of the library (not input generation or
the output check).  An operation's minimum over its passes is its time
with the least interference from outside the process, and their sum is
the side's figure.  The two sides take turns ``alternations`` times, the
side that goes first alternating.  On a shared host a slow spell can still
cover a whole subprocess and move its sum by several percent, so compare
the least sums too, and repeat a comparison that straddles a threshold.

Every operation's first output goes through the workload's own check.  At
the end the summary gives each side's sums (least, median, greatest), the
ratio of medians (change / parent) and the ratio of least sums.  Uses only
the standard library; exits 1 when a subprocess fails or an output check
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def child(args: argparse.Namespace) -> int:
    """The side's measurement: print its sum of minima in ms as JSON."""
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    import beamtrain
    import workloads

    if Path(beamtrain.__file__).resolve().parent != root / "src" / "beamtrain":
        raise SystemExit(f"beamtrain imported from {beamtrain.__file__}, not {root / 'src'}")
    clock = time.perf_counter_ns
    with tempfile.TemporaryDirectory() as out_dir:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(out_dir))
        inputs = [workload.inputs(i) for i in range(args.ops)]
        minima = [float("inf")] * args.ops
        errors: list[str] = []
        for repeat in range(args.repeats):
            for i, op_args in enumerate(inputs):
                start = clock()
                result = workload.op(op_args)
                minima[i] = min(minima[i], clock() - start)
                if repeat == 0:
                    errors += workload.check(op_args, result)
    print(json.dumps({"sum_ms": sum(minima) / 1e6, "errors": errors[:10]}))
    return 0


def measure(checkout: Path, args: argparse.Namespace) -> float:
    """One subprocess's sum of per-operation minima in ``checkout``, in ms."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", str(checkout),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--ops", str(args.ops),
        "--repeats", str(args.repeats),
    ]
    threads = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    proc = subprocess.run(
        cmd, capture_output=True, text=True, check=False, env={**os.environ, **threads}
    )
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{checkout}: no result (exit {proc.returncode}): {proc.stderr.strip()}")
    if result["errors"]:
        raise SystemExit(f"{checkout}: output checks failed: {result['errors']}")
    return result["sum_ms"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent", type=Path, nargs="?", help="checkout of the parent commit")
    parser.add_argument("change", type=Path, nargs="?", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=8)
    parser.add_argument("--alternations", type=int, default=4)
    parser.add_argument("--child", type=Path, dest="checkout", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if min(args.ops, args.repeats, args.alternations) < 1:
        parser.error("--ops, --repeats and --alternations must be at least 1")
    if args.checkout is not None:
        return child(args)
    if args.parent is None or args.change is None:
        parser.error("give the parent and the change checkouts")

    sides = {"parent": args.parent, "change": args.change}
    sums: dict[str, list[float]] = {"parent": [], "change": []}
    for i in range(args.alternations):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            sums[side].append(measure(sides[side], args))
            print(f"alternation {i + 1} {side}: {sums[side][-1]:.3f} ms", flush=True)

    print(
        f"{args.workload}, seed {args.seed}, {args.ops} operations x {args.repeats} repeats, "
        f"{args.alternations} alternations: sum of per-operation minima in ms"
    )
    for side, values in sums.items():
        print(
            f"{side}: least {min(values):.3f}  median {statistics.median(values):.3f}  "
            f"greatest {max(values):.3f}"
        )
    medians = statistics.median(sums["change"]) / statistics.median(sums["parent"])
    least = min(sums["change"]) / min(sums["parent"])
    print(f"change / parent: ratio of medians {medians:.4f}, of least sums {least:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
