r"""Compare two checkouts by the sum of per-operation minima on one workload.

    python3 tools/op_minima.py PARENT CHANGE --workload scheme_mix \
        --seed 3 --ops 200 --repeats 8 --alternations 4

Both checkouts run in one process.  Each side's library is loaded under
a package name of its own (``parent_beamtrain``, ``change_beamtrain``),
and each side gets its own copy of its checkout's
``perfbench/workloads.py``, bound to that package.  The process makes the
workload's operations 0 to ops - 1, ``repeats`` passes over them in index
order, and runs each operation on both sides back to back, the side that
goes first alternating from operation to operation and pass to pass.  It
times each call of the library (not input generation or the output
check).  An operation's minimum over its passes is its time with the
least interference from outside the process, and their sum is the side's
figure.  Since the two sides take turns per operation, a slow spell on a
shared host falls on both; comparing separate processes could not
resolve a difference of a few percent there.

The process runs with one BLAS thread, and ``alternations`` processes run
one after the other, each giving one sum per side.  Every operation's
first output on each side goes through that side's workload check.  At
the end the summary gives each side's sums (least, median, greatest), the
ratio of medians (change / parent) and the ratio of least sums.  Uses only
the standard library; exits 1 when a process fails or an output check
fails.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")


def load_side(side: str, root: Path):
    """The checkout's ``perfbench/workloads.py`` as a module of its own,
    bound to the checkout's library loaded as package ``<side>_beamtrain``."""
    package = f"{side}_beamtrain"
    src = root / "src" / "beamtrain"
    spec = importlib.util.spec_from_file_location(
        package, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    library = importlib.util.module_from_spec(spec)
    sys.modules[package] = library
    spec.loader.exec_module(library)
    # Every module the workloads may name, so that ``from beamtrain import
    # x`` below finds it on the package and loads no second copy.
    for path in sorted(src.glob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            importlib.import_module(f"{package}.{path.stem}")
    spec = importlib.util.spec_from_file_location(
        f"{side}_workloads", root / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules["beamtrain"] = library
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules["beamtrain"]
    return workloads


def child(args: argparse.Namespace) -> int:
    """One alternation: print each side's sum of minima in ms as JSON."""
    clock = time.perf_counter_ns
    roots = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    with tempfile.TemporaryDirectory() as out_dir:
        workloads = {
            side: load_side(side, root).WORKLOADS[args.workload](args.seed, Path(out_dir) / side)
            for side, root in roots.items()
        }
        if leaked := [m for m in sys.modules if m.partition(".")[0] == "beamtrain"]:
            raise SystemExit(f"{', '.join(leaked)} imported under the library's own name")
        inputs = {side: [w.inputs(i) for i in range(args.ops)] for side, w in workloads.items()}
        minima = {side: [float("inf")] * args.ops for side in SIDES}
        errors: list[str] = []
        for repeat in range(args.repeats):
            for i in range(args.ops):
                order = SIDES if (repeat + i) % 2 == 0 else SIDES[::-1]
                for side in order:
                    workload, op_args = workloads[side], inputs[side][i]
                    start = clock()
                    result = workload.op(op_args)
                    minima[side][i] = min(minima[side][i], clock() - start)
                    if repeat == 0:
                        errors += [f"{side}: {e}" for e in workload.check(op_args, result)]
    sums = {side: sum(values) / 1e6 for side, values in minima.items()}
    print(json.dumps({"sum_ms": sums, "errors": errors[:10]}))
    return 0


def measure(args: argparse.Namespace) -> dict[str, float]:
    """One process's sum of per-operation minima for each side, in ms."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        str(args.parent), str(args.change),
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
        raise SystemExit(f"no result (exit {proc.returncode}): {proc.stderr.strip()}")
    if result["errors"]:
        raise SystemExit(f"output checks failed: {result['errors']}")
    return result["sum_ms"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=8)
    parser.add_argument("--alternations", type=int, default=4)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if min(args.ops, args.repeats, args.alternations) < 1:
        parser.error("--ops, --repeats and --alternations must be at least 1")
    if args.child:
        return child(args)

    sums: dict[str, list[float]] = {side: [] for side in SIDES}
    for i in range(args.alternations):
        for side, value in measure(args).items():
            sums[side].append(value)
            print(f"alternation {i + 1} {side}: {value:.3f} ms", flush=True)

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
