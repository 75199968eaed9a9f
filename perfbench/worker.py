"""One workload in a fresh single-threaded process; started by run.py.

Roles:
  probe    set up the workload and exit, reporting the set-up time
  measure  set up, check the reference operation, then run timed
           operations for --seconds, checking every output

The last line of standard output is a JSON object for run.py.  The BLAS
and OpenMP thread counts are pinned here, before numpy is imported.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import beamtrain  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "beamtrain").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_record(seed: int) -> dict:
    nproc = len(os.sched_getaffinity(0))
    if BLAS_THREADS > nproc:
        raise RuntimeError(f"BLAS thread pin {BLAS_THREADS} exceeds nproc {nproc}")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": BLAS_THREADS,
        "cpu": _cpu_model(),
        "nproc": nproc,
        "source_sha256": _source_sha256(),
        "seed": seed,
    }


def measure(workload, seconds: float, tracer=None, reference_dir: Path = workloads.REFERENCE_DIR) -> dict:
    """Check the reference operation, then run timed operations for ``seconds``.

    Every operation counts as attempted; one fails if it raises or its
    output fails a check.  Only the library call is timed; input generation
    and checks are not.
    """
    errors: list[str] = []
    attempted, failed = 1, 0  # the reference operation is the first

    def fail(msg: str) -> None:
        nonlocal failed
        failed += 1
        if len(errors) < 20:
            errors.append(msg)

    try:
        ref_errors = workloads.check_reference(workload, reference_dir)
    except Exception:
        ref_errors = [traceback.format_exc()]
    if ref_errors:
        fail("reference: " + "; ".join(ref_errors))

    latencies_ns: list[int] = []
    clock = time.perf_counter_ns

    def run_op(index: int) -> list[str]:
        args = workload.inputs(index)
        if tracer is not None:
            tracer.op_id = index
        try:
            start = clock()
            result = workload.op(args)
            latencies_ns.append(clock() - start)
        finally:
            if tracer is not None:
                tracer.op_id = -1
        return workload.check(args, result)

    deadline = clock() + int(seconds * 1e9)
    index = 0
    while clock() < deadline:
        attempted += 1
        try:
            op_errors = run_op(index)
        except Exception:
            op_errors = [traceback.format_exc()]
        if op_errors:
            fail(f"op {index}: " + "; ".join(op_errors))
        index += 1
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "latencies_ns": latencies_ns,
        "realizations_per_op": workload.realizations_per_op,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=("probe", "measure"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0-ns", type=int, required=True, help="monotonic clock at spawn")
    args = parser.parse_args(argv)

    if Path(beamtrain.__file__).resolve().parent != SRC / "beamtrain":
        print(f"beamtrain imported from {beamtrain.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    out_dir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
        setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.t0_ns) / 1e9
        if args.role == "probe":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()

    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["run_record"] = run_record(args.seed)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(
            len(result["latencies_ns"]), sum(result["latencies_ns"])
        )
        tracer.write(ROOT / ".perfbench_run" / f"spans_{args.workload}.csv.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
