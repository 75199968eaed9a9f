"""Benchmark of beamtrain's Monte-Carlo campaigns.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload power_var --seed 1 --seconds 50 --trace 0

Workloads (see workloads.py for why each exists):
  power_var    ``beamtrain power-var`` through cli.main, default config
  quant_sweep  ``beamtrain quant-sweep`` through cli.main, default config
  scheme_mix   six training schemes per noisy realization via protocols.run

BENCHMARK.json gates power_var and scheme_mix, which between them reach
every module.  quant_sweep runs and is checked the same way but is not
gated: on a shared host its run-to-run spread came closest to the bound,
and dropping it leaves time for longer runs of the other two.

With ``--trace 0`` the workload runs untraced in its own fresh
single-threaded process, after a few more processes that only set it up
(to measure set-up time), and the end-to-end metrics are printed.  With
``--trace 1`` it runs untraced for half the time and traced for the other
half, each in its own process, and the per-layer metrics are printed.
Every operation's output is checked; the last line of standard output is
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit status is 0 only when every check passed.  Uses only the standard
library; the workload processes import numpy and the library from
``src/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS, NO_WAITS_NOTE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("power_var", "quant_sweep", "scheme_mix")

# Gated metrics, name -> unit, as in BENCHMARK.json.  On a shared host the
# load of other tenants swings operation times by up to 2x for seconds at a
# time, so a run's median depends on how much of it fell in a slow spell.
# The gated timings are the ones that spell mix leaves steady: throughput at
# the run's fastest operation, the tail, and set-up time.  The median latency
# and the failure ratio (0 when the program is correct) are printed but not
# gated; ``failed`` and ``attempted`` carry the latter in the JSON result.
END_TO_END = {
    "runs_per_s": "1/s",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Processes per run that only set up, half before and half after the
# measured process, so that set-up time is a median over the run's span.
SETUP_PROBES = 6
# Tail percentile: the highest one with at least TAIL_BEYOND samples beyond
# it, taken in each of TAIL_WINDOWS runs of consecutive operations (fewer
# when a window would hold under 2 * TAIL_BEYOND); the median over windows
# is reported, so that one slow spell from outside the process does not set
# the tail.
TAIL_BEYOND = 10
TAIL_WINDOWS = 5
CHILD_GRACE_S = 90


def _spawn(workload: str, seed: int, role: str, seconds: float = 0.0, trace: int = 0) -> dict:
    t0_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    cmd = [
        sys.executable, str(WORKER),
        "--role", role,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", str(trace),
        "--t0-ns", str(t0_ns),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=seconds + CHILD_GRACE_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} process for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _probe(args: argparse.Namespace) -> float:
    return _spawn(args.workload, args.seed, "probe")["setup_s"]


def runs_per_s(latencies_ns: list[int], realizations_per_op: int) -> float:
    """Realizations per second at the run's fastest operation.

    Interference from outside the process only ever slows an operation
    down, so the fastest one is the steadiest measure of the program's own
    cost (see END_TO_END).
    """
    return realizations_per_op * 1e9 / min(latencies_ns)


def tail(latencies_ns: list[int]) -> tuple[float, float, int]:
    """(percentile, median over windows of its value in ms, windows); see TAIL_WINDOWS."""
    n = len(latencies_ns)
    windows = min(TAIL_WINDOWS, max(n // (2 * TAIL_BEYOND), 1))
    values = []
    for w in range(windows):
        ordered = sorted(latencies_ns[w * n // windows : (w + 1) * n // windows])
        rank = max(len(ordered) - 1 - TAIL_BEYOND, 0)
        values.append(ordered[rank] / 1e6)
    size = n // windows
    return 100.0 * max(size - TAIL_BEYOND, 1) / size, statistics.median(values), windows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "beamtrain" / "__init__.py").is_file():
        print(f"no beamtrain sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    try:
        if args.trace:
            half = args.seconds / 2
            plain = _spawn(args.workload, args.seed, "measure", half)
            traced = _spawn(args.workload, args.seed, "measure", half, trace=1)
            results = [plain, traced]
        else:
            setup_samples = [_probe(args) for _ in range(SETUP_PROBES // 2)]
            results = [_spawn(args.workload, args.seed, "measure", args.seconds)]
            setup_samples += [_probe(args) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for err in r["errors"]:
            print(f"check failed: {err}", file=sys.stderr)
    main_run = results[0]
    n = len(main_run["latencies_ns"])
    if any(not r["latencies_ns"] for r in results):
        print("benchmark failed: no operation completed", file=sys.stderr)
        return 1
    print(f"workload: {args.workload}  seed: {args.seed}  closed loop, 1 caller")
    print("run_record: " + json.dumps(main_run["run_record"], sort_keys=True))
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} operations)")

    if args.trace:
        layers = dict(results[1]["layers"])
        plain_rate = runs_per_s(plain["latencies_ns"], plain["realizations_per_op"])
        traced_rate = runs_per_s(traced["latencies_ns"], traced["realizations_per_op"])
        layers["trace.overhead_ratio"] = traced_rate / plain_rate
        print(f"traced {len(traced['latencies_ns'])} operations; untraced {n}")
        print(NO_WAITS_NOTE)
        metrics = {
            name: {"value": layers[name], "unit": spec[0]} for name, spec in LAYER_METRICS.items()
        }
    else:
        lat = main_run["latencies_ns"]
        pct, tail_ms, windows = tail(lat)
        values = {
            "runs_per_s": runs_per_s(lat, main_run["realizations_per_op"]),
            "latency_tail_ms": tail_ms,
            "setup_s": statistics.median(setup_samples + [main_run["setup_s"]]),
            "peak_rss_mb": main_run["peak_rss_mb"],
        }
        print(f"latency_tail_ms is p{pct:.2f} ({TAIL_BEYOND} samples beyond it), median over "
              f"{windows} windows of {n} operations")
        print(f"latency_p50_ms = {statistics.median(lat) / 1e6:.6g} ms "
              f"(not gated; median of {n} operations)")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
