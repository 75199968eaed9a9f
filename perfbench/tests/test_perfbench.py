"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import beamtrain.harness  # noqa: E402
import beamtrain.protocols  # noqa: E402

HELD_OUT_SEED = 424242


def _bench(cwd: Path, workload: str, trace: int, seconds: float = 1.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _copy_checkout(dest: Path, with_src: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_benchmark_json_matches_the_metric_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in tracing.LAYER_METRICS.items()
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.END_TO_END if trace == 0 else {
        name: spec[0] for name, spec in tracing.LAYER_METRICS.items()
    }
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(l.startswith(f"{name} = ") and l.endswith(f" {unit}") for l in lines), name
    assert any(l.startswith("fail_ratio = 0 ") for l in lines)
    assert any(l.startswith("run_record: ") for l in lines)
    if trace:
        assert tracing.NO_WAITS_NOTE in lines
        metrics = result["metrics"]
        untouched = "protocols" if workload == "power_var" else "packets"
        assert metrics[f"{untouched}.self_ms_per_op"]["value"] == 0.0
        assert metrics["trace.span_coverage"]["value"] > 0.9
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert any(l.startswith("latency_p50_ms = ") for l in lines)


def _campaign_bytes(cls, out: Path, tracer=None) -> dict[str, bytes]:
    w = cls(HELD_OUT_SEED, out)
    if tracer is not None:
        tracer.op_id = 0
    assert w.op(w.inputs(0)) == 0
    return {name: (out / name).read_bytes() for name in w.csv_names}


def test_tracing_does_not_change_results(tmp_path):
    plain = {cls: _campaign_bytes(cls, tmp_path / cls.name / "plain")
             for cls in (workloads.PowerVar, workloads.QuantSweep)}
    mix = workloads.SchemeMix(HELD_OUT_SEED, tmp_path)
    plain_mix = mix.reference_run()

    original_write_csv = beamtrain.harness.write_csv
    original_runners = dict(beamtrain.protocols._RUNNERS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert beamtrain.harness.write_csv is not original_write_csv
        assert all(beamtrain.protocols._RUNNERS[k] is not v for k, v in original_runners.items())
        traced = {cls: _campaign_bytes(cls, tmp_path / cls.name / "traced", tracer)
                  for cls in (workloads.PowerVar, workloads.QuantSweep)}
        traced_mix = mix.reference_run()
    finally:
        tracer.uninstall()

    assert beamtrain.harness.write_csv is original_write_csv
    assert beamtrain.protocols._RUNNERS == original_runners
    assert {tracer.names[i] for i in tracer.span_name} >= {"cli.main", "protocols.run"}
    assert traced == plain
    assert traced_mix == plain_mix


def _perturb(path: Path, row: int, col: int, func) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = func(rows[row][col])
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_perturbed_reference_value_is_a_failed_operation(tmp_path):
    ref = tmp_path / "reference"
    shutil.copytree(workloads.REFERENCE_DIR, ref)
    # A change far below the 1e-9 tolerance still passes.
    _perturb(ref / "scheme_mix.csv", 1, 8, lambda v: repr(float(v) * (1 + 1e-12)))
    w = workloads.SchemeMix(7, tmp_path)
    assert worker.measure(w, 0.2, reference_dir=ref)["failed"] == 0

    _perturb(ref / "scheme_mix.csv", 1, 8, lambda v: repr(float(v) * (1 + 1e-6)))
    result = worker.measure(w, 0.2, reference_dir=ref)
    assert result["failed"] == 1
    assert result["attempted"] > 1
    assert result["errors"][0].startswith("reference: scheme_mix.csv row 1 col 8")


def test_command_exits_nonzero_when_a_check_fails(tmp_path):
    checkout = _copy_checkout(tmp_path)
    _perturb(checkout / "perfbench/reference/quant_sweep.csv", 1, 4, lambda v: str(int(v) + 1))
    proc = _bench(checkout, "quant_sweep", 0, seconds=0.5)
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == 1


def test_command_fails_without_the_library(tmp_path):
    checkout = _copy_checkout(tmp_path, with_src=False)
    proc = _bench(checkout, "scheme_mix", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_held_out_seed_passes_every_invariant(name, tmp_path):
    w = workloads.WORKLOADS[name](HELD_OUT_SEED, tmp_path)
    for index in range(3):
        args = w.inputs(index)
        assert w.check(args, w.op(args)) == []


def test_invariant_checks_catch_bad_outputs(tmp_path):
    w = workloads.QuantSweep(HELD_OUT_SEED, tmp_path)
    assert w.op(w.inputs(0)) == 0
    outputs = w._outputs()
    rows = outputs["quant_sweep.csv"]
    coded_inf = next(i for i, r in enumerate(rows) if r[2] == "inf" and r[3] == "beamcoding")
    rows[coded_inf][5] = str(float(rows[coded_inf][5]) - 1e-9)
    assert any("bits=inf" in e for e in w.check_outputs(outputs))

    mix = workloads.SchemeMix(HELD_OUT_SEED, tmp_path)
    args = mix.inputs(0)
    outcomes = mix.op(args)
    outcomes[0] = outcomes[0].__class__(**{**outcomes[0].__dict__, "training_bits": 0})
    assert any("closed form" in e for e in mix.check(args, outcomes))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    # Five windows of 200: each window's 190th value, median over windows.
    assert run.tail([i * 1_000_000 for i in range(1, 1001)]) == (95.0, 590.0, 5)
    assert run.tail([i * 1_000_000 for i in range(1, 16)])[1:] == (5.0, 1)
    assert run.runs_per_s([2 * 10**9, 10**9, 3 * 10**9], 3) == 3.0
