"""Campaign outputs held to golden files in ``tests/golden/``.

Integer cells and row counts must match exactly, float cells to a relative
1e-9 (a pure refactor may move the 12th printed digit), and any other cell
as text.  ``tests/golden/regenerate.py`` wrote the files; regenerating
them is a change to this check.
"""

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import pytest

from beamtrain import cli
from beamtrain.experiment import ExperimentConfig
from beamtrain.harness import train_once
from beamtrain.protocols import Scheme

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

CASES = {
    "power_var_default": ("power-var", ("power_var_gamma.csv", "power_var_cdf.csv")),
    "power_var_k3_spread4": ("power-var", ("power_var_gamma.csv", "power_var_cdf.csv")),
    "quant_sweep": ("quant-sweep", ("quant_sweep.csv",)),
}


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _cells_match(actual: str, expected: str) -> bool:
    try:
        return int(actual) == int(expected)
    except ValueError:
        pass
    try:
        a, e = float(actual), float(expected)
    except ValueError:
        return actual == expected
    if math.isnan(e):
        return math.isnan(a)
    return math.isclose(a, e, rel_tol=1e-9, abs_tol=0.0)


def _mismatches(actual: list[list[str]], expected: list[list[str]]) -> list[str]:
    if len(actual) != len(expected):
        return [f"{len(actual)} rows, golden has {len(expected)}"]
    errors = []
    for i, (got, want) in enumerate(zip(actual, expected)):
        if len(got) != len(want) or not all(map(_cells_match, got, want)):
            errors.append(f"row {i}: {got} != {want}")
    return errors


@pytest.mark.parametrize("case", sorted(CASES))
def test_campaign_matches_golden(case, tmp_path):
    command, csv_names = CASES[case]
    case_dir = GOLDEN_DIR / case
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(
            [command, "--config", str(case_dir / "config.txt"), "--out", str(tmp_path)]
        )
    assert status == 0
    for name in csv_names:
        errors = _mismatches(_read_rows(tmp_path / name), _read_rows(case_dir / name))
        assert not errors, f"{case}/{name}: " + "; ".join(errors[:5])


def test_power_var_golden_covers_several_run_indices():
    rows = _read_rows(GOLDEN_DIR / "power_var_default" / "power_var_gamma.csv")
    seed_index = rows[0].index("seed_index")
    assert {r[seed_index] for r in rows[1:]} == {"0", "1"}


def test_train_toy_summaries_match_golden():
    golden = json.loads((GOLDEN_DIR / "train_toy.json").read_text())
    assert sorted(golden) == sorted(s.value for s in Scheme)
    for scheme in Scheme:
        summary, (_, rows) = train_once(ExperimentConfig(), scheme, 1, toy=True)
        want = golden[scheme.value]
        assert len(rows) == want["trace_rows"], scheme
        for key, value in summary.items():
            if isinstance(value, float):
                assert value == pytest.approx(want[key], rel=1e-9, abs=0.0), (scheme, key)
            elif isinstance(value, tuple):
                assert list(value) == want[key], (scheme, key)
            else:
                assert value == want[key], (scheme, key)
