"""Campaign outputs held to golden files in ``tests/golden/``.

In the CSVs, integer cells and row counts must match exactly, float cells
to a relative 1e-9 (a pure refactor may move the 12th printed digit), and
any other cell as text.  The JSON files hold every float at full
precision, so their values must match exactly, to the bit.
``tests/golden/regenerate.py`` wrote the files; regenerating them is a
change to this check.
"""

import contextlib
import csv
import importlib.util
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


def _values_match(actual, expected) -> bool:
    """JSON values equal: floats bit for bit (NaN, infinities and the sign
    of zero included), integers, booleans and text exactly, lists and
    objects entry by entry."""
    if isinstance(expected, float) or isinstance(actual, float):
        return type(actual) is type(expected) and actual.hex() == expected.hex()
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(map(_values_match, actual, expected))
        )
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and actual.keys() == expected.keys()
            and all(_values_match(actual[k], expected[k]) for k in expected)
        )
    return type(actual) is type(expected) and actual == expected


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
        summary, (_, block) = train_once(ExperimentConfig(), scheme, 1, toy=True)
        want = golden[scheme.value]
        assert len(block.values) == want["trace_rows"], scheme
        for key, value in summary.items():
            value = list(value) if isinstance(value, tuple) else value
            assert _values_match(value, want[key]), (scheme, key)


def _regenerate_module():
    spec = importlib.util.spec_from_file_location("regenerate", GOLDEN_DIR / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_noisy_scheme_outcomes_match_golden():
    golden = json.loads((GOLDEN_DIR / "scheme_outcomes.json").read_text())
    # The pinned runs must exercise the detection-failure path too.
    assert any(not rec["success"] for runs in golden.values() for rec in runs.values())
    actual = _regenerate_module().scheme_outcomes()
    assert sorted(actual) == sorted(golden)
    for case, runs in golden.items():
        assert sorted(actual[case]) == sorted(s.value for s in Scheme)
        for scheme, want in runs.items():
            got = actual[case][scheme]
            for key in want:
                assert _values_match(got[key], want[key]), (case, scheme, key)
            assert got.keys() == want.keys(), (case, scheme)


def test_golden_value_comparison():
    assert _values_match([1, 2.0, {"a": None}], [1, 2.0, {"a": None}])
    assert not _values_match([1, 2.0], [1, 2.0 * (1 + 2**-52)])
    assert not _values_match([1.0], [1.0 + 1e-6])
    assert not _values_match(1, 2)
    assert not _values_match(True, 1)
    assert not _values_match(1, 1.0) and not _values_match(1.0, 1)
    assert not _values_match(0.0, -0.0)
    assert not _values_match([1.0, 2.0], [1.0])
    assert _values_match(-math.inf, -math.inf)
    assert _values_match(math.nan, math.nan)
