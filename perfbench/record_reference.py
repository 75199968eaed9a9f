"""Record the reference outputs that every benchmark run compares against.

    python3 perfbench/record_reference.py

Runs each workload's reference operation (seed workloads.REF_SEED) and
writes its outputs to perfbench/reference/.  Re-recording changes what the
benchmark accepts as correct: do it only when outputs are meant to change,
and say why in the change that does it.
"""

from __future__ import annotations

import csv
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for name, cls in workloads.WORKLOADS.items():
            outputs, errors = cls(workloads.REF_SEED, Path(tmp)).reference_run()
            if errors:
                print(f"{name}: outputs fail their checks: {errors}", file=sys.stderr)
                return 1
            for filename, rows in outputs.items():
                with open(workloads.REFERENCE_DIR / filename, "w", newline="") as fh:
                    csv.writer(fh, lineterminator="\n").writerows(rows)
                print(f"wrote {workloads.REFERENCE_DIR / filename}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
