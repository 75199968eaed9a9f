"""Training-quality metrics: power-ratio statistics, empirical CDFs and
the geometric-mean style SNR aggregate used across Monte-Carlo runs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "EmpiricalCdf",
    "power_ratio",
    "empirical_cdf",
    "aggregate_snr",
]


def power_ratio(field_powers: Sequence[float], preamble_samples: Sequence[complex]) -> np.ndarray:
    """Per-field power ratios gamma = P_train / (3 sigma_prem).

    The 3x factor reflects the AGC's habit of budgeting for three standard
    deviations of preamble signal; gamma above one means the field would
    stress the gain setting the preamble established.  ``sigma_prem`` is
    the population mean squared magnitude of the preamble samples
    (variance about zero; no sample-mean subtraction, no n-1).
    """
    samples = np.asarray(preamble_samples)
    if samples.size == 0:
        raise ValueError("preamble is empty")
    sigma = float(np.mean(np.abs(samples) ** 2))
    if sigma <= 0.0:
        raise ValueError("undefined ratio: preamble has zero variance")
    return np.asarray(field_powers, dtype=float) / (3.0 * sigma)


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous empirical CDF, read through its jump points.

    NaN samples are rejected: a CDF over them has no meaning.
    """

    sorted_values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.sort(np.asarray(self.sorted_values, dtype=float))
        # np.sort puts every NaN last.
        if arr.size and math.isnan(arr[-1]):
            nans = np.count_nonzero(np.isnan(arr))
            raise ValueError(f"cannot build a CDF from NaN samples: {nans} of {arr.size} are NaN")
        arr.setflags(write=False)
        object.__setattr__(self, "sorted_values", arr)

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """The jump points as two arrays: values and cumulative fractions.

        Each value is the first of its run of equal sorted values, and its
        fraction counts the samples up to the end of the run.
        """
        v = self.sorted_values
        # Run bounds: where a value differs from the one before, and the end.
        changes = np.empty(v.size + 1, dtype=bool)
        changes[0] = changes[-1] = True
        np.not_equal(v[1:], v[:-1], out=changes[1:-1])
        bounds = np.flatnonzero(changes)
        return v[bounds[:-1]], bounds[1:] / v.size


def empirical_cdf(samples: Sequence[float]) -> EmpiricalCdf:
    """Empirical CDF of the samples; rejects empty input and NaN samples."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot build a CDF from no samples")
    return EmpiricalCdf(arr)


def aggregate_snr(per_run: Sequence[float]) -> float:
    """Aggregate linear SNR: 2**(mean of log2(1 + SNR_i)) - 1.

    The geometric-style mean over capacities keeps a single lucky run from
    dominating the summary.  Inputs are linear (not dB) and must be
    nonnegative.
    """
    snrs = np.asarray(per_run, dtype=float)
    if snrs.size == 0:
        raise ValueError("need at least one run")
    if np.any(snrs < 0):
        raise ValueError("SNR values must be nonnegative")
    return float(2.0 ** np.mean(np.log2(1.0 + snrs)) - 1.0)

