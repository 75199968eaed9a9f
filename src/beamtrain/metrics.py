"""Training-quality metrics: power-ratio statistics, empirical CDFs and
the geometric-mean style SNR aggregate used across Monte-Carlo runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "EmpiricalCdf",
    "power_ratio",
    "empirical_cdf",
    "grouped_cdf",
    "aggregate_snr",
]


def power_ratio(field_powers: Sequence[float], preamble_samples: Sequence[complex]) -> np.ndarray:
    """Per-field power ratios gamma = P_train / (3 sigma_prem).

    The AGC budgets for three standard deviations of preamble signal, so
    gamma above one means the field would stress the gain the preamble
    set.  ``sigma_prem`` is the mean squared magnitude of the preamble
    samples (variance about zero, no n-1).
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
        arr = np.sort(np.asarray(self.sorted_values, dtype=float), kind="stable")
        _reject_nans(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "sorted_values", arr)

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """The jump points as two arrays: values and cumulative fractions.

        Each value is the first of its run of equal sorted values, and its
        fraction counts the samples up to the end of the run.
        """
        values, fractions, _ = grouped_cdf(self.sorted_values, [self.sorted_values.size])
        return values, fractions


def _reject_nans(arr: np.ndarray) -> None:
    nans = np.count_nonzero(np.isnan(arr))
    if nans:
        raise ValueError(f"cannot build a CDF from NaN samples: {nans} of {arr.size} are NaN")


def grouped_cdf(
    samples: Sequence[float], sizes: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every group's :meth:`EmpiricalCdf.points`, group after group, and
    each group's count of points, for groups of ``sizes`` consecutive
    samples.  One stable sort orders the samples by group, then value; a
    run of equal values ends at each group's start.  NaN raises ValueError.
    """
    v = np.asarray(samples, dtype=float)
    _reject_nans(v)
    sizes = np.asarray(sizes, dtype=np.intp)
    group = np.repeat(np.arange(sizes.size), sizes)
    v = v[np.lexsort((v, group))]
    # Run bounds: where a value differs from the one before, every group
    # start and the end.
    changes = np.empty(v.size + 1, dtype=bool)
    changes[-1] = True
    np.not_equal(v[1:], v[:-1], out=changes[1:-1])
    starts = np.cumsum(sizes) - sizes
    changes[starts] = True
    bounds = np.flatnonzero(changes)
    owner = group[bounds[:-1]]
    fractions = (bounds[1:] - starts[owner]) / sizes[owner]
    return v[bounds[:-1]], fractions, np.bincount(owner, minlength=sizes.size)


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

