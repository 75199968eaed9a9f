"""Training-quality metrics: per-group empirical CDFs and the
geometric-mean style SNR aggregate used across Monte-Carlo runs."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "grouped_cdf",
    "aggregate_snr",
]


def grouped_cdf(
    samples: Sequence[float], sizes: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The right-continuous empirical CDF of each group of ``sizes``
    consecutive samples, read through its jump points.

    Returns the jump values and their cumulative fractions, group after
    group, and each group's count of points.  Each value is the first of
    its run of equal sorted values, and its fraction counts the group's
    samples up to the end of the run.  One stable sort orders the samples
    by group, then value; a run of equal values ends at each group's
    start.  NaN samples raise ValueError: a CDF over them has no meaning.
    """
    v = np.asarray(samples, dtype=float)
    nans = np.count_nonzero(np.isnan(v))
    if nans:
        raise ValueError(f"cannot build a CDF from NaN samples: {nans} of {v.size} are NaN")
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

