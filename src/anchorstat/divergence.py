"""Distributional diagnostics between two mapped-distance samples."""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

BINS = 50  # shared equal-width bins over the pooled range
SMOOTHING = 0.5  # pseudo-count added to every bin of both histograms


def _as_sample(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float).ravel()
    if arr.size == 0:
        raise ParameterError("sample must be non-empty")
    return arr


def wasserstein1(a, b) -> float:
    """Exact 1-D order-1 transport distance between equal-size samples:
    the mean absolute difference of the sorted samples."""
    x = _as_sample(a)
    y = _as_sample(b)
    if x.size != y.size:
        raise ParameterError(
            f"paired samples must have equal sizes, got {x.size} and {y.size}"
        )
    return float(np.mean(np.abs(np.sort(x) - np.sort(y))))


def kl_divergence(a, b) -> float:
    """Binned Kullback-Leibler divergence KL(a || b).

    Both samples are histogrammed on ``BINS`` shared equal-width bins
    spanning their pooled range; ``SMOOTHING`` pseudo-counts per bin keep
    the reference strictly positive. If every value in both samples is
    identical the range is degenerate and the estimate is 0.
    """
    x = _as_sample(a)
    y = _as_sample(b)
    lo = min(x.min(), y.min())
    hi = max(x.max(), y.max())
    if lo == hi:
        return 0.0
    edges = np.linspace(lo, hi, BINS + 1)
    px, _ = np.histogram(x, bins=edges)
    qy, _ = np.histogram(y, bins=edges)
    p = (px + SMOOTHING) / (px.sum() + SMOOTHING * BINS)
    q = (qy + SMOOTHING) / (qy.sum() + SMOOTHING * BINS)
    return float(np.sum(p * np.log(p / q)))
