"""Mapping of non-anchor cluster structures onto the anchor dataset.

A partition obtained on a non-anchor dataset induces, for every anchor
row, a center (the mean of anchor rows sharing its cluster) and a
distance to that center. Two such distance sets over the same anchor are
directly comparable because their i-th entries refer to the same text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import EmbeddingMatrix
from .cluster import Partition
from .errors import PairingError


@dataclass(frozen=True)
class MappedDistanceSet:
    """Per-row distances in anchor space induced by one non-anchor partition."""

    distances: np.ndarray
    source: str
    anchor: str
    K: int

    def __post_init__(self):
        arr = np.asarray(self.distances, dtype=float).copy()
        arr.setflags(write=False)
        if arr.ndim != 1:
            raise PairingError("distances must be a flat vector")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise PairingError("distances must be finite and nonnegative")
        object.__setattr__(self, "distances", arr)

    def __reduce__(self):
        # rebuilt through __init__, so a copy from a worker process is
        # read-only too
        return MappedDistanceSet, (self.distances, self.source, self.anchor, self.K)

    @property
    def n(self) -> int:
        return self.distances.shape[0]


def mapped_centers(anchor: EmbeddingMatrix, part: Partition) -> np.ndarray:
    """K centers in anchor space: center k is the mean of anchor rows whose
    index lies in cluster k of ``part``."""
    if part.n != anchor.n:
        raise PairingError(
            f"partition covers {part.n} indices but anchor has {anchor.n} rows"
        )
    centers = np.empty((part.K, anchor.p))
    for k in range(part.K):
        centers[k] = anchor.values[part.assignment == k].mean(axis=0)
    return centers


def mapped_distances(
    anchor: EmbeddingMatrix, part: Partition, source: str = ""
) -> MappedDistanceSet:
    """Distance from each anchor row to its induced center under ``part``."""
    centers = mapped_centers(anchor, part)
    dist = np.linalg.norm(anchor.values - centers[part.assignment], axis=1)
    return MappedDistanceSet(
        distances=dist, source=source, anchor=anchor.label, K=part.K
    )


def paired_differences(a: MappedDistanceSet, b: MappedDistanceSet) -> np.ndarray:
    """Elementwise difference a - b of two distance sets over one anchor,
    as a read-only array. Both sets are finite and nonnegative, so
    |a - b| <= max(a, b) and the difference is finite too."""
    if a.anchor != b.anchor:
        raise PairingError(
            f"distance sets live over different anchors: '{a.anchor}' vs '{b.anchor}'"
        )
    if a.n != b.n:
        raise PairingError(f"distance set lengths differ: {a.n} vs {b.n}")
    diffs = a.distances - b.distances
    diffs.setflags(write=False)
    return diffs
