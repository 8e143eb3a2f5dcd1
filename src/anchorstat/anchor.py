"""Mapping of non-anchor cluster structures onto the anchor dataset.

A partition obtained on a non-anchor dataset induces, for every anchor
row, a center (the mean of anchor rows sharing its cluster) and a
distance to that center. Two such distance vectors over the same anchor
are directly comparable because their i-th entries refer to the same
text.
"""

from __future__ import annotations

import numpy as np

from .corpus import EmbeddingMatrix
from .cluster import Partition
from .errors import PairingError


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


def mapped_distances(anchor: EmbeddingMatrix, part: Partition) -> np.ndarray:
    """Distance from each anchor row to its induced center under ``part``,
    as a read-only flat array. Anchor rows too large for their distances
    to be finite are a PairingError, with no numpy warning before it."""
    with np.errstate(over="ignore", invalid="ignore"):
        centers = mapped_centers(anchor, part)
        dist = np.linalg.norm(anchor.values - centers[part.assignment], axis=1)
    if not np.all(np.isfinite(dist)):
        raise PairingError("distances must be finite and nonnegative")
    dist.setflags(write=False)
    return dist
