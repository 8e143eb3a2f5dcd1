"""PCA reduction of embedding matrices to a working dimension.

One rule builds a model from the rows' count, mean and centred scatter:
a covariance eigendecomposition with a fixed sign convention, its `eigh`
on one BLAS thread, so two fits on identical data agree bitwise on any
machine. The joint model of several members is built from theirs, and
every member is projected by `apply_pca`. Which members a battery
reduces on their own and which jointly is decided by `battery.reduce_members`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, MutableMapping

import numpy as np

from .corpus import EmbeddingMatrix, PairedCollection, validate_pairing
from .errors import DimensionError
from .sharding import _one_blas_thread


@dataclass(frozen=True)
class PcaModel:
    """Fitted projection: ``mean`` (ambient) and ``components`` (p x
    ambient, orthonormal rows, in order of non-increasing variance)."""

    mean: np.ndarray
    components: np.ndarray

    @property
    def p_ambient(self) -> int:
        return self.components.shape[1]


def fit_pca(m: EmbeddingMatrix, p: int) -> PcaModel:
    """Fit a p-dimensional PCA model on ``m``.

    Requires 1 <= p <= min(n-1, ambient). Component signs are fixed by
    making the largest-magnitude coordinate of each component positive,
    so the fit is deterministic.
    """
    return _model(m.n, *_moments(m.values), p)


def _moments(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mean of the rows of ``values`` and their scatter about it,
    from one centred copy."""
    x = values.copy(order="K")
    mean = x.mean(axis=0)
    x -= mean
    return mean, x.T @ x


def _model(n: int, mean: np.ndarray, scatter: np.ndarray, p: int) -> PcaModel:
    """The p-dimensional model of n rows with this mean and centred scatter."""
    ambient = scatter.shape[0]
    if not 1 <= p <= min(n - 1, ambient):
        raise DimensionError(
            f"target dimension p={p} out of range [1, min(n-1={n - 1}, ambient={ambient})]"
        )
    with _one_blas_thread():  # its bits follow the thread count; the product's do not
        eigvals, eigvecs = np.linalg.eigh(scatter / (n - 1))
    # eigh returns ascending; stable sort keeps tied eigenvalues in input order
    order = np.argsort(-eigvals, kind="stable")[:p]
    components = eigvecs[:, order].T.copy()
    for row in components:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return PcaModel(mean=mean, components=components)


def apply_pca(model: PcaModel, m: EmbeddingMatrix) -> EmbeddingMatrix:
    """Project ``m`` onto the model's components (centered coordinates)."""
    if m.p != model.p_ambient:
        raise DimensionError(
            f"matrix has {m.p} columns but model expects {model.p_ambient}"
        )
    projected = (m.values - model.mean) @ model.components.T
    return EmbeddingMatrix(values=projected, label=m.label)


def joint_width(members: Mapping[str, EmbeddingMatrix]) -> int:
    """The members' common number of columns, which the joint reduction
    needs; DimensionError if they differ."""
    dims = {m.p for m in members.values()}
    if len(dims) != 1:
        raise DimensionError(f"joint reduction needs equal ambient dims, got {sorted(dims)}")
    return dims.pop()


def reduce_jointly(
    members: MutableMapping[str, EmbeddingMatrix], p: int,
    temperatures: Mapping[str, float | None],
) -> PairedCollection:
    """Reduce the members to one common p-dimensional space, taking them
    over (``members`` is empty on return). The model is that of their rows
    stacked, with no stacked copy: its scatter is the sum of the members'
    plus sum_m n_m (mean_m - mean)(mean_m - mean)^T (Chan, Golub &
    LeVeque, 1979)."""
    ambient = joint_width(members)
    roles = sorted(members)
    counts = np.array([members[role].n for role in roles])
    means, scatter = np.empty((len(roles), ambient)), np.zeros((ambient, ambient))
    for i, role in enumerate(roles):
        means[i], member_scatter = _moments(members[role].values)
        scatter += member_scatter
    n = int(counts.sum())
    mean = counts @ means / n
    dev = means - mean
    scatter += (dev.T * counts) @ dev
    model = _model(n, mean, scatter, p)
    reduced = {role: apply_pca(model, members.pop(role)) for role in roles}
    return validate_pairing(reduced, temperatures=temperatures)
