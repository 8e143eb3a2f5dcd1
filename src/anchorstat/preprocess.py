"""PCA reduction of embedding matrices to a working dimension.

The reduction is a plain covariance eigendecomposition with a fixed sign
convention, its `eigh` on one BLAS thread, so that two fits on identical
data agree bitwise on any machine. Which members a battery reduces on
their own and which jointly is decided by `battery.reduce_members`.
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
    return _fit_in_place(m.values.copy(order="K"), p)


def _fit_in_place(x: np.ndarray, p: int) -> PcaModel:
    """Fit the model of ``fit_pca`` on the rows of ``x``, centring ``x``
    in place: the caller hands over an array it no longer needs, so the
    fit holds no second copy of the data."""
    n, ambient = x.shape
    if not 1 <= p <= min(n - 1, ambient):
        raise DimensionError(
            f"target dimension p={p} out of range [1, min(n-1={n - 1}, ambient={ambient})]"
        )
    mean = x.mean(axis=0)
    x -= mean
    cov = x.T @ x / (n - 1)
    with _one_blas_thread():  # its bits follow the thread count; the product's do not
        eigvals, eigvecs = np.linalg.eigh(cov)
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
    over: the model is fitted on their rows stacked in role order, and
    each member leaves ``members`` once its rows are in the stack, so one
    the caller holds nowhere else is freed before the next is copied.

    The stack is centred in place by the fit, so each member's
    coordinates are its rows of it times the components: the bits of
    ``apply_pca`` with the model, whose ``m.values - mean`` is the same
    subtraction.
    """
    ambient = joint_width(members)
    roles = sorted(members)
    stack = np.empty((sum(members[role].n for role in roles), ambient))
    rows, labels, start = {}, {}, 0
    for role in roles:
        m = members.pop(role)
        rows[role], labels[role] = slice(start, start + m.n), m.label
        stack[rows[role]] = m.values
        start += m.n
        del m  # so the last member, too, is freed before the fit
    model = _fit_in_place(stack, p)
    reduced = {
        role: EmbeddingMatrix(values=stack[r] @ model.components.T, label=labels[role])
        for role, r in rows.items()
    }
    return validate_pairing(reduced, temperatures=temperatures)
