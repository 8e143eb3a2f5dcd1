"""Reference computations the tests check the package against: the
exhaustive-search k-means oracle for small instances (the globally
WCSS-optimal partition), the direct PCA fit on one matrix and on the
members' rows stacked, and the W1 distance as a transport linear
program."""

from typing import Iterator

import numpy as np
from scipy.optimize import linprog

from anchorstat.cluster import Partition
from anchorstat.corpus import _sample_rows as _values
from anchorstat.errors import GuardError, ParameterError
from anchorstat.sharding import _one_blas_thread

BRUTE_FORCE_MAX_N = 12


def _partitions_into_k_blocks(n: int, K: int) -> Iterator[np.ndarray]:
    """Yield every assignment of n items into exactly K non-empty blocks,
    in canonical (restricted-growth) form."""
    a = np.zeros(n, dtype=np.intp)

    def rec(i: int, used: int):
        if i == n:
            if used == K:
                yield a.copy()
            return
        # cannot reach K blocks if too few items remain
        if used + (n - i) < K:
            return
        for b in range(min(used + 1, K)):
            a[i] = b
            yield from rec(i + 1, max(used, b + 1))

    yield from rec(1, 1)  # item 0 is always in block 0


def brute_force_partition(m, K: int) -> Partition:
    """Globally WCSS-optimal partition by exhaustive enumeration.

    Guarded to n <= 12; intended as a test oracle, not a clustering
    method.
    """
    X = _values(m)
    n = X.shape[0]
    if n > BRUTE_FORCE_MAX_N:
        raise GuardError(
            f"exhaustive search guarded to n <= {BRUTE_FORCE_MAX_N}, got n={n}"
        )
    if not 2 <= K <= n:
        raise ParameterError(f"K={K} out of range [2, n={n}]")
    best_val = np.inf
    best_assign: np.ndarray | None = None
    for assign in _partitions_into_k_blocks(n, K):
        total = 0.0
        for k in range(K):
            rows = X[assign == k]
            center = rows.mean(axis=0)
            total += float(((rows - center) ** 2).sum())
            if total >= best_val:
                break
        if total < best_val:
            best_val = total
            best_assign = assign
    return Partition(assignment=best_assign, K=K, wcss=best_val)


def direct_pca(values: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The (mean, components) of a p-dimensional PCA fit the direct way:
    copy, centre, ``x.T @ x / (n-1)``, `eigh` on one BLAS thread, stable
    descending order, largest-magnitude coordinate of each component
    positive."""
    x = values.copy()
    mean = x.mean(axis=0)
    x -= mean
    with _one_blas_thread():
        eigvals, eigvecs = np.linalg.eigh(x.T @ x / (x.shape[0] - 1))
    components = eigvecs[:, np.argsort(-eigvals, kind="stable")[:p]].T.copy()
    rows = np.arange(p)
    components *= np.sign(components[rows, np.argmax(np.abs(components), axis=1)])[:, None]
    return mean, components


def stacked_reduction(members, p: int) -> dict:
    """Each member's coordinates under the direct PCA fit on every
    member's rows stacked in role order."""
    roles = sorted(members)
    mean, components = direct_pca(np.vstack([members[r].values for r in roles]), p)
    return {r: (members[r].values - mean) @ components.T for r in roles}


def transport_lp(a, b) -> float:
    """Brute-force optimal transport between equal-size samples with
    uniform weights, solved as a linear program over the full plan."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.size
    cost = np.abs(a[:, None] - b[None, :]).ravel()
    A_eq = []
    b_eq = []
    for i in range(n):  # row marginals
        row = np.zeros(n * n)
        row[i * n : (i + 1) * n] = 1.0
        A_eq.append(row)
        b_eq.append(1.0 / n)
    for j in range(n):  # column marginals
        col = np.zeros(n * n)
        col[j::n] = 1.0
        A_eq.append(col)
        b_eq.append(1.0 / n)
    res = linprog(cost, A_eq=np.array(A_eq), b_eq=np.array(b_eq), bounds=(0, None))
    assert res.success
    return res.fun
