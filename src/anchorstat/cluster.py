"""K-means clustering of non-anchor datasets.

Lloyd iterations with k-means++ seeding and best-of-restarts selection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import _require_int, _sample_rows
from .errors import DegeneracyError, ParameterError

RESTARTS = 10  # k-means++ restarts per clustering, read at call time; the lowest WCSS wins
MAX_ITER = 300  # Lloyd passes per restart at most
TOL = 1e-8  # a restart stops once a pass lowers its WCSS by at most this fraction
# entries per block of temporaries that grow with a repeat count (k-means
# restarts, permutation replicates): bounds memory for any count
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class Partition:
    """Assignment of n indices into K clusters; every id in [0, K) occurs."""

    assignment: np.ndarray
    K: int
    wcss: float

    def __post_init__(self):
        arr = np.asarray(self.assignment, dtype=np.intp).copy()
        arr.setflags(write=False)
        if arr.ndim != 1:
            raise ParameterError("assignment must be a flat index vector")
        present = np.unique(arr)
        if present.size and (present[0] < 0 or present[-1] >= self.K):
            raise ParameterError(
                f"cluster ids must lie in [0, {self.K}), got range "
                f"[{present[0]}, {present[-1]}]"
            )
        if present.size != self.K:
            missing = sorted(set(range(self.K)) - set(present.tolist()))
            raise DegeneracyError(f"empty clusters in partition: {missing}")
        object.__setattr__(self, "assignment", arr)

    def __reduce__(self):
        # rebuilt through __init__, so a partition from a worker process
        # is read-only too
        return Partition, (self.assignment, self.K, self.wcss)

    @property
    def n(self) -> int:
        return self.assignment.shape[0]


def _wcss(X: np.ndarray, assignment: np.ndarray, K: int) -> float:
    total = 0.0
    for k in range(K):
        rows = X[assignment == k]
        if rows.size == 0:
            raise ParameterError(f"cluster id {k} is empty in assignment")
        # the sum and division that rows.mean(axis=0) makes, without its wrapper
        total += float(((rows - np.add.reduce(rows, axis=0) / rows.shape[0]) ** 2).sum())
    return total


def kmeans(
    m,
    K: int,
    seed: int = 0,
    debug: bool = False,
) -> Partition:
    """Best-of-restarts Lloyd clustering with k-means++ seeding, on the
    rows of ``m`` as `corpus._sample_rows` reads them.

    Runs ``RESTARTS`` restarts, read at call time. Deterministic given
    (data, K, seed, RESTARTS): restart r draws from its own stream keyed
    by (seed, r), so results do not depend on execution order. Ties in
    point assignment go to the lowest cluster id; restart ties go to the
    lowest restart index.

    All restarts run through one batched Lloyd loop. Everything after a
    restart leaves that loop (exchange rounds, further Lloyd passes and
    the WCSS) depends only on the assignment at which the loop stopped
    it, so it runs once per distinct stopping assignment.
    """
    X = _sample_rows(m)
    n = X.shape[0]
    K, seed = _require_int("K", K), _require_int("seed", seed, 0)
    if not 2 <= K <= n:
        raise ParameterError(f"K={K} out of range [2, n={n}]")
    # K distinct first coordinates already give K distinct rows
    if np.unique(X[:, :1]).shape[0] < K and np.unique(X, axis=0).shape[0] < K:
        raise DegeneracyError(
            f"fewer than K={K} distinct rows; cannot form K non-empty clusters"
        )
    # distances expand as |x|^2 - 2x.c + |c|^2 on rows shifted by X[0], which
    # avoids cancellation on offset data and keeps integer data (and its ties) exact
    Xs = X - X[0]
    XT, xx = np.ascontiguousarray(Xs.T), np.einsum("ij,ij->i", Xs, Xs)
    if not np.all(np.isfinite(xx)):  # so that no distance below is NaN
        raise DegeneracyError("squared distances between rows overflow")
    rngs = [np.random.default_rng([seed, r]) for r in range(RESTARTS)]
    seeds = _kpp_centers(X, K, rngs) - X[0]
    refined: dict[bytes, tuple[float, np.ndarray]] = {}
    best: tuple[float, np.ndarray] | None = None
    for assignment in _lloyd(Xs, XT, xx, K, seeds, MAX_ITER, TOL, debug):
        key = assignment.tobytes()
        if key not in refined:
            for _ in range(8):  # alternate exchanges with fresh Lloyd passes
                assignment, moved = _exchange_refine(XT, xx, assignment, K)
                if not moved:
                    break
                centers = _centers(XT, assignment, np.bincount(assignment, minlength=K))[None]
                assignment = _lloyd(Xs, XT, xx, K, centers, MAX_ITER, TOL, debug)[0]
            refined[key] = (_wcss(X, assignment, K), assignment)
        value, assignment = refined[key]
        if best is None or value < best[0] - 1e-12:
            best = (value, assignment)
    return Partition(assignment=best[1], K=K, wcss=best[0])


def _kpp_centers(X: np.ndarray, K: int, rngs: list[np.random.Generator]) -> np.ndarray:
    """(R, K, p) k-means++ seeds, restart r drawing from ``rngs[r]``.

    Restarts are seeded together in blocks of about _BLOCK_ENTRIES entries
    of their (restarts, n, p) differences to a center.
    """
    n, p = X.shape
    centers = np.empty((len(rngs), K, p))
    step = max(1, _BLOCK_ENTRIES // max(n * p, 1))  # restarts per block
    for lo in range(0, len(rngs), step):
        block, seeds = rngs[lo : lo + step], centers[lo : lo + step]
        seeds[:, 0] = X[[rng.integers(n) for rng in block]]
        closest = ((X - seeds[:, :1]) ** 2).sum(axis=2)
        for k in range(1, K):
            seeds[:, k] = X[_kpp_picks(closest, block)]
            if k + 1 < K:
                np.minimum(closest, ((X - seeds[:, k : k + 1]) ** 2).sum(axis=2), out=closest)
    return centers


def _kpp_picks(closest: np.ndarray, rngs: list[np.random.Generator]) -> list:
    """One row index per row j of the (R, n) squared distances ``closest``,
    drawn from ``rngs[j]`` with weights ``closest[j]``.

    The index and the generator's next state are those of
    ``rng.choice(n, p=closest[j] / total)``, computed as that call computes
    them: the first index at which the normalised cumulative sum of the
    weights exceeds ``rng.random()``.
    """
    n = closest.shape[1]
    total = closest.sum(axis=1)
    if not np.all(np.isfinite(total)):
        raise DegeneracyError("squared distances between rows overflow")
    with np.errstate(invalid="ignore"):  # rows of total 0 are not read
        cdf = np.cumsum(closest / total[:, None], axis=1)
        cdf /= cdf[:, -1:]
    return [
        # a total of 0 is reached only when the squared distances underflow
        # (K distinct rows exist): pick any row
        rng.integers(n) if total[j] <= 0.0 else cdf[j].searchsorted(rng.random(), side="right")
        for j, rng in enumerate(rngs)
    ]


def _sq_dists(XT: np.ndarray, xx: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, K) squared distances of the columns of XT (squared norms xx) to the centers."""
    cc = np.einsum("ij,ij->i", centers, centers)
    d2 = XT.T @ centers.T
    d2 *= 2.0
    np.subtract(xx[:, None], d2, out=d2)
    d2 += cc
    return np.maximum(d2, 0.0, out=d2)


def _centers(XT: np.ndarray, assignment: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(..., K, p) cluster means of each (..., n) assignment with (..., K)
    cluster sizes ``counts``, by indicator products."""
    members = (assignment[..., None, :] == np.arange(counts.shape[-1])[:, None]).astype(float)
    return (members @ XT.T) / counts[..., None]


def _repair_empty(assignment: np.ndarray, d2: np.ndarray, K: int) -> None:
    """Fill empty clusters in place: promote the point farthest from its center."""
    n = assignment.shape[0]
    for k in np.flatnonzero(np.bincount(assignment, minlength=K) == 0):
        dist_own = d2[np.arange(n), assignment]
        counts = np.bincount(assignment, minlength=K)
        movable = counts[assignment] > 1
        candidates = np.where(movable, dist_own, -np.inf)
        assignment[int(np.argmax(candidates))] = k


def _lloyd(
    Xs: np.ndarray,
    XT: np.ndarray,
    xx: np.ndarray,
    K: int,
    centers: np.ndarray,
    max_iter: int,
    tol: float,
    debug: bool,
) -> np.ndarray:
    """Lloyd iterations of R restarts at once from (R, K, p) centers.

    Returns the (R, n) final assignments. Each restart keeps its own
    relative ``tol`` stop, ``debug`` monotonicity check and empty-cluster
    repair, and leaves the active set once it stops.
    """
    n, p = Xs.shape
    R = centers.shape[0]
    final = np.empty((R, n), dtype=np.intp)
    active = np.arange(R)
    prev = np.full(R, np.nan)  # no objective yet: the first pass stops no restart
    step = max(1, _BLOCK_ENTRIES // max(n * p, 1))  # restarts per residual block
    residuals = np.empty((min(R, step), n, p))
    for it in range(max_iter):
        live = active.shape[0]
        d2 = _sq_dists(XT, xx, centers.reshape(live * K, p)).reshape(n, live, K)
        if K == 2:
            # one comparison, which numpy runs several times faster than an
            # argmin over rows of two; a tie goes to cluster 0, as in argmin
            # (which would differ only on a NaN distance)
            assignment = (d2[:, :, 1] < d2[:, :, 0]).T.astype(np.intp, order="C")
        else:
            # argmin takes the lowest id on ties
            assignment = np.ascontiguousarray(np.argmin(d2, axis=2).T)
        # restart r's cluster k is row r*K + k of the stacked centers
        offsets = K * np.arange(live)[:, None]
        counts = np.bincount((assignment + offsets).ravel(), minlength=live * K).reshape(live, K)
        if not counts.all():
            for j in np.flatnonzero((counts == 0).any(axis=1)):
                _repair_empty(assignment[j], d2[:, j], K)
                counts[j] = np.bincount(assignment[j], minlength=K)
        del d2  # freed before the indicator products of _centers
        centers = _centers(XT, assignment, counts)
        current = np.empty(live)
        for s in range(0, live, step):
            res = residuals[: min(step, live - s)]
            # the ids are in range by construction; mode="raise" would buffer out
            np.take(centers.reshape(live * K, p), assignment[s : s + step] + offsets[s : s + step],
                    axis=0, out=res, mode="clip")
            np.subtract(Xs, res, out=res)
            current[s : s + step] = np.einsum("rij,rij->r", res, res)
        if debug and np.any(current > prev + 1e-9):
            r = int(np.argmax(current > prev + 1e-9))
            raise AssertionError(f"Lloyd objective increased: {prev[r]} -> {current[r]}")
        done = prev - current <= tol * np.maximum(prev, 1e-300)
        if it + 1 == max_iter:
            done[:] = True
        if done.any():
            final[active[done]] = assignment[done]
            if done.all():
                break
            keep = ~done
            active, current, centers = active[keep], current[keep], centers[keep]
        prev = current
        del assignment  # freed before the next pass's assignment is built
    return final


def _exchange_refine(
    XT: np.ndarray, xx: np.ndarray, assignment: np.ndarray, K: int
) -> tuple[np.ndarray, bool]:
    """Greedy single-point moves with exact objective deltas (Hartigan
    style); escapes fixed points of the assign/update alternation. A move
    updates two centers in O(p) and their distance columns by GEMV."""
    n = XT.shape[1]
    firsts = K * np.arange(n)  # flat index of each row's first column in an (n, K) array
    assignment = assignment.copy()
    counts = np.bincount(assignment, minlength=K).astype(float)
    centers = _centers(XT, assignment, counts)
    d2 = _sq_dists(XT, xx, centers)
    cost_add = counts / (counts + 1) * d2
    moved_any = False
    for _ in range(n * K):
        own = firsts + assignment  # flat index of each row's own cluster
        gain_remove = (counts / np.maximum(counts - 1, 1))[assignment] * d2.take(own)
        gain_remove[(counts <= 1)[assignment]] = -np.inf  # never empty a cluster
        delta = gain_remove[:, None] - cost_add
        delta.put(own, -np.inf)
        best = int(delta.argmax())
        if delta.item(best) <= 1e-12:
            break
        i, b = divmod(best, K)
        s = assignment[i]
        centers[s] = (counts[s] * centers[s] - XT[:, i]) / (counts[s] - 1)
        centers[b] = (counts[b] * centers[b] + XT[:, i]) / (counts[b] + 1)
        counts[[s, b]] += (-1, 1)
        assignment[i] = b
        for k in (s, b):
            d2[:, k] = np.maximum(xx - 2.0 * (centers[k] @ XT) + centers[k] @ centers[k], 0.0)
            cost_add[:, k] = counts[k] / (counts[k] + 1) * d2[:, k]
        moved_any = True
    return assignment, moved_any
