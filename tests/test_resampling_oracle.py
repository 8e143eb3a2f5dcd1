"""Differential test of the blocked resampling engine against the replicate
loops it replaced.

The oracles below are the earlier loop implementations of the three
permutation tests, kept here verbatim as references. The engine must give
the same statistics, and the same p-values once the loops count exact ties
by the engine's rule: a replicate that reproduces the data, or its image
under a symmetry of the statistic, ties. Those are sign draws constant on
the nonzero entries, and relabellings that put the same multiset of pooled
rows (or, for equal sizes, the other sample's multiset) in the first
sample. The loops decide such ties by rounding. Where no replicate hits
one, as on the continuous inputs of the grids, the rule changes nothing
and the p-values equal the loops' own.
"""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from anchorstat import stattests
from anchorstat.errors import DegeneracyError
from anchorstat.stattests import _block_rows, energy_test, nploc_mean_test, sign_flip_pvalue


def _johnson_t_rows(X: np.ndarray) -> np.ndarray:
    """Modified paired t of each row of X; rows with zero variance map to
    +/-inf (the location signal is infinitely strong relative to spread)."""
    n = X.shape[1]
    mean = X.mean(axis=1)
    dev = X - mean[:, None]
    var = (dev**2).sum(axis=1) / (n - 1)
    mu3 = (dev**3).sum(axis=1) / (n - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        se = np.sqrt(var / n)
        t = mean / se + mu3 * ((mean / var) ** 2 / 3.0 + 1.0 / (6.0 * var * n)) / se
        t = np.where(var > 0.0, t, np.sign(mean) * np.inf)
    return t


def _sign_matrix(n: int, R: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(R, n)) * 2 - 1


def _t2_statistic(D: np.ndarray) -> float:
    n, p = D.shape
    dbar = D.mean(axis=0)
    S = np.atleast_2d(np.cov(D, rowvar=False, ddof=1))
    if np.linalg.matrix_rank(S) < p:
        raise DegeneracyError("difference covariance is singular")
    return float(n * dbar @ np.linalg.solve(S, dbar))


def _constant_on(signs, support):
    """Sign rows that flip all or none of the entries in ``support``."""
    on = np.atleast_2d(signs)[:, support]
    return on.min(axis=1) == on.max(axis=1)


def _same_rows(pooled, perm, nx):
    """Relabelling that puts the first sample's rows, or (for equal sizes)
    the second sample's, in the first sample, as multisets."""
    _, group = np.unique(pooled, axis=0, return_inverse=True)
    labelled = sorted(group[perm[:nx]])
    return labelled in (sorted(group[:nx]), sorted(group[nx:]))


def oracle_sign_flip(arr, R, seed, tie_rule=False):
    """(statistic, p, strict proportion) of the replicate loop; with
    ``tie_rule`` a replicate whose signs are constant on the nonzero
    entries counts as a tie whatever its rounding."""
    t_obs = float(_johnson_t_rows(arr[None, :])[0])
    signs = _sign_matrix(arr.shape[0], R, seed)
    t_rep = _johnson_t_rows(signs * arr[None, :])
    exceed_mask = np.abs(t_rep) >= abs(t_obs)
    strict_mask = abs(t_obs) > np.abs(t_rep)
    if tie_rule:
        tie = _constant_on(signs, arr != 0.0)
        exceed_mask, strict_mask = exceed_mask | tie, strict_mask & ~tie
    exceed = int(np.sum(exceed_mask))
    p = (1 + exceed) / (R + 1)
    return t_obs, p, float(np.mean(strict_mask))


def oracle_nploc(D, R, seed, tie_rule=False):
    n, p = D.shape
    obs = _t2_statistic(D)
    # flipping signs of whole rows leaves the Gram matrix D'D unchanged,
    # so each replicate only moves the mean: S_r = (D'D - n m m') / (n-1)
    gram = D.T @ D
    signs = _sign_matrix(n, R, seed)
    means = signs @ D / n
    exceed = 0
    for r in range(R):
        m = means[r]
        S = (gram - n * np.outer(m, m)) / (n - 1)
        try:
            stat = float(n * m @ np.linalg.solve(S, m))
        except np.linalg.LinAlgError:
            stat = np.inf  # flip collapsed the spread; maximally extreme
        if stat >= obs or (tie_rule and _constant_on(signs[r], np.any(D != 0.0, axis=1))):
            exceed += 1
    return obs, (1 + exceed) / (R + 1)


def oracle_energy(X, Y, R, seed, tie_rule=False):
    nx, ny = X.shape[0], Y.shape[0]
    pooled = np.vstack([X, Y])
    dmat = cdist(pooled, pooled)
    coef = nx * ny / (nx + ny)

    def stat_from(ix: np.ndarray, iy: np.ndarray) -> float:
        between = dmat[np.ix_(ix, iy)].mean()
        within_x = dmat[np.ix_(ix, ix)].mean()
        within_y = dmat[np.ix_(iy, iy)].mean()
        return float(coef * (2.0 * between - within_x - within_y))

    idx = np.arange(nx + ny)
    obs = stat_from(idx[:nx], idx[nx:])
    rng = np.random.default_rng(seed)
    exceed = 0
    for _ in range(R):
        perm = rng.permutation(idx)
        if stat_from(perm[:nx], perm[nx:]) >= obs or (tie_rule and _same_rows(pooled, perm, nx)):
            exceed += 1
    return obs, (1 + exceed) / (R + 1)


def _replicate_counts(width):
    """R = 1, below one block, exactly one block, and not a block multiple,
    for the engine's blocks of replicates of ``width`` entries."""
    rows = _block_rows(width)
    return sorted({1, max(2, rows // 3), rows, 2 * rows + 7})


SIGN_GRID = [(n, shift, seed) for n in (2, 7, 30, 300, 301) for shift in (0.0, 0.4)
             for seed in (0, 1)]


@pytest.mark.parametrize("n,shift,seed", SIGN_GRID)
def test_sign_flip_matches_loop(n, shift, seed):
    rng = np.random.default_rng(1000 + n + seed)
    d = rng.normal(size=n) + shift
    for R in _replicate_counts(n):
        report = sign_flip_pvalue(d, R=R, seed=seed)
        t_obs, p, strict = oracle_sign_flip(d, R, seed, tie_rule=True)
        assert report.statistic == t_obs
        assert (report.p_value, report.metadata["strict_exceedance_proportion"]) == (p, strict)


def _zero_heavy(n, nonzero, seed):
    rng = np.random.default_rng(seed)
    d = np.zeros(n)
    d[rng.choice(n, size=nonzero, replace=False)] = rng.normal(size=nonzero) + 0.3
    return d


ZERO_GRID = [(n, nonzero, seed) for n in (20, 300, 301) for nonzero in (2, 3, 5, n // 4)
             for seed in range(4)]


@pytest.mark.parametrize("n,nonzero,seed", ZERO_GRID)
def test_sign_flip_zero_heavy_matches_loop(n, nonzero, seed):
    d = _zero_heavy(n, nonzero, seed)
    for R in (99, 999):
        report = sign_flip_pvalue(d, R=R, seed=seed)
        t_obs, p, strict = oracle_sign_flip(d, R, seed, tie_rule=True)
        assert report.statistic == t_obs
        assert (report.p_value, report.metadata["strict_exceedance_proportion"]) == (p, strict)


NPLOC_GRID = [(n, p, seed) for n, p in ((6, 1), (21, 2), (40, 3), (301, 4), (300, 5))
              for seed in (0, 1, 2)]


@pytest.mark.parametrize("n,p,seed", NPLOC_GRID)
def test_nploc_matches_loop(n, p, seed):
    rng = np.random.default_rng(2000 + 7 * n + p + seed)
    x = rng.normal(size=(n, p)) + 0.15
    y = rng.normal(size=(n, p))
    for R in _replicate_counts(n)[:3] + [999]:
        report = nploc_mean_test(x, y, R=R, seed=seed)
        obs, pv = oracle_nploc(x - y, R, seed, tie_rule=True)
        assert (report.statistic, report.p_value) == (obs, pv)


NPLOC_ZERO_GRID = [(21, 2, 5, 0), (40, 3, 1, 1), (300, 5, 150, 2), (301, 4, 290, 0)]


@pytest.mark.parametrize("n,p,zero,seed", NPLOC_ZERO_GRID)
def test_nploc_with_zero_rows_matches_loop(n, p, zero, seed):
    # rows where x equals y are left out of the flips: the masked-support path
    rng = np.random.default_rng(4000 + 7 * n + p + seed)
    x = rng.normal(size=(n, p)) + 0.15
    y = rng.normal(size=(n, p))
    same = rng.choice(n, size=zero, replace=False)
    y[same] = x[same]
    for R in _replicate_counts(n)[:3] + [999]:
        report = nploc_mean_test(x, y, R=R, seed=seed)
        obs, pv = oracle_nploc(x - y, R, seed, tie_rule=True)
        assert (report.statistic, report.p_value) == (obs, pv)


ENERGY_GRID = [(nx, ny, dup, seed)
               for nx, ny in ((1, 2), (3, 3), (7, 12), (20, 33), (150, 150), (151, 90))
               for dup in (False, True) for seed in (0, 1)]


# replicates per energy block here: the oracle loop runs one replicate at
# a time, so small blocks let small R cross the block boundaries
ENERGY_BLOCK_ROWS = 32


@pytest.mark.parametrize("nx,ny,dup,seed", ENERGY_GRID)
def test_energy_matches_loop(nx, ny, dup, seed, monkeypatch):
    rng = np.random.default_rng(3000 + nx + ny + seed)
    X = rng.normal(size=(nx, 2))
    Y = rng.normal(size=(ny, 2)) + 0.2
    if dup:  # pooled sample with repeated rows, within and across the samples
        X[-1] = X[0]
        Y[: ny // 2] = X[np.arange(ny // 2) % nx]
    width = np.unique(np.vstack([X, Y]), axis=0).shape[0]  # distinct pooled rows
    monkeypatch.setattr(stattests, "_BLOCK_ENTRIES", ENERGY_BLOCK_ROWS * width)
    for R in _replicate_counts(width) + [999]:
        report = energy_test(X, Y, R=R, seed=seed)
        obs, p = oracle_energy(X, Y, R, seed, tie_rule=True)
        assert (report.statistic, report.p_value) == (obs, p)
