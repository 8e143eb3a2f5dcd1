"""Skewness-adjusted paired location test under sign-flip permutation,
plus the reference battery of paired and unpaired two-sample tests.

The primary statistic is the modified paired t of Johnson (1978): the
classical paired t plus a third-central-moment correction,

    T = dbar/se + mu3 * ((dbar/var)^2 / 3 + 1/(6*var*n)) / se

with se = sqrt(var/n), var the (n-1)-denominator sample variance and
mu3 = sum((d - dbar)^3) / (n-1). Its null distribution is estimated by
flipping the sign of each paired difference independently.

`anchored_test` maps two partitions onto one anchor and applies it to
the differences of the mapped distances; the partitions are chosen and
clustered elsewhere (`battery.member_partition`), so nothing here
clusters.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping

import numpy as np

from .anchor import mapped_distances
from . import cluster
from .cluster import _BLOCK_ENTRIES, Partition
from .corpus import EmbeddingMatrix, ExperimentGrid, _check_finite, _sample_rows
from .errors import (
    DegeneracyError,
    DegenerateSampleError,
    DimensionError,
    ParameterError,
    VacuousTestError,
)

METHOD_TAGS = ("anchored_johnson", "hotelling_paired", "nploc_mean", "energy")


@dataclass(frozen=True)
class TestReport:
    """Outcome of one hypothesis test at level alpha."""

    method: str
    statistic: float
    p_value: float
    replicates: int
    seed: int
    alpha: float
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHOD_TAGS:
            raise ParameterError(f"unknown method tag '{self.method}'")
        if not 0.0 < self.p_value <= 1.0:
            raise ParameterError(f"p-value out of (0, 1]: {self.p_value}")

    @property
    def reject(self) -> bool:
        return self.p_value < self.alpha

    def to_dict(self) -> dict:
        return {**asdict(self), "reject": self.reject}


def _modified_t(mean, var, mu3, n: int):
    """Modified paired t from the sample moments; zero variance maps to
    +/-inf (the location signal is infinitely strong relative to spread)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        se = np.sqrt(var / n)
        t = mean / se + mu3 * ((mean / var) ** 2 / 3.0 + 1.0 / (6.0 * var * n)) / se
        return np.where(var > 0.0, t, np.sign(mean) * np.inf)


def johnson_t(d) -> float:
    """Modified paired t-statistic of a difference sample; a non-finite
    difference is refused, as the baselines refuse one."""
    arr = np.asarray(d, dtype=float)
    if arr.ndim != 1 or arr.shape[0] < 2:
        raise ParameterError(f"need a flat sample with n >= 2, got shape {arr.shape}")
    _check_finite(arr[:, None], "sample")
    if np.ptp(arr) == 0.0:
        raise DegenerateSampleError(
            "sample variance is zero; the modified t-statistic is undefined"
        )
    n, mean = arr.shape[0], arr.mean()
    dev = arr - mean
    return float(_modified_t(mean, (dev**2).sum() / (n - 1), (dev**3).sum() / (n - 1), n))


def _permutation_pvalue(stat, draw, tie, observed, R: int, seed: int, support=None):
    """Add-one p-value and share of replicates strictly below T_obs.

    ``draw(rng, b)`` gives the next b rows of the replicate stream of
    ``default_rng(seed)``; ``stat`` evaluates them, cut to the columns of
    the boolean mask ``support`` (None: all), in closed form, and gives
    T_obs from the ``observed`` row the same way. A row that ``tie``
    marks, one equal to ``observed`` or to its image under a symmetry of
    the statistic, ties by rule, not by rounding.
    """
    rng = np.random.default_rng(seed)
    rows = _block_rows(observed.shape[0])
    if support is not None and support.all():
        support = None  # every column: the blocks are used as drawn, uncopied
    obs = stat((observed if support is None else observed[support])[None])[0]
    at_least = below = 0
    for start in range(0, R, rows):
        block = draw(rng, min(rows, R - start))
        if support is not None:
            block = block[:, support]
        ties = tie(block)
        stats = stat(block)
        at_least += int(np.count_nonzero((stats >= obs) | ties))
        below += int(np.count_nonzero((stats < obs) & ~ties))
    return (1 + at_least) / (R + 1), below / R


def _block_rows(width: int) -> int:
    """Replicates per block of about _BLOCK_ENTRIES entries; an even count,
    so that no block of sign draws ends inside a 64-bit word."""
    return max(2, (_BLOCK_ENTRIES // width) & ~1)


def _sign_flips(n: int):
    """Draws equal to rng.integers(0, 2, (R, n)) (True keeps a sign), their
    tie test (the identity or the global flip) and the identity.

    That call returns the top bit of each 32-bit half of the generator's raw
    64-bit words, low half first; this draw reads the same bits without the
    int64 arithmetic. After an odd-sized draw the generator keeps the unused
    half for its next 32-bit request, which ``random_raw`` skips, so every
    block but the last holds an even number of draws (``_block_rows``).
    """

    def draw(rng, b):
        # little-endian words, so each word's low half comes first
        words = rng.bit_generator.random_raw((b * n + 1) // 2).astype("<u8", copy=False)
        return (words.view("<u4")[: b * n] >= 1 << 31).reshape(b, n)

    def tie(block):
        return block.all(axis=1) | ~block.any(axis=1)

    return draw, tie, np.ones(n, bool)


def _plus_minus_one(signs: np.ndarray) -> np.ndarray:
    """The +/-1 weights of boolean sign draws, as 2 * signs - 1 gives them;
    formed in int8, where they are exact, and converted to float once."""
    weights = signs.view(np.int8) * np.int8(2)
    weights -= 1
    return weights.astype(float)


def sign_flip_pvalue(
    d,
    R: int = ExperimentGrid.permutations,
    seed: int = 0,
    alpha: float = ExperimentGrid.alpha,
) -> TestReport:
    """Two-sided sign-flip permutation test of zero mean difference.

    Each replicate multiplies every difference by an independent uniform
    +/-1 draw and recomputes the modified t. The add-one estimate
    p = (1 + #{|T_r| >= |T_obs|}) / (R + 1) is returned; the raw
    proportion of replicates strictly below |T_obs| is recorded in the
    report metadata as ``strict_exceedance_proportion``.

    The replicate draws depend only on (seed, R, n), so the p-value is
    reproducible and independent of execution order or thread count. A
    replicate needs only s.d and s.d^3 over the nonzero entries of d.
    """
    ExperimentGrid(alpha=alpha, permutations=R, seed=seed)  # refuses a bad setting
    arr = np.asarray(d, dtype=float)
    t_obs = johnson_t(arr)
    n = arr.shape[0]
    support = arr != 0.0
    powers = np.column_stack([arr, arr**3])[support]
    sum_sq = float(powers[:, 0] @ powers[:, 0])

    def abs_t(signs):
        first, third = (_plus_minus_one(signs) @ powers).T
        mean = first / n
        var = (sum_sq - n * mean**2) / (n - 1)
        mu3 = (third - 3.0 * mean * sum_sq + 2.0 * n * mean**3) / (n - 1)
        return np.abs(_modified_t(mean, var, mu3, n))

    p, strict = _permutation_pvalue(abs_t, *_sign_flips(n), R, seed, support)
    return TestReport(
        method="anchored_johnson",
        statistic=t_obs,
        p_value=p,
        replicates=R,
        seed=seed,
        alpha=alpha,
        metadata={"strict_exceedance_proportion": strict},
    )


def _child_seed(seed: int, *path: int) -> int:
    """Seed of the stream at ``path`` below ``seed``; every seed the package
    derives (test parts, battery cells, Monte Carlo replicates) comes from here."""
    ss = np.random.SeedSequence([int(seed), *[int(x) for x in path]])
    return int(ss.generate_state(1)[0])


def anchored_test(
    anchor: EmbeddingMatrix,
    first: tuple[str, Partition],
    second: tuple[str, Partition],
    R: int = ExperimentGrid.permutations,
    seed: int = 0,
    alpha: float = ExperimentGrid.alpha,
) -> TestReport:
    """Test whether two non-anchor partitions at one K, each given with
    its member's role, describe one community structure over ``anchor``.

    Maps both partitions onto the anchor and applies the sign-flip
    modified-t test to the paired differences of the mapped distances,
    first minus second, with child stream 3 of ``seed``. Which partition
    describes a member is decided by the caller
    (`battery.member_partition`). Partitions at different K raise
    ParameterError; identical mappings leave nothing to test and raise
    VacuousTestError.
    """
    ExperimentGrid(alpha=alpha, permutations=R, seed=seed)  # refuses a bad setting
    (role1, part1), (role2, part2) = first, second
    if part1.K != part2.K:
        raise ParameterError(
            f"partitions of '{role1}' and '{role2}' are at "
            f"different K: {part1.K} vs {part2.K}"
        )
    diff = mapped_distances(anchor, part1) - mapped_distances(anchor, part2)
    if np.all(diff == 0.0):
        raise VacuousTestError(
            "mapped community structures are identical; the paired test is vacuous"
        )
    report = sign_flip_pvalue(diff, R=R, seed=_child_seed(seed, 3), alpha=alpha)
    return replace(report, metadata={
        **report.metadata,
        "K": part1.K,
        "anchor_label": anchor.label,
        "d1_label": role1,
        "d2_label": role2,
        "kmeans_restarts": cluster.RESTARTS,  # read at call time, as kmeans reads it
    })


def _paired_diff_rows(x, y) -> np.ndarray:
    X = _sample_rows(x)
    Y = _sample_rows(y)
    if X.shape != Y.shape:
        raise DimensionError(f"paired matrices must share a shape: {X.shape} vs {Y.shape}")
    if np.all(X == Y):
        raise VacuousTestError("paired rows are identical; the test is vacuous")
    if X.shape[0] <= X.shape[1]:
        raise DegeneracyError(f"need n > p, got n={X.shape[0]}, p={X.shape[1]}")
    return X - Y


def _t2_statistic(D: np.ndarray) -> float:
    n, p = D.shape
    dbar = D.mean(axis=0)
    S = np.atleast_2d(np.cov(D, rowvar=False, ddof=1))
    if np.linalg.matrix_rank(S) < p:
        raise DegeneracyError("difference covariance is singular")
    return float(n * dbar @ np.linalg.solve(S, dbar))


def _log_ratio(num: float, den: float, delta: float) -> float:
    """log(num/den), where delta = num - den is given exactly: log1p near 1."""
    if abs(delta) < 0.5 * den:
        return math.log1p(delta / den)
    return math.log(num / den)


def _stirling_excess(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi)/2); its series from z = 10."""
    if z < 10.0:
        return math.lgamma(z) - ((z - 0.5) * math.log(z) - z + 0.5 * math.log(2 * math.pi))
    w = 1.0 / (z * z)
    series = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
    return sum(c * w**i for i, c in enumerate(series)) / z


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b), by Lentz's method; it converges
    fast for x below the mean (a + 1) / (a + b + 2)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100_000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at ({a}, {b}, {x})")


def _f_tail(dfn: int, dfd: int, f: float) -> float:
    """Survival function of the F(dfn, dfd) distribution at f.

    That is the regularized incomplete beta I_x(a, b), a = dfd/2, b = dfn/2,
    at x = dfd / (dfd + dfn f) (DiDonato & Morris 1992). Its prefactor
    x^a (1-x)^b / B(a, b) is taken in logs in Stirling form,
        sqrt(ab / (2 pi (a+b))) (x(a+b)/a)^a ((1-x)(a+b)/b)^b e^(s(a+b)-s(a)-s(b)),
    s the Stirling excess, so that no large lgamma values cancel; the two
    ratios, (dfd+dfn)/(dfd+dfn f) and f(dfd+dfn)/(dfd+dfn f), go through
    log1p near 1. The continued fraction gives I_x(a, b) for x below the
    mean, and 1 - I_(1-x)(b, a) above it.
    """
    if f <= 0.0:
        return 1.0
    den = dfd + dfn * f
    x, y = dfd / den, dfn * f / den
    if x == 0.0 or y == 0.0:  # f is inf or past the float range at either end
        return float(y == 0.0)
    a, b = 0.5 * dfd, 0.5 * dfn
    log_front = (
        0.5 * math.log(a * b / (2 * math.pi * (a + b)))
        + a * _log_ratio(dfd + dfn, den, dfn * (1.0 - f))
        + b * _log_ratio(f * (dfd + dfn), den, dfd * (f - 1.0))
        + _stirling_excess(a + b) - _stirling_excess(a) - _stirling_excess(b)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front + math.log(_beta_cf(a, b, x) / a))
    return 1.0 - math.exp(log_front + math.log(_beta_cf(b, a, y) / b))


def hotelling_paired(x, y, alpha: float = ExperimentGrid.alpha, seed: int = 0) -> TestReport:
    """Paired multivariate mean test with the exact F reference distribution.

    T^2 = n * dbar' S^-1 dbar on row differences; the p-value comes from
    F = T^2 (n-p) / (p (n-1)) with (p, n-p) degrees of freedom.
    """
    ExperimentGrid(alpha=alpha, seed=seed)  # refuses a bad alpha or seed
    D = _paired_diff_rows(x, y)
    n, p = D.shape
    t2 = _t2_statistic(D)
    f_stat = t2 * (n - p) / (p * (n - 1))
    # an underflowed tail sits at the smallest positive float
    p_value = min(max(_f_tail(p, n - p, f_stat), math.ulp(0.0)), 1.0)
    return TestReport(
        method="hotelling_paired",
        statistic=t2,
        p_value=p_value,
        replicates=0,
        seed=seed,
        alpha=alpha,
        metadata={"f_statistic": f_stat, "df": [p, n - p]},
    )


def nploc_mean_test(
    x,
    y,
    R: int = ExperimentGrid.permutations,
    seed: int = 0,
    alpha: float = ExperimentGrid.alpha,
) -> TestReport:
    """Nonparametric paired mean-location test.

    Uses the same quadratic-form statistic as the paired T^2 but draws
    its null distribution by flipping the sign of whole difference rows,
    with the add-one p-value estimate. A flip leaves G = D'D fixed, so by
    Sherman-Morrison a replicate with mean m has T^2 = n(n-1) a / (1 - n a),
    a = m'G^-1 m, which is +inf when 1 - n a <= 0.
    """
    ExperimentGrid(alpha=alpha, permutations=R, seed=seed)  # refuses a bad setting
    D = _paired_diff_rows(x, y)
    n = D.shape[0]
    obs = _t2_statistic(D)
    chol = np.linalg.cholesky(D.T @ D)
    support = np.any(D != 0.0, axis=1)
    flipped = D[support]

    def t2(signs):
        a = (np.linalg.solve(chol, (_plus_minus_one(signs) @ flipped / n).T) ** 2).sum(0)
        with np.errstate(divide="ignore"):
            return np.where(1.0 - n * a > 0.0, n * (n - 1) * a / (1.0 - n * a), np.inf)

    p_value, _ = _permutation_pvalue(t2, *_sign_flips(n), R, seed, support)
    return TestReport(
        method="nploc_mean",
        statistic=obs,
        p_value=p_value,
        replicates=R,
        seed=seed,
        alpha=alpha,
    )


def _distances(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Euclidean distances between the rows of a and b (of a and a when b
    is None), bit for bit those of scipy's ``cdist``.

    Like its kernel, each entry adds (a_j - b_j)^2 over j = 0, 1, ... in
    order and then takes the root; here one ufunc pass per coordinate over
    a row tile of about _BLOCK_ENTRIES entries. For a with itself only the
    upper half is computed and then mirrored, which is exact because
    (a_j - b_j)^2 == (b_j - a_j)^2.
    """
    a = np.asarray(a, dtype=float)
    symmetric = b is None
    cols = (a if symmetric else np.asarray(b, dtype=float)).T.copy()
    n, m = a.shape[0], cols.shape[1]
    out = np.empty((n, m))
    tile = max(1, _BLOCK_ENTRIES // max(m, 1))
    acc_buf, diff_buf = np.empty((2, tile * m))
    # numpy 2.4 copies a broadcast ufunc's operands through its buffer when
    # a row is shorter than about a third of it (8192 entries by default),
    # which made the subtraction 4x slower; a small buffer spares rows of
    # about 100 entries or more
    bufsize = np.setbufsize(256)
    try:
        for lo in range(0, n, tile):
            hi = min(n, lo + tile)
            first = lo if symmetric else 0
            shape = (hi - lo, m - first)
            acc = acc_buf[: shape[0] * shape[1]].reshape(shape)
            diff = diff_buf[: acc.size].reshape(shape)
            acc.fill(0.0)
            for j, col in enumerate(cols):
                np.subtract(a[lo:hi, j, None], col[first:], out=diff)
                np.multiply(diff, diff, out=diff)
                np.add(acc, diff, out=acc)
            np.sqrt(acc, out=out[lo:hi, first:])
            if symmetric:
                out[hi:, lo:hi] = out[lo:hi, hi:].T
    finally:
        np.setbufsize(bufsize)
    return out


def energy_statistic(x, y) -> float:
    """Two-sample energy statistic with the 1/n^2 within-sample convention.

    (nx ny / (nx+ny)) * (2 mean||x-y|| - mean||x-x'|| - mean||y-y'||),
    where within-sample means run over all ordered pairs including i=j.
    """
    X = _sample_rows(x)
    Y = _sample_rows(y)
    if X.shape[1] != Y.shape[1]:
        raise DimensionError(
            f"samples must share a dimension: {X.shape[1]} vs {Y.shape[1]}"
        )
    nx, ny = X.shape[0], Y.shape[0]
    between = _distances(X, Y).mean()
    within_x = _distances(X).mean()
    within_y = _distances(Y).mean()
    return float(nx * ny / (nx + ny) * (2.0 * between - within_x - within_y))


def energy_test(
    x,
    y,
    R: int = ExperimentGrid.permutations,
    seed: int = 0,
    alpha: float = ExperimentGrid.alpha,
) -> TestReport:
    """Unpaired equal-distribution test via the energy statistic with a
    pooled-relabel permutation null and add-one p-value. A relabelling is
    the count c of x copies of each distinct pooled row; with distances D,
    copies m and r = Dm, the sums are c'Dc, m'Dm - 2r.c + c'Dc and r.c - c'Dc.
    """
    ExperimentGrid(alpha=alpha, permutations=R, seed=seed)  # refuses a bad setting
    X, Y = _sample_rows(x), _sample_rows(y)
    obs = energy_statistic(X, Y)
    nx, ny = X.shape[0], Y.shape[0]
    rows, group, copies = np.unique(
        np.vstack([X, Y]), axis=0, return_inverse=True, return_counts=True
    )
    dmat = _distances(rows)
    reach = dmat @ copies

    def energy(c):
        within_x = np.einsum("ij,ij->i", c @ dmat, c)
        within_y = copies @ reach - 2.0 * (c @ reach) + within_x
        between = c @ reach - within_x
        return nx * ny / (nx + ny) * (2 * between / nx / ny - within_x / nx**2 - within_y / ny**2)

    def relabel(rng, b):  # x-labelled copies of each distinct row, per relabelling
        # shuffled in place: the same draws as b calls of rng.permutation(nx + ny)
        order = np.tile(np.arange(nx + ny), (b, 1))
        firsts = group[rng.permuted(order, axis=1, out=order)[:, :nx]]
        del order  # each index block is freed before the next array is built
        firsts += len(rows) * np.arange(b)[:, None]
        counts = np.bincount(firsts.ravel(), minlength=b * len(rows))
        del firsts
        return counts.reshape(b, len(rows)).astype(float)

    observed = np.bincount(group[:nx], minlength=len(rows)).astype(float)
    mirror = copies - observed

    def tie(c):
        return (c == observed).all(axis=1) | (c == mirror).all(axis=1)

    p_value, _ = _permutation_pvalue(energy, relabel, tie, observed, R, seed)
    return TestReport(
        method="energy",
        statistic=obs,
        p_value=p_value,
        replicates=R,
        seed=seed,
        alpha=alpha,
    )
