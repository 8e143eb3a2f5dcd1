"""Differential test of k-means against the loops it replaced.

The oracles below are the earlier implementations of ``kmeans`` and its
helpers, kept here verbatim as references. They build (n, K, p)
difference tensors and recompute every center after each exchange move.
``kmeans`` computes distances by GEMM on shifted rows and updates two
centers per move; it must return the same assignment and the same
reported WCSS on every case.
"""

import numpy as np
import pytest

from anchorstat import cluster
from anchorstat.cluster import Partition, _wcss
from anchorstat.corpus import _sample_rows as _values
from anchorstat.errors import DegeneracyError, ParameterError
from anchorstat.synth import ScenarioConfig, generate_battery_quad, generate_null_triple
from kmeans_restarts import kmeans_with_restarts


def oracle_kmeans(
    m,
    K: int,
    seed: int = 0,
    restarts: int = 10,
    max_iter: int = 300,
    tol: float = 1e-8,
    debug: bool = False,
) -> Partition:
    """Best-of-restarts Lloyd clustering with k-means++ seeding.

    Deterministic given (data, K, seed, restarts): restart r draws from
    its own stream keyed by (seed, r), so results do not depend on
    execution order. Ties in point assignment go to the lowest cluster
    id; restart ties go to the lowest restart index.
    """
    X = _values(m)
    n = X.shape[0]
    if not 2 <= K <= n:
        raise ParameterError(f"K={K} out of range [2, n={n}]")
    if restarts < 1:
        raise ParameterError(f"restarts must be >= 1, got {restarts}")
    if np.unique(X, axis=0).shape[0] < K:
        raise DegeneracyError(
            f"fewer than K={K} distinct rows; cannot form K non-empty clusters"
        )
    best: tuple[float, np.ndarray] | None = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        assignment, value = _lloyd(X, K, rng, max_iter, tol, debug)
        if best is None or value < best[0] - 1e-12:
            best = (value, assignment)
    assignment = best[1]
    # report the recomputed objective of the final assignment
    part = Partition(assignment=assignment, K=K, wcss=0.0)
    return Partition(assignment=assignment, K=K, wcss=_wcss(X, part.assignment, K))


def _kpp_init(X: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((K, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    closest = ((X - centers[0]) ** 2).sum(axis=1)
    for k in range(1, K):
        total = closest.sum()
        if total <= 0.0:
            # all remaining mass on chosen centers; pick any unchosen distinct row
            centers[k] = X[rng.integers(n)]
            continue
        probs = closest / total
        idx = rng.choice(n, p=probs)
        centers[k] = X[idx]
        closest = np.minimum(closest, ((X - centers[k]) ** 2).sum(axis=1))
    return centers


def _lloyd_iterations(
    X: np.ndarray,
    K: int,
    centers: np.ndarray,
    max_iter: int,
    tol: float,
    debug: bool,
) -> np.ndarray:
    n = X.shape[0]
    centers = centers.copy()
    prev = np.inf
    assignment = np.zeros(n, dtype=np.intp)
    for _ in range(max_iter):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assignment = np.argmin(d2, axis=1)  # argmin takes the lowest id on ties
        # repair empty clusters: promote the point farthest from its center
        for k in range(K):
            if not np.any(assignment == k):
                dist_own = d2[np.arange(n), assignment]
                counts = np.bincount(assignment, minlength=K)
                movable = counts[assignment] > 1
                candidates = np.where(movable, dist_own, -np.inf)
                far = int(np.argmax(candidates))
                assignment[far] = k
                centers[k] = X[far]
        for k in range(K):
            centers[k] = X[assignment == k].mean(axis=0)
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        current = float(d2[np.arange(n), assignment].sum())
        if debug and current > prev + 1e-9:
            raise AssertionError(f"Lloyd objective increased: {prev} -> {current}")
        if np.isfinite(prev) and prev - current <= tol * max(prev, 1e-300):
            break
        prev = current
    return assignment


def _exchange_refine(X: np.ndarray, assignment: np.ndarray, K: int) -> tuple[np.ndarray, bool]:
    """Greedy single-point moves with exact objective deltas (Hartigan
    style); escapes fixed points of the assign/update alternation."""
    n = X.shape[0]
    assignment = assignment.copy()
    moved_any = False
    for _ in range(n * K):
        counts = np.bincount(assignment, minlength=K).astype(float)
        centers = np.array([X[assignment == k].mean(axis=0) for k in range(K)])
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        own = assignment
        gain_remove = counts[own] / np.maximum(counts[own] - 1, 1) * d2[np.arange(n), own]
        cost_add = counts[None, :] / (counts[None, :] + 1) * d2
        delta = gain_remove[:, None] - cost_add
        delta[np.arange(n), own] = -np.inf
        delta[counts[own] <= 1, :] = -np.inf  # never empty a cluster
        i, b = np.unravel_index(np.argmax(delta), delta.shape)
        if delta[i, b] <= 1e-12:
            break
        assignment[i] = b
        moved_any = True
    return assignment, moved_any


def _lloyd(
    X: np.ndarray,
    K: int,
    rng: np.random.Generator,
    max_iter: int,
    tol: float,
    debug: bool,
) -> tuple[np.ndarray, float]:
    assignment = _lloyd_iterations(X, K, _kpp_init(X, K, rng), max_iter, tol, debug)
    for _ in range(8):  # alternate exchanges with fresh Lloyd passes
        assignment, moved = _exchange_refine(X, assignment, K)
        if not moved:
            break
        centers = np.array([X[assignment == k].mean(axis=0) for k in range(K)])
        assignment = _lloyd_iterations(X, K, centers, max_iter, tol, debug)
    value = 0.0
    for k in range(K):
        rows = X[assignment == k]
        value += float(((rows - rows.mean(axis=0)) ** 2).sum())
    return assignment, value


def _assert_same(X, K, restarts, **kw):
    want = oracle_kmeans(X, K, restarts=restarts, **kw)
    got = kmeans_with_restarts(restarts, X, K, **kw)
    np.testing.assert_array_equal(got.assignment, want.assignment)
    assert got.wcss == want.wcss


def _small_case(case: int):
    """Random small instance; odd cases are integer-valued, so they carry
    exact distance ties and duplicate rows."""
    rng = np.random.default_rng([17, case])
    n = int(rng.integers(4, 40))
    p = int(rng.integers(1, 6))
    if case % 2:
        X = rng.integers(-3, 4, size=(n, p)).astype(float)
    else:
        X = rng.normal(size=(n, p)) * rng.choice([0.1, 1.0, 10.0])
    distinct = np.unique(X, axis=0).shape[0]
    K = int(rng.integers(2, 7))
    return X, min(K, distinct), int(rng.integers(0, 1000)), int(rng.integers(1, 4))


SMALL_CASES = range(300)


@pytest.mark.parametrize("block", range(10))
def test_small_grid_matches_oracle(block):
    for case in SMALL_CASES[block::10]:
        X, K, seed, restarts = _small_case(case)
        if K < 2:
            continue
        _assert_same(X, K, seed=seed, restarts=restarts)


@pytest.mark.parametrize("block", range(10))
def test_offset_grid_matches_oracle(block):
    # a +1e6 offset leaves the partition of the unshifted data unchanged
    for case in SMALL_CASES[block::10]:
        X, K, seed, restarts = _small_case(case)
        if K < 2:
            continue
        _assert_same(X + 1e6, K, seed=seed, restarts=restarts)
        got = kmeans_with_restarts(restarts, X + 1e6, K, seed=seed)
        want = oracle_kmeans(X, K, seed=seed, restarts=restarts)
        np.testing.assert_array_equal(got.assignment, want.assignment)


@pytest.mark.parametrize("case", range(0, 300, 30))
def test_debug_grid_matches_oracle(case):
    X, K, seed, restarts = _small_case(case)
    if K < 2:
        pytest.skip("fewer than two distinct rows")
    _assert_same(X, K, seed=seed, restarts=restarts, debug=True)


@pytest.mark.parametrize("K", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_battery_scale_matches_oracle(K, seed):
    cfg = ScenarioConfig(n=300, dim=2, K_true=2, community_separation=8.0, seed=seed)
    for members in (generate_null_triple(cfg), generate_battery_quad(cfg)):
        for role in members.nonanchor_roles:
            _assert_same(members.member(role), K, seed=seed, restarts=3)


def test_embedding_scale_matches_oracle():
    cfg = ScenarioConfig(n=800, dim=32, K_true=3, community_separation=3.0, seed=9)
    X = generate_null_triple(cfg).member("nonanchor_1").values
    X = X / np.linalg.norm(X, axis=1, keepdims=True)
    _assert_same(X, 5, seed=4, restarts=2)


@pytest.mark.parametrize("case", range(80))
def test_exchange_with_singleton_clusters_matches_oracle(case):
    """The exchange step alone, from a start with K - 1 singleton clusters.

    A singleton sits exactly on its own center, so its removal gain is 0;
    masking it must not turn into NaN and steal the argmax. On continuous
    data the moves must equal the oracle's. On integer data two moves can
    have exactly equal gains, which both versions order by their own
    rounding, so there the result must be a point the oracle cannot improve.
    """
    rng = np.random.default_rng([23, case])
    n, p, K = int(rng.integers(6, 30)), int(rng.integers(1, 4)), int(rng.integers(3, 6))
    if case % 2:
        X = rng.integers(-3, 4, size=(n, p)).astype(float)
    else:
        X = rng.normal(size=(n, p))
    assignment = np.concatenate([np.arange(K), np.zeros(n - K, dtype=np.intp)])
    assignment = assignment[rng.permutation(n)]
    Xs = X - X[0]
    XT, xx = np.ascontiguousarray(Xs.T), np.einsum("ij,ij->i", Xs, Xs)
    got, got_moved = cluster._exchange_refine(XT, xx, assignment, K)
    assert np.bincount(got, minlength=K).min() >= 1
    if case % 2:
        assert not _exchange_refine(X, got, K)[1]
    else:
        want, want_moved = _exchange_refine(X, assignment, K)
        np.testing.assert_array_equal(got, want)
        assert got_moved == want_moved


# Batched restarts: ``kmeans`` runs the first Lloyd pass of every restart in
# one loop and refines each distinct first-pass assignment once.


def _first_pass(X, K, seed, restarts, centers=None, max_iter=300, tol=1e-8, debug=False):
    """Batched first Lloyd pass of ``kmeans`` and the oracle's, restart by restart."""
    Xs = X - X[0]
    XT, xx = np.ascontiguousarray(Xs.T), np.einsum("ij,ij->i", Xs, Xs)
    if centers is None:
        rngs = [np.random.default_rng([seed, r]) for r in range(restarts)]
        centers = cluster._kpp_centers(X, K, rngs)
        want = [_kpp_init(X, K, np.random.default_rng([seed, r])) for r in range(restarts)]
        np.testing.assert_array_equal(centers, np.array(want))
    got = cluster._lloyd(Xs, XT, xx, K, centers - X[0], max_iter, tol, debug)
    want = [_lloyd_iterations(X, K, c, max_iter, tol, debug) for c in centers]
    return got, np.array(want)


def _record(monkeypatch, name):
    """Wrap ``cluster.<name>`` and list the arguments of each call."""
    calls = []
    inner = getattr(cluster, name)

    def recording(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(cluster, name, recording)
    return calls


@pytest.mark.parametrize("K", [2, 3, 4, 5])
def test_mc_null_shape_ten_restarts_matches_oracle(K):
    for seed in (0, 1, 2):
        cfg = ScenarioConfig(n=300, dim=2, K_true=2, community_separation=8.0, seed=seed)
        members = generate_null_triple(cfg)
        for role in members.nonanchor_roles:
            _assert_same(members.member(role), K, seed=seed, restarts=10)


def test_restarts_stopping_at_different_iterations_match_oracle(monkeypatch):
    cfg = ScenarioConfig(n=300, dim=2, K_true=3, community_separation=3.0, seed=4)
    X = generate_null_triple(cfg).member("nonanchor_1").values
    _assert_same(X, 5, seed=6, restarts=10)
    steps = _record(monkeypatch, "_centers")
    got, want = _first_pass(X, 5, seed=6, restarts=10)
    np.testing.assert_array_equal(got, want)
    live = [assignment.shape[0] for _, assignment, _ in steps]
    assert live[0] == 10 and len(set(live)) >= 3  # restarts leave the batch one by one


def test_empty_cluster_repair_matches_oracle(monkeypatch):
    rng = np.random.default_rng(8)
    X = np.vstack([rng.normal(size=(40, 2)), rng.normal(size=(40, 2)) + 6.0])
    starts = np.array([X[[0, 50, 5]], X[[0, 50, 5]], X[[3, 70, 11]], X[[3, 70, 11]]])
    starts[1, 2] = starts[3, 0] = (100.0, -100.0)  # a center that attracts no point
    repairs = _record(monkeypatch, "_repair_empty")
    got, want = _first_pass(X, 3, seed=0, restarts=4, centers=starts)
    np.testing.assert_array_equal(got, want)
    assert len(repairs) == 2


@pytest.mark.parametrize("case", range(5, 300, 30))
def test_debug_many_restarts_matches_oracle(case):
    X, K, seed, _ = _small_case(case)
    if K < 2:
        pytest.skip("fewer than two distinct rows")
    _assert_same(X, K, seed=seed, restarts=6, debug=True)
    got, want = _first_pass(X, K, seed=seed, restarts=6, debug=True)
    np.testing.assert_array_equal(got, want)


def test_max_iter_stop_matches_oracle(monkeypatch):
    cfg = ScenarioConfig(n=300, dim=2, K_true=3, community_separation=3.0, seed=4)
    X = generate_null_triple(cfg).member("nonanchor_2").values
    for max_iter in (1, 2, 3):
        monkeypatch.setattr(cluster, "MAX_ITER", max_iter)
        want = oracle_kmeans(X, 4, seed=2, restarts=5, max_iter=max_iter)
        got = kmeans_with_restarts(5, X, 4, seed=2)
        np.testing.assert_array_equal(got.assignment, want.assignment)
        assert got.wcss == want.wcss
        got, want = _first_pass(X, 4, seed=2, restarts=5, max_iter=max_iter)
        np.testing.assert_array_equal(got, want)


# Block-seeded restarts: ``_kpp_centers`` seeds as many restarts at once as
# _BLOCK_ENTRIES entries of their (restarts, n, p) differences hold, and
# takes each weighted pick as ``rng.choice`` takes it.


def _seeds_match_oracle(X, K, seed, restarts):
    """``_kpp_centers`` equals ``_kpp_init`` restart by restart, and leaves
    every generator where the oracle leaves it."""
    rngs = [np.random.default_rng([seed, r]) for r in range(restarts)]
    refs = [np.random.default_rng([seed, r]) for r in range(restarts)]
    got = cluster._kpp_centers(X, K, rngs)
    want = np.array([_kpp_init(X, K, ref) for ref in refs])
    np.testing.assert_array_equal(got, want)
    assert [rng.random() for rng in rngs] == [ref.random() for ref in refs]


@pytest.mark.parametrize("n,p", [(1000, 8), (700, 10), (3000, 32)])
def test_seeding_across_restart_blocks_matches_oracle(n, p):
    assert n * p > cluster._BLOCK_ENTRIES // cluster.RESTARTS  # several blocks
    rng = np.random.default_rng([31, n, p])
    X = rng.normal(size=(n, p))
    X[: n // 3] += 2.0
    for K in (2, 5):
        _seeds_match_oracle(X, K, seed=K, restarts=cluster.RESTARTS)


def test_seeding_with_underflowing_distances_matches_oracle():
    # squared steps of 1e-170 underflow to 0, so a pick sees a total of 0
    tiny = np.arange(5.0)[:, None] * 1e-170
    assert np.all((tiny - tiny.T) ** 2 == 0.0)
    for X, K in ((tiny, 2), (tiny, 4), (np.vstack([tiny, [[1.0]]]), 3)):
        _seeds_match_oracle(X, K, seed=3, restarts=6)


def test_weighted_pick_matches_choice():
    """Index and stream position of ``rng.choice(n, p=w / w.sum())``, over
    random weights of any scale with zeros; a row of zeros draws any row."""
    for case in range(250):
        rng = np.random.default_rng([41, case])
        n = int(rng.integers(1, 300))
        weights = rng.random((8, n)) * 10.0 ** rng.integers(-150, 150, size=(8, 1))
        weights[rng.random((8, n)) < rng.random()] = 0.0
        weights[np.arange(8), rng.integers(n, size=8)] = rng.random(8) + 0.5
        weights[7] = 0.0
        rngs = [np.random.default_rng([case, j]) for j in range(8)]
        got = cluster._kpp_picks(weights, rngs)
        for j, w in enumerate(weights):
            ref = np.random.default_rng([case, j])
            want = ref.choice(n, p=w / w.sum()) if j < 7 else ref.integers(n)
            assert got[j] == want
            assert rngs[j].random() == ref.random()
