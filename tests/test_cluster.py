import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorstat import cluster
from anchorstat.cluster import (
    Partition,
    _wcss,
    kmeans,
)
from anchorstat.corpus import EmbeddingMatrix
from anchorstat.errors import AnchorstatError, DegeneracyError, GuardError, ParameterError
from brute_force import brute_force_partition
from kmeans_restarts import kmeans_with_restarts


def _mat(*rows):
    return EmbeddingMatrix(values=np.array(rows, dtype=float).reshape(len(rows), -1))


def test_separable_pair():
    part = kmeans(_mat([0.0], [10.0]), 2, seed=0)
    assert part.wcss == pytest.approx(0.0, abs=1e-12)
    assert part.assignment[0] != part.assignment[1]


def test_two_tight_groups():
    # brute force over all 2-partitions gives minimum WCSS 1.0
    part = kmeans_with_restarts(5, _mat([0.0], [1.0], [9.0], [10.0]), 2, seed=0)
    assert part.wcss == pytest.approx(1.0, abs=1e-9)
    assert part.assignment[0] == part.assignment[1]
    assert part.assignment[2] == part.assignment[3]


def test_identical_rows_degeneracy():
    with pytest.raises(DegeneracyError, match="distinct"):
        kmeans(_mat([1.0, 2.0], [1.0, 2.0], [1.0, 2.0]), 2, seed=0)


def test_distinct_rows_checked_beyond_first_column():
    # a constant first column still leaves three distinct rows
    part = kmeans(_mat([1.0, 0.0], [1.0, 5.0], [1.0, 9.0]), 3, seed=0)
    assert sorted(part.assignment.tolist()) == [0, 1, 2]
    with pytest.raises(DegeneracyError, match="distinct"):
        kmeans(_mat([1.0, 2.0], [1.0, 2.0], [3.0, 4.0]), 3, seed=0)


def test_k_out_of_range():
    m = _mat([0.0], [1.0], [2.0])
    with pytest.raises(ParameterError):
        kmeans(m, 1, seed=0)
    with pytest.raises(ParameterError):
        kmeans(m, 4, seed=0)


def test_kmeans_takes_a_flat_array_as_one_dimensional_points():
    x = np.array([1.0, 2.0, 3.0, 10.0, 11.0])
    part = kmeans(x, 2)
    want = kmeans(EmbeddingMatrix(values=x[:, None]), 2)
    np.testing.assert_array_equal(part.assignment, want.assignment)
    assert part.wcss == want.wcss == pytest.approx(2.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kmeans_refuses_a_non_finite_entry_before_any_draw(monkeypatch, bad):
    monkeypatch.setattr(cluster, "_kpp_centers", lambda *args: pytest.fail("drew seeds"))
    with pytest.raises(AnchorstatError, match="non-finite entry at row 2, col 1"):
        kmeans(np.array([[0.0, 0.0], [1.0, 1.0], [9.0, bad], [10.0, 10.0]]), 2)


def test_wcss_singletons_zero():
    m = _mat([0.0, 1.0], [2.0, 3.0], [4.0, 5.0])
    assert _wcss(m.values, np.array([0, 1, 2]), 3) == 0.0


def test_wcss_hand_sum():
    m = _mat([0.0], [1.0], [9.0], [10.0])
    assert _wcss(m.values, np.array([0, 0, 1, 1]), 2) == pytest.approx(1.0, abs=1e-12)  # 0.5+0.5


def test_wcss_all_points_equal():
    m = _mat([3.0, 3.0], [3.0, 3.0], [3.0, 3.0], [3.0, 3.0])
    assert _wcss(m.values, np.array([0, 1, 0, 1]), 2) == 0.0


def test_partition_rejects_out_of_range_ids():
    with pytest.raises(ParameterError, match="cluster ids"):
        Partition(assignment=np.array([0, 1, 2]), K=2, wcss=0.0)


def test_partition_rejects_empty_cluster():
    with pytest.raises(DegeneracyError, match="empty"):
        Partition(assignment=np.array([0, 0, 0]), K=2, wcss=0.0)


def test_brute_force_two_groups():
    part = brute_force_partition(_mat([0.0], [1.0], [9.0], [10.0]), 2)
    assert part.wcss == pytest.approx(1.0, abs=1e-12)


def test_brute_force_n_equals_k():
    part = brute_force_partition(_mat([0.0], [5.0], [9.0]), 3)
    assert part.wcss == pytest.approx(0.0, abs=1e-12)
    assert sorted(part.assignment.tolist()) == [0, 1, 2]


def test_brute_force_guard():
    rng = np.random.default_rng(0)
    m = EmbeddingMatrix(values=rng.normal(size=(13, 2)))
    with pytest.raises(GuardError, match="n <= 12"):
        brute_force_partition(m, 2)


def test_kmeans_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(42)
    for trial in range(20):
        n = int(rng.integers(4, 11))
        m = EmbeddingMatrix(values=rng.normal(size=(n, 2)))
        got = kmeans_with_restarts(20, m, 2, seed=trial)
        want = brute_force_partition(m, 2)
        assert got.wcss == pytest.approx(want.wcss, abs=1e-9)


def test_kmeans_deterministic_given_seed():
    rng = np.random.default_rng(1)
    m = EmbeddingMatrix(values=rng.normal(size=(40, 3)))
    a = kmeans_with_restarts(4, m, 3, seed=7)
    b = kmeans_with_restarts(4, m, 3, seed=7)
    np.testing.assert_array_equal(a.assignment, b.assignment)
    assert a.wcss == b.wcss


def test_kmeans_reported_wcss_matches_recomputed():
    rng = np.random.default_rng(2)
    m = EmbeddingMatrix(values=rng.normal(size=(50, 4)))
    part = kmeans(m, 4, seed=3)
    assert part.wcss == pytest.approx(_wcss(m.values, part.assignment, 4), abs=1e-9)


def test_kmeans_never_returns_empty_cluster():
    rng = np.random.default_rng(3)
    for K in (2, 3, 5):
        m = EmbeddingMatrix(values=rng.normal(size=(12, 2)))
        part = kmeans(m, K, seed=0)
        assert len(np.unique(part.assignment)) == K


def test_kmeans_debug_monotonicity():
    rng = np.random.default_rng(4)
    m = EmbeddingMatrix(values=rng.normal(size=(60, 3)))
    part = kmeans(m, 4, seed=5, debug=True)  # raises if an iteration worsens
    assert part.wcss >= 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_relabeling_preserves_wcss(seed):
    rng = np.random.default_rng(seed)
    n, K = 8, 3
    m = EmbeddingMatrix(values=rng.normal(size=(n, 2)))
    part = kmeans_with_restarts(3, m, K, seed=seed)
    perm = rng.permutation(K)
    relabeled = Partition(assignment=perm[part.assignment], K=K, wcss=part.wcss)
    assert _wcss(m.values, relabeled.assignment, K) == pytest.approx(
        _wcss(m.values, part.assignment, K), abs=1e-12
    )


def test_kmeans_peak_memory_does_not_grow_with_restarts():
    # a full (restarts, n, p) residual would be 102 MB here; restarts run in
    # blocks of a fixed number of entries, so ten cost about what one does
    import tracemalloc

    X = np.random.default_rng(3).normal(size=(20000, 64))
    X[:10000] += 1.0
    peaks = []
    for restarts in (1, 10):
        tracemalloc.start()
        try:
            kmeans_with_restarts(restarts, X, 2, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


@pytest.mark.parametrize("rows", [
    [[0.0], [1e200], [2e200], [3e200]],  # a squared distance overflows
    [[0.0]] + [[1e154]] * 50 + [[-1e154]] * 50,  # their sum overflows in the seeding
])
def test_kmeans_refuses_rows_whose_squared_distances_overflow(rows):
    with np.errstate(over="ignore"), pytest.raises(DegeneracyError, match="overflow"):
        kmeans(np.array(rows), 2)
