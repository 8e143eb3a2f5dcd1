import numpy as np
import pytest

from anchorstat.anchor import mapped_centers, mapped_distances
from anchorstat.cluster import Partition
from anchorstat.corpus import EmbeddingMatrix
from anchorstat.errors import PairingError


def _anchor(rows, label="anchor"):
    return EmbeddingMatrix(values=np.array(rows, dtype=float).reshape(len(rows), -1), label=label)


def _part(assignment, K):
    return Partition(assignment=np.array(assignment), K=K, wcss=0.0)


def test_centers_direct_arithmetic():
    anchor = _anchor([[0.0], [2.0], [10.0]])
    centers = mapped_centers(anchor, _part([0, 0, 1], 2))
    np.testing.assert_allclose(centers, [[1.0], [10.0]])


def test_centers_singletons_equal_rows():
    anchor = _anchor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    centers = mapped_centers(anchor, _part([0, 1, 2], 3))
    np.testing.assert_array_equal(centers, anchor.values)


def test_single_cluster_center_is_column_mean():
    anchor = _anchor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    centers = mapped_centers(anchor, _part([0, 0, 0], 1))
    np.testing.assert_allclose(centers[0], anchor.values.mean(axis=0))


def test_centers_size_mismatch():
    anchor = _anchor([[0.0], [1.0]])
    with pytest.raises(PairingError):
        mapped_centers(anchor, _part([0, 0, 1], 2))


def test_distances_direct():
    anchor = _anchor([[0.0], [2.0], [10.0]])
    dist = mapped_distances(anchor, _part([0, 0, 1], 2))
    np.testing.assert_allclose(dist, [1.0, 1.0, 0.0])
    assert dist.dtype == float and dist.ndim == 1 and not dist.flags.writeable


def test_singleton_cluster_member_distance_zero():
    anchor = _anchor([[4.0, 4.0], [0.0, 0.0], [1.0, 1.0]])
    assert mapped_distances(anchor, _part([0, 1, 1], 2))[0] == 0.0


def test_identical_anchor_rows_all_zero():
    anchor = _anchor([[2.0, 2.0]] * 4)
    np.testing.assert_array_equal(mapped_distances(anchor, _part([0, 1, 0, 1], 2)), np.zeros(4))


def test_relabeling_invariance():
    rng = np.random.default_rng(0)
    anchor = EmbeddingMatrix(values=rng.normal(size=(20, 3)), label="anchor")
    assignment = rng.integers(0, 3, 20)
    while len(np.unique(assignment)) < 3:
        assignment = rng.integers(0, 3, 20)
    base = mapped_distances(anchor, _part(assignment, 3))
    perm = np.array([2, 0, 1])
    relabeled = mapped_distances(anchor, _part(perm[assignment], 3))
    np.testing.assert_allclose(relabeled, base, atol=1e-12)


def test_equal_set_partitions_give_identical_mappings():
    rng = np.random.default_rng(1)
    anchor = EmbeddingMatrix(values=rng.normal(size=(15, 2)), label="anchor")
    assignment = np.array([0, 1] * 7 + [0])
    a = mapped_distances(anchor, _part(assignment, 2))
    b = mapped_distances(anchor, _part(1 - assignment, 2))
    np.testing.assert_array_equal(a, b)


def test_translation_equivariance():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(12, 3))
    assignment = rng.integers(0, 2, 12)
    while len(np.unique(assignment)) < 2:
        assignment = rng.integers(0, 2, 12)
    part = _part(assignment, 2)
    base = mapped_distances(EmbeddingMatrix(values=X, label="a"), part)
    shifted = mapped_distances(EmbeddingMatrix(values=X + 7.5, label="a"), part)
    np.testing.assert_allclose(shifted, base, atol=1e-9)


def test_mapped_distances_refuses_overflowing_rows():
    # rows of about +-1e308 in one cluster: their distances overflow
    anchor = _anchor([[1e308], [-1e308], [0.0], [1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PairingError, match="distances must be finite and nonnegative"):
            mapped_distances(anchor, _part([0, 0, 1, 1], 2))
