import numpy as np
import pytest

from anchorstat.anchor import (
    MappedDistanceSet,
    mapped_centers,
    mapped_distances,
    paired_differences,
)
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
    dset = mapped_distances(anchor, _part([0, 0, 1], 2), source="d1")
    np.testing.assert_allclose(dset.distances, [1.0, 1.0, 0.0])
    assert dset.source == "d1"
    assert dset.anchor == "anchor"


def test_singleton_cluster_member_distance_zero():
    anchor = _anchor([[4.0, 4.0], [0.0, 0.0], [1.0, 1.0]])
    dset = mapped_distances(anchor, _part([0, 1, 1], 2))
    assert dset.distances[0] == 0.0


def test_identical_anchor_rows_all_zero():
    anchor = _anchor([[2.0, 2.0]] * 4)
    dset = mapped_distances(anchor, _part([0, 1, 0, 1], 2))
    np.testing.assert_array_equal(dset.distances, np.zeros(4))


def test_paired_differences_zero_and_arithmetic():
    a = MappedDistanceSet(distances=np.array([1.0, 1.0, 0.0]), source="x", anchor="A", K=2)
    b = MappedDistanceSet(distances=np.array([0.0, 1.0, 1.0]), source="y", anchor="A", K=2)
    same = paired_differences(a, a)
    np.testing.assert_array_equal(same, np.zeros(3))
    diff = paired_differences(a, b)
    np.testing.assert_array_equal(diff, [1.0, 0.0, -1.0])
    assert diff.dtype == float and not diff.flags.writeable


def test_paired_differences_anchor_mismatch():
    a = MappedDistanceSet(distances=np.array([1.0]), source="x", anchor="A", K=2)
    b = MappedDistanceSet(distances=np.array([1.0]), source="y", anchor="B", K=2)
    with pytest.raises(PairingError, match="different anchors"):
        paired_differences(a, b)


def test_relabeling_invariance():
    rng = np.random.default_rng(0)
    anchor = EmbeddingMatrix(values=rng.normal(size=(20, 3)), label="anchor")
    assignment = rng.integers(0, 3, 20)
    while len(np.unique(assignment)) < 3:
        assignment = rng.integers(0, 3, 20)
    base = mapped_distances(anchor, _part(assignment, 3))
    perm = np.array([2, 0, 1])
    relabeled = mapped_distances(anchor, _part(perm[assignment], 3))
    np.testing.assert_allclose(relabeled.distances, base.distances, atol=1e-12)


def test_equal_set_partitions_give_identical_mappings():
    rng = np.random.default_rng(1)
    anchor = EmbeddingMatrix(values=rng.normal(size=(15, 2)), label="anchor")
    assignment = np.array([0, 1] * 7 + [0])
    a = mapped_distances(anchor, _part(assignment, 2))
    b = mapped_distances(anchor, _part(1 - assignment, 2))
    np.testing.assert_array_equal(a.distances, b.distances)


def test_translation_equivariance():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(12, 3))
    assignment = rng.integers(0, 2, 12)
    while len(np.unique(assignment)) < 2:
        assignment = rng.integers(0, 2, 12)
    part = _part(assignment, 2)
    base = mapped_distances(EmbeddingMatrix(values=X, label="a"), part)
    shifted = mapped_distances(EmbeddingMatrix(values=X + 7.5, label="a"), part)
    np.testing.assert_allclose(shifted.distances, base.distances, atol=1e-9)


def test_distance_set_rejects_negative():
    with pytest.raises(PairingError):
        MappedDistanceSet(distances=np.array([-0.1]), source="s", anchor="a", K=2)
