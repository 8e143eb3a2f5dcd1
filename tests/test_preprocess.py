import tracemalloc

import numpy as np
import pytest

from anchorstat.corpus import EmbeddingMatrix, validate_pairing
from anchorstat.errors import DimensionError
from anchorstat.battery import reduce_members
from anchorstat.preprocess import PcaModel, apply_pca, fit_pca, reduce_jointly

from brute_force import direct_pca, stacked_reduction


def _line_data():
    # points on the line y = 2x
    t = np.array([-2.0, -1.0, 0.5, 1.0, 3.0])
    return EmbeddingMatrix(values=np.column_stack([t, 2 * t]), label="line")


def test_collinear_first_component():
    model = fit_pca(_line_data(), 2)
    expected = np.array([1.0, 2.0]) / np.sqrt(5.0)
    np.testing.assert_allclose(model.components[0], expected, atol=1e-12)
    # the points have no spread off the line
    np.testing.assert_allclose(apply_pca(model, _line_data()).values[:, 1], 0.0, atol=1e-12)


def test_p_equal_n_is_dimension_error():
    rng = np.random.default_rng(0)
    m = EmbeddingMatrix(values=rng.normal(size=(4, 6)))
    with pytest.raises(DimensionError):
        fit_pca(m, 4)  # p may not exceed n-1


def test_p_zero_is_dimension_error():
    rng = np.random.default_rng(0)
    m = EmbeddingMatrix(values=rng.normal(size=(4, 6)))
    with pytest.raises(DimensionError):
        fit_pca(m, 0)


def test_full_rank_reconstruction_identity():
    rng = np.random.default_rng(1)
    m = EmbeddingMatrix(values=rng.normal(size=(10, 4)))
    model = fit_pca(m, 4)
    reduced = apply_pca(model, m)
    back = reduced.values @ model.components + model.mean
    assert np.max(np.abs(back - m.values)) < 1e-9


def test_transform_of_mean_row_is_origin():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(9, 3))
    m = EmbeddingMatrix(values=X)
    model = fit_pca(m, 2)
    out = (np.atleast_2d(X.mean(axis=0)) - model.mean) @ model.components.T
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_identity_model_passthrough():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(5, 3))
    model = PcaModel(mean=np.zeros(3), components=np.eye(3))
    out = apply_pca(model, EmbeddingMatrix(values=X))
    np.testing.assert_allclose(out.values, X, atol=1e-12)


def test_line_data_projects_to_signed_norms():
    m = _line_data()
    model = fit_pca(m, 2)
    out = apply_pca(model, m)
    centered = m.values - m.values.mean(axis=0)
    norms = np.linalg.norm(centered, axis=1)
    np.testing.assert_allclose(np.abs(out.values[:, 0]), norms, atol=1e-9)
    np.testing.assert_allclose(out.values[:, 1], 0.0, atol=1e-9)


def test_column_mismatch():
    rng = np.random.default_rng(4)
    model = fit_pca(EmbeddingMatrix(values=rng.normal(size=(8, 5))), 2)
    with pytest.raises(DimensionError):
        apply_pca(model, EmbeddingMatrix(values=rng.normal(size=(8, 4))))


def test_reconstruction_error_non_increasing_in_p():
    rng = np.random.default_rng(5)
    m = EmbeddingMatrix(values=rng.normal(size=(30, 8)))
    errors = []
    for p in range(1, 8):
        model = fit_pca(m, p)
        back = apply_pca(model, m).values @ model.components + model.mean
        errors.append(float(((back - m.values) ** 2).sum()))
    assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))


def test_distance_preservation_at_full_rank():
    rng = np.random.default_rng(6)
    m = EmbeddingMatrix(values=rng.normal(size=(12, 5)))
    model = fit_pca(m, 5)
    out = apply_pca(model, m).values
    orig = m.values

    def pdists(X):
        return np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)

    assert np.max(np.abs(pdists(out) - pdists(orig))) <= 1e-8


def test_fit_is_deterministic_bitwise():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(15, 6))
    m1 = fit_pca(EmbeddingMatrix(values=X), 3)
    m2 = fit_pca(EmbeddingMatrix(values=X.copy()), 3)
    np.testing.assert_array_equal(m1.components, m2.components)
    np.testing.assert_array_equal(m1.mean, m2.mean)


def _collection(seed=8, shapes=((20, 6), (20, 6), (20, 6))):
    rng = np.random.default_rng(seed)
    members = {}
    for i, (n, p) in enumerate(shapes):
        role = "anchor" if i == 0 else f"nonanchor_{i}"
        members[role] = EmbeddingMatrix(values=rng.normal(size=(n, p)), label=role)
    return validate_pairing(members)


def test_reduce_per_dataset_shapes():
    members = dict(_collection().members)
    out, joint = reduce_members(members, 3, {}, baselines=())
    assert joint is None and not members
    assert all(out.member(r).p == 3 for r in out.roles)
    assert all(out.member(r).n == 20 for r in out.roles)


def test_reduce_joint_on_identical_copies():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(14, 5))
    coll = validate_pairing(
        {
            "anchor": EmbeddingMatrix(values=X, label="anchor"),
            "nonanchor_1": EmbeddingMatrix(values=X, label="nonanchor_1"),
            "nonanchor_2": EmbeddingMatrix(values=X, label="nonanchor_2"),
        }
    )
    out = reduce_jointly(dict(coll.members), 2, coll.temperatures)
    np.testing.assert_array_equal(
        out.member("anchor").values, out.member("nonanchor_1").values
    )
    np.testing.assert_array_equal(
        out.member("anchor").values, out.member("nonanchor_2").values
    )


def test_per_dataset_and_joint_generally_differ():
    coll = _collection(seed=10)
    per, joint = reduce_members(dict(coll.members), 3, {}, baselines=("hotelling",))
    gaps = [
        np.max(np.abs(per.member(r).values - joint.member(r).values))
        for r in coll.roles
    ]
    assert max(gaps) > 1e-6


def test_joint_requires_equal_ambient_dims():
    coll = _collection(shapes=((10, 4), (10, 5), (10, 4)))
    with pytest.raises(DimensionError):
        reduce_jointly(dict(coll.members), 2, {})


def test_per_dataset_handles_unequal_dims():
    coll = _collection(shapes=((10, 4), (10, 5), (10, 6)))
    out, _ = reduce_members(dict(coll.members), 2, {}, baselines=())
    assert all(out.member(r).p == 2 for r in out.roles)


def _separated_members(seed, n, d, offsets=(0.0, 1.0, -2.0)):
    # column scales halve, so every eigenvalue of the stacked rows stands
    # well apart from the next; the offsets give the members unequal means
    rng = np.random.default_rng(seed)
    scales = 2.0 ** -np.arange(d / 2, step=0.5)
    return {
        role: EmbeddingMatrix(values=rng.normal(size=(n, d)) * scales + shift, label=role)
        for role, shift in zip(("anchor", "nonanchor_1", "nonanchor_2"), offsets)
    }


def test_joint_model_equals_fit_pca_on_stacked_members():
    # the joint model comes from the members' means and scatters, the
    # reference from their rows stacked; the coordinates agree, signs
    # included, to a bound of 1e4 float64 eps of their largest magnitude
    for seed, n, d, p in [(12, 40, 7, 4), (13, 500, 24, 8), (14, 2000, 64, 8)]:
        members = _separated_members(seed, n, d)
        ref = stacked_reduction(members, p)
        out = reduce_jointly(dict(members), p, {})
        for role, coords in ref.items():
            bound = 1e4 * np.finfo(float).eps * np.max(np.abs(coords))
            assert np.max(np.abs(out.member(role).values - coords)) <= bound


def test_fit_pca_is_bitwise_the_direct_fit():
    # one member's model: copy, centre, x.T @ x, eigh, with no bit moved
    members = _separated_members(15, 300, 32)
    for m in members.values():
        mean, components = direct_pca(m.values, 6)
        model = fit_pca(m, 6)
        np.testing.assert_array_equal(model.mean, mean)
        np.testing.assert_array_equal(model.components, components)
        np.testing.assert_array_equal(
            apply_pca(model, m).values, (m.values - mean) @ components.T
        )


def test_joint_p_range_is_checked_on_stacked_rows():
    coll = _collection(shapes=((3, 8), (3, 8), (3, 8)))
    assert reduce_jointly(dict(coll.members), 8, {}).member("anchor").p == 8
    with pytest.raises(DimensionError, match=r"n-1=8"):
        reduce_jointly(dict(coll.members), 9, {})


def test_joint_fit_holds_one_stacked_copy():
    coll = _collection(seed=13, shapes=((2000, 64), (2000, 64), (2000, 64)))
    stacked_bytes = 3 * 2000 * 64 * 8
    tracemalloc.start()
    try:
        reduce_jointly(dict(coll.members), 8, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * stacked_bytes


def test_joint_reduction_frees_each_member_once_stacked():
    # the members are created inside the trace, so their release shows.
    # Each member is handed over once its rows are in the joint scatter:
    # before the k-th hand-over the 3 - k members left and the k reduced
    # ones are held, and the peak is the members and one member-sized copy
    n, d, p = 2000, 64, 8
    member_bytes, reduced_bytes = n * d * 8, n * p * 8
    slack = member_bytes // 4
    at_pop = []

    class Members(dict):
        def pop(self, key):
            at_pop.append(tracemalloc.get_traced_memory()[0])
            return super().pop(key)

    rng = np.random.default_rng(14)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        members = Members({
            role: EmbeddingMatrix(values=rng.normal(size=(n, d)), label=role)
            for role in ("anchor", "nonanchor_1", "nonanchor_2")
        })
        out = reduce_jointly(members, p, {})
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert not members and out.roles == ["anchor", "nonanchor_1", "nonanchor_2"]
    assert len(at_pop) == 3
    for k, used in enumerate(at_pop):
        assert used - base <= (3 - k) * member_bytes + k * reduced_bytes + slack
    assert peak <= 4 * member_bytes + slack


def test_joint_reduction_holds_no_stacked_copy():
    # the members are created inside the trace and held only by the
    # mapping, so each one's release shows: above them, the joint stage
    # holds one member-sized copy at a time, where a stack would be 3
    n, d = 2000, 64
    member_bytes = n * d * 8
    rng = np.random.default_rng(14)
    tracemalloc.start()
    try:
        members = {
            role: EmbeddingMatrix(values=rng.normal(size=(n, d)), label=role)
            for role in ("anchor", "nonanchor_1", "nonanchor_2")
        }
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = reduce_jointly(members, 8, {})
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert not members and out.roles == ["anchor", "nonanchor_1", "nonanchor_2"]
    assert peak <= 1.25 * member_bytes
