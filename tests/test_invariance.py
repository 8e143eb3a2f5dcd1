"""Invariances the anchored test relies on, as properties, and the
independence of the permutation p-values, the k-means partitions and the
PCA components from the BLAS thread count."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorstat.anchor import mapped_distances
from anchorstat.cluster import Partition
from anchorstat.corpus import EmbeddingMatrix
from anchorstat.stattests import johnson_t, sign_flip_pvalue
from plumbing import run_python


def _assignment(rng, n, K):
    """Cluster ids over n rows with every one of the K clusters present."""
    return rng.permutation(np.concatenate([np.arange(K), rng.integers(0, K, n - K)]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 400), st.floats(0.0, 0.9))
def test_sign_flip_pvalue_invariant_to_negation(seed, n, zero_share):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=n) + rng.normal()
    d[rng.random(n) < zero_share] = 0.0
    if np.ptp(d) == 0.0:
        d[0] += 1.0
    a = sign_flip_pvalue(d, R=199, seed=seed)
    b = sign_flip_pvalue(-d, R=199, seed=seed)
    assert a.p_value == b.p_value
    assert a.metadata == b.metadata


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6))
def test_mapped_distances_invariant_to_cluster_relabelling(seed, K):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(max(K, 2), 60))
    anchor = EmbeddingMatrix(values=rng.normal(size=(n, 3)), label="anchor")
    assignment = _assignment(rng, n, K)
    relabel = rng.permutation(K)
    base = mapped_distances(anchor, Partition(assignment, K, 0.0))
    moved = mapped_distances(anchor, Partition(relabel[assignment], K, 0.0))
    np.testing.assert_array_equal(moved, base)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5))
def test_anchored_statistic_invariant_to_joint_row_permutation(seed, K):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2 * K, 120))
    values = rng.normal(size=(n, 2))
    a1, a2 = _assignment(rng, n, K), _assignment(rng, n, K)

    def diffs(rows):
        anchor = EmbeddingMatrix(values=values[rows], label="anchor")
        return (mapped_distances(anchor, Partition(a1[rows], K, 0.0))
                - mapped_distances(anchor, Partition(a2[rows], K, 0.0)))

    base = diffs(np.arange(n))
    rows = rng.permutation(n)
    moved = diffs(rows)
    np.testing.assert_allclose(moved, base[rows], rtol=1e-12, atol=1e-12)
    if np.ptp(base) > 0.0:
        assert johnson_t(moved) == pytest.approx(johnson_t(base), rel=1e-9, abs=1e-9)


_PVALUES = """
import json
import numpy as np
from anchorstat.stattests import energy_test, nploc_mean_test, sign_flip_pvalue
rng = np.random.default_rng(5)
x = rng.normal(size=(300, 3)) + 0.1
y = rng.normal(size=(300, 3))
reports = [
    sign_flip_pvalue(x[:, 0] - y[:, 0], R=999, seed=1),
    nploc_mean_test(x, y, R=999, seed=2),
    energy_test(x, y, R=999, seed=3),
]
print(json.dumps([r.to_dict() for r in reports]))
"""

_PARTITIONS = """
import json
import numpy as np
from anchorstat import cluster
cluster.RESTARTS = 2
rng = np.random.default_rng(6)
x = rng.normal(size=(3000, 32)) + 2.0 * rng.normal(size=(3, 32))[rng.integers(0, 3, 3000)]
x /= np.linalg.norm(x, axis=1, keepdims=True)
parts = [cluster.kmeans(x, K, seed=K) for K in (2, 5)]
print(json.dumps([
    {"K": part.K, "assignment": part.assignment.tolist(), "wcss": part.wcss}
    for part in parts
]))
"""

_PCA = """
import hashlib, json
import numpy as np
from anchorstat.corpus import EmbeddingMatrix
from anchorstat.preprocess import fit_pca
x = np.random.default_rng(7).normal(size=(400, 256))
model = fit_pca(EmbeddingMatrix(values=x), 16)
print(json.dumps(hashlib.sha256(model.components.tobytes()).hexdigest()))
"""


def _run_in_subprocess(code, threads):
    threads = None if threads is None else str(threads)
    out = run_python("-c", code, env={"OPENBLAS_NUM_THREADS": threads}, check=True)
    return json.loads(out.stdout)


def test_pvalues_independent_of_blas_thread_count():
    assert _run_in_subprocess(_PVALUES, 1) == _run_in_subprocess(_PVALUES, None)


def test_kmeans_partitions_independent_of_blas_thread_count():
    one, default = _run_in_subprocess(_PARTITIONS, 1), _run_in_subprocess(_PARTITIONS, None)
    assert [part["K"] for part in one] == [2, 5]
    assert one == default


def test_pca_components_independent_of_blas_thread_count():
    assert _run_in_subprocess(_PCA, 1) == _run_in_subprocess(_PCA, 2)
