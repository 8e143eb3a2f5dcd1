import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anchorstat.errors import (
    CorpusFormatError,
    DegeneracyError,
    DegenerateSampleError,
    DimensionError,
    ParameterError,
    VacuousTestError,
)
from anchorstat import cluster
from anchorstat.battery import member_partition
from anchorstat.cluster import Partition
from anchorstat.corpus import EmbeddingMatrix
from anchorstat.stattests import (
    _block_rows,
    _distances,
    _f_tail,
    _sign_flips,
    anchored_test,
    energy_statistic,
    energy_test,
    hotelling_paired,
    johnson_t,
    nploc_mean_test,
    sign_flip_pvalue,
)
from anchorstat.synth import ScenarioConfig, generate_alt_triple
from plumbing import run_python


EXACT_136 = (355.0 / 98.0) * np.sqrt(3.0 / 7.0)  # rational evaluation for d={1,2,6}


def test_johnson_odd_symmetric_sample_is_zero():
    assert johnson_t([-1.0, 0.0, 1.0]) == 0.0


def test_johnson_constant_sample_degenerate():
    with pytest.raises(DegenerateSampleError):
        johnson_t([3.0, 3.0, 3.0])


def test_johnson_exact_rational_case():
    # dbar=3, var=7, mu3=9 -> (3 + 61/98) * sqrt(3/7)
    assert johnson_t([1.0, 2.0, 6.0]) == pytest.approx(EXACT_136, abs=1e-12)


def test_johnson_arity():
    with pytest.raises(ParameterError):
        johnson_t([5.0])


def test_johnson_refuses_a_non_finite_difference():
    with pytest.raises(CorpusFormatError, match="non-finite entry at row 2, col 0"):
        johnson_t([1.0, 2.0, np.nan, 4.0])


def test_sign_flip_refuses_a_non_finite_difference():
    with pytest.raises(CorpusFormatError, match="non-finite entry at row 2, col 0"):
        sign_flip_pvalue([1.0, 2.0, np.nan, 4.0, -1.0], R=99)


def test_johnson_reduces_to_classical_t_when_mu3_zero():
    d = np.array([0.0, 1.0, 2.0])  # deviations -1, 0, 1 -> mu3 = 0
    classical = d.mean() / np.sqrt(d.var(ddof=1) / d.size)
    assert johnson_t(d) == classical


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_johnson_odd_and_scale_invariant(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 50))
    d = rng.normal(size=n)
    c = float(10 ** rng.uniform(-3, 3))
    t = johnson_t(d)
    assert johnson_t(-d) == pytest.approx(-t, abs=1e-12 * max(1, abs(t)))
    assert johnson_t(c * d) == pytest.approx(t, rel=1e-9)


def test_sign_flip_addone_bound():
    rng = np.random.default_rng(0)
    report = sign_flip_pvalue(rng.normal(size=20), R=999, seed=1)
    assert 1.0 / 1000.0 <= report.p_value <= 1.0
    assert report.replicates == 999
    assert report.reject == (report.p_value < report.alpha)


def test_sign_flip_symmetric_magnitudes_near_one():
    # equal magnitudes with balanced signs put the observed statistic at
    # the null mode; estimated with this implementation's own replicates
    d = np.array([1.0, -1.0] * 10)
    report = sign_flip_pvalue(d, R=9999, seed=2)
    assert report.p_value == pytest.approx(1.0, abs=0.05)


def test_sign_flip_reproducible_and_seed_sensitive():
    rng = np.random.default_rng(3)
    d = rng.normal(size=30) + 0.3
    a = sign_flip_pvalue(d, R=499, seed=11)
    b = sign_flip_pvalue(d, R=499, seed=11)
    c = sign_flip_pvalue(d, R=499, seed=12)
    assert a.p_value == b.p_value
    assert a.statistic == b.statistic
    assert c.p_value != a.p_value or c.seed != a.seed


_X = np.array([[0.0, 1.0], [2.0, 0.5], [1.0, 3.0], [4.0, 2.0], [3.0, 5.0]])
_ANCHOR = EmbeddingMatrix(values=np.array([[0.0], [2.0], [10.0], [12.0]]))
_PUBLIC_TESTS = {
    "sign_flip_pvalue": lambda **kw: sign_flip_pvalue([1.0, 2.0, 4.0], **kw),
    "nploc_mean_test": lambda **kw: nploc_mean_test(_X, _X[::-1], **kw),
    "energy_test": lambda **kw: energy_test(_X, _X + 1.0, **kw),
    "hotelling_paired": lambda **kw: hotelling_paired(_X, _X[::-1], **kw),
    "anchored_test": lambda **kw: anchored_test(
        _ANCHOR, ("x", Partition(np.array([0, 0, 1, 1]), 2, 0.0)),
        ("y", Partition(np.array([0, 1, 1, 1]), 2, 0.0)), **kw),
}
_BAD_SETTINGS = {
    "R=0": (dict(R=0), "permutation count must be >= 1, got 0"),
    "R=True": (dict(R=True), "permutation count must be an integer, got True"),
    "alpha=2.0": (dict(alpha=2.0), "alpha must be in (0,1), got 2.0"),
    "alpha=0": (dict(alpha=0), "alpha must be in (0,1), got 0"),
    "seed=-1": (dict(seed=-1), "seed must be >= 0, got -1"),
    "seed=True": (dict(seed=True), "seed must be an integer, got True"),
}


@pytest.mark.parametrize("name, setting", [
    pytest.param(name, setting, id=f"{name}-{setting}")
    for name in _PUBLIC_TESTS for setting in _BAD_SETTINGS
    if not (name == "hotelling_paired" and setting.startswith("R="))  # it draws no replicates
])
def test_public_tests_refuse_what_a_grid_refuses(name, setting):
    kwargs, message = _BAD_SETTINGS[setting]
    with pytest.raises(ParameterError, match=re.escape(message)):
        _PUBLIC_TESTS[name](**kwargs)


def test_sign_flip_single_observation_arity():
    # the arity check of the statistic itself surfaces through the test
    with pytest.raises(ParameterError, match="n >= 2"):
        sign_flip_pvalue([5.0], R=99, seed=0)


def test_sign_flip_records_strict_exceedance():
    rng = np.random.default_rng(4)
    report = sign_flip_pvalue(rng.normal(size=15), R=199, seed=5)
    prop = report.metadata["strict_exceedance_proportion"]
    assert 0.0 <= prop <= 1.0
    # add-one p complements the strict proportion up to ties
    assert report.p_value >= 1.0 - prop - 1e-12


def test_sign_flip_strong_location_rejects():
    rng = np.random.default_rng(6)
    d = rng.normal(size=80) + 2.5
    report = sign_flip_pvalue(d, R=999, seed=7)
    assert report.p_value == pytest.approx(1.0 / 1000.0)
    assert report.reject


def _triple(seed=0):
    cfg = ScenarioConfig(
        n=120, dim=2, K_true=2, community_separation=8.0, seed=seed
    )
    return generate_alt_triple(cfg)


@pytest.mark.parametrize("n", [1, 3, 300, 301])
def test_sign_draw_equals_integers_draw(n):
    """The raw-bit sign draw, taken block by block as the resampling engine
    takes it, must equal one rng.integers(0, 2, (R, n)) draw: a numpy
    release that changes ``integers`` fails here instead of moving p-values."""
    rows = _block_rows(n)
    draw = _sign_flips(n)[0]
    # R = 1, below one block, exactly one block, and not a block multiple
    for R in sorted({1, max(1, rows // 3), rows, 2 * rows + 7}):
        rng = np.random.default_rng([n, R])
        got = np.vstack([draw(rng, min(rows, R - start)) for start in range(0, R, rows)])
        want = np.random.default_rng([n, R]).integers(0, 2, size=(R, n))
        np.testing.assert_array_equal(got.astype(int), want)


def _members(collection, roles, K, seed):
    """The (role, partition) pairs of ``roles`` at K, as the battery gives them."""
    return [(role, member_partition(collection, role, K, seed)) for role in roles]


def test_anchored_identical_nonanchors_vacuous():
    triple = _triple()
    (member,) = _members(triple, ["nonanchor_1"], 2, 0)
    with pytest.raises(VacuousTestError, match="identical"):
        anchored_test(triple.anchor, member, member, seed=0)


def test_anchored_test_zero_and_arithmetic():
    # mapped distances [1, 1, 1, 1] and [0, 6, 2, 4]: first minus second
    anchor = EmbeddingMatrix(values=np.array([[0.0], [2.0], [10.0], [12.0]]), label="A")
    first = ("x", Partition(np.array([0, 0, 1, 1]), 2, 0.0))
    second = ("y", Partition(np.array([0, 1, 1, 1]), 2, 0.0))
    diff = np.array([1.0, -5.0, -1.0, -3.0])
    report = anchored_test(anchor, first, second, R=19, seed=2)
    assert report.statistic == johnson_t(diff)
    assert anchored_test(anchor, second, first, R=19, seed=2).statistic == johnson_t(-diff)
    relabelled = ("z", Partition(np.array([1, 1, 0, 0]), 2, 0.0))
    with pytest.raises(VacuousTestError, match="identical"):
        anchored_test(anchor, first, relabelled, R=19, seed=2)


def test_anchored_test_composes_and_reports_metadata():
    triple = _triple(seed=5)
    members = _members(triple, ["nonanchor_1", "nonanchor_2"], 2, 3)
    report = anchored_test(triple.anchor, *members, R=199, seed=3)
    assert report.method == "anchored_johnson"
    assert report.metadata["K"] == 2
    assert report.metadata["anchor_label"] == triple.anchor.label
    assert report.metadata["d1_label"] == "nonanchor_1"
    assert report.metadata["d2_label"] == "nonanchor_2"
    assert 1.0 / 200.0 <= report.p_value <= 1.0


def test_anchored_test_records_the_restart_count_kmeans_read(monkeypatch):
    monkeypatch.setattr(cluster, "RESTARTS", 3)
    triple = _triple(seed=5)
    members = _members(triple, ["nonanchor_1", "nonanchor_2"], 2, 3)
    assert anchored_test(triple.anchor, *members, R=19, seed=3).metadata["kmeans_restarts"] == 3


def test_anchored_test_handles_unequal_member_dimensions():
    # non-anchors may live in entirely different spaces; only the shared
    # index set matters
    rng = np.random.default_rng(40)
    n = 80
    z = rng.integers(0, 2, n)
    mu = {0: -4.0, 1: 4.0}
    anchor = np.column_stack([np.where(z == 0, -4.0, 4.0) + rng.normal(size=n),
                              rng.normal(size=n)])
    d1 = np.array([[mu[v], 0.0, 0.0] for v in z]) + rng.normal(size=(n, 3))
    z2 = rng.integers(0, 2, n)
    d2 = np.array([[mu[v]] for v in z2]) + rng.normal(size=(n, 1))
    from anchorstat.corpus import validate_pairing

    collection = validate_pairing({
        "anchor": EmbeddingMatrix(values=anchor, label="anchor"),
        "three_dim": EmbeddingMatrix(values=d1, label="three_dim"),
        "one_dim": EmbeddingMatrix(values=d2, label="one_dim"),
    })
    members = _members(collection, ["three_dim", "one_dim"], 2, 1)
    report = anchored_test(collection.anchor, *members, R=199, seed=1)
    assert report.reject  # structures disagree despite mismatched dims


def test_anchored_test_deterministic():
    triple = _triple(seed=6)
    members = _members(triple, ["nonanchor_1", "nonanchor_2"], 2, 9)
    a = anchored_test(triple.anchor, *members, R=199, seed=9)
    b = anchored_test(triple.anchor, *members, R=199, seed=9)
    assert a.p_value == b.p_value
    assert a.statistic == b.statistic


def test_anchored_test_takes_mapped_sets():
    triple = _triple(seed=7)
    (first,) = _members(triple, ["nonanchor_1"], 3, 4)
    (second,) = _members(triple, ["nonanchor_2"], 2, 4)
    with pytest.raises(ParameterError, match="different K: 3 vs 2"):
        anchored_test(triple.anchor, first, second, R=99, seed=4)


def _col(values):
    return np.asarray(values, dtype=float)[:, None]


def test_hotelling_one_dim_equals_squared_t():
    x = _col([1.0, 2.0, 3.0])
    y = _col([0.0, 0.0, 0.0])
    report = hotelling_paired(x, y)
    assert report.statistic == pytest.approx(12.0, abs=1e-9)  # (2*sqrt(3))^2


def test_hotelling_zero_mean_diffs():
    x = _col([1.0, -1.0, 1.0, -1.0])
    y = _col([0.0, 0.0, 0.0, 0.0])
    report = hotelling_paired(x, y)
    assert report.statistic == pytest.approx(0.0, abs=1e-12)
    assert report.p_value == 1.0


def test_hotelling_underflowed_tail_serialises():
    # a mean shift of 50 sends the F tail below the smallest float, where
    # the p-value sits at its floor and must still be a Python float
    rng = np.random.default_rng(12)
    x = rng.normal(size=(200, 2)) + 50.0
    report = hotelling_paired(x, rng.normal(size=(200, 2)))
    assert type(report.p_value) is float and type(report.reject) is bool
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["p_value"] == np.nextafter(0, 1) and doc["reject"] is True


def test_hotelling_tail_equals_f_survival_function():
    from scipy.special import fdtrc
    from scipy.stats import f

    rng = np.random.default_rng(13)
    for _ in range(2000):
        n = int(rng.integers(2, 3000))
        p = int(rng.integers(1, min(n, 800)))
        F = rng.choice([0.0, np.inf, rng.exponential() * 10 ** rng.uniform(-6, 4)])
        assert fdtrc(p, n - p, F) == f.sf(F, p, n - p)
    for shift in (0.0, 0.1, 0.5, 3.0, 50.0):
        x = rng.normal(size=(40, 3)) + shift
        report = hotelling_paired(x, rng.normal(size=(40, 3)))
        tail = _mp_f_tail(3, 37, report.metadata["f_statistic"])
        assert abs(report.p_value - tail) <= 1e-11 * tail


def _mp_f_tail(dfn, dfd, f):
    """Survival function of F(dfn, dfd) at f, to 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        x = dfd / (dfd + dfn * mpmath.mpf(f))
        return mpmath.betainc(mpmath.mpf(dfd) / 2, mpmath.mpf(dfn) / 2, 0, x, regularized=True)


def _f_tail_grid():
    rng = np.random.default_rng(14)
    grid = [(61, 5403, 30.05), (79, 9349, 19.86)]  # where scipy's fdtrc gives 0 and 1e-9 off
    for _ in range(600):
        dfn, dfd = int(rng.integers(1, 801)), int(rng.integers(1, 12001))
        grid.append((dfn, dfd, float(rng.exponential() * 10 ** rng.uniform(-6, 3))))
    return grid


def test_f_tail_matches_mpmath():
    for dfn, dfd, F in _f_tail_grid():
        tail, exact = _f_tail(dfn, dfd, F), _mp_f_tail(dfn, dfd, F)
        if exact >= 1e-300:
            assert abs(tail - exact) <= 1e-11 * exact, (dfn, dfd, F, tail)
        else:
            assert tail < 1e-299


def test_f_tail_closed_form_and_ends():
    import mpmath

    rng = np.random.default_rng(15)
    for _ in range(200):
        dfd, F = int(rng.integers(1, 3000)), float(rng.exponential() * 10 ** rng.uniform(-4, 2))
        with mpmath.workdps(50):  # at dfn = 2 the tail is (dfd / (dfd + 2F))^(dfd/2)
            exact = (dfd / (dfd + 2 * mpmath.mpf(F))) ** (mpmath.mpf(dfd) / 2)
        assert abs(_f_tail(2, dfd, F) - exact) <= 1e-11 * exact
    for dfn, dfd in [(1, 1), (2, 37), (800, 12000)]:
        assert _f_tail(dfn, dfd, 0.0) == 1.0
        assert _f_tail(dfn, dfd, np.inf) == 0.0


@pytest.mark.parametrize("p", [1, 2, 3, 9, 32, 768])
def test_distances_equal_cdist_bitwise(p):
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(p)
    for n, m in [(1, 1), (1, 7), (7, 1), (5, 13), (40, 3), (300, 260)]:
        for a, b in [
            (rng.normal(size=(n, p)), rng.normal(size=(m, p))),
            (rng.normal(size=(n, p)) + 1e6, rng.normal(size=(m, p)) - 1e6),
            (rng.normal(size=(n, p)) * 1e-3 + 1e6, rng.normal(size=(m, p)) * 1e-3 + 1e6),
            (rng.integers(-2, 3, (n, p)).astype(float), rng.integers(-2, 3, (m, p)).astype(float)),
        ]:
            if p == 768 and n * m > 600:
                continue
            assert np.array_equal(_distances(a, b), cdist(a, b))
            assert np.array_equal(_distances(a), cdist(a, a))


def test_hotelling_does_not_import_scipy_stats():
    code = (
        "import sys, numpy as np\n"
        "from anchorstat.stattests import hotelling_paired\n"
        "rng = np.random.default_rng(0)\n"
        "hotelling_paired(rng.normal(size=(30, 2)), rng.normal(size=(30, 2)))\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    out = run_python("-c", code, check=True)
    assert out.stdout.strip() == "False"


def test_hotelling_identical_inputs_vacuous():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(10, 2))
    with pytest.raises(VacuousTestError):
        hotelling_paired(X, X.copy())


def test_hotelling_rank_error():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(3, 5))
    Y = rng.normal(size=(3, 5))
    with pytest.raises(DegeneracyError, match="n > p"):
        hotelling_paired(X, Y)


def test_hotelling_singular_covariance():
    rng = np.random.default_rng(10)
    base = rng.normal(size=(8, 1))
    X = np.hstack([base, 2 * base])  # perfectly collinear difference columns
    Y = np.zeros_like(X)
    with pytest.raises(DegeneracyError, match="singular"):
        hotelling_paired(X, Y)


def test_hotelling_squared_t_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(4, 40))
        d = rng.normal(size=n) + rng.normal() * 0.5
        if np.var(d, ddof=1) == 0:
            continue
        t = d.mean() / np.sqrt(d.var(ddof=1) / n)
        report = hotelling_paired(_col(d), _col(np.zeros(n)))
        assert report.statistic == pytest.approx(t**2, rel=1e-9)


def test_nploc_identical_vacuous():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(9, 2))
    with pytest.raises(VacuousTestError):
        nploc_mean_test(X, X.copy())


def test_nploc_addone_bound_and_reproducibility():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(25, 3))
    Y = rng.normal(size=(25, 3))
    a = nploc_mean_test(X, Y, R=999, seed=4)
    b = nploc_mean_test(X, Y, R=999, seed=4)
    assert 1.0 / 1000.0 <= a.p_value <= 1.0
    assert a.p_value == b.p_value


def test_nploc_statistic_matches_hotelling():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(5, 30))
        x = rng.normal(size=(n, 1))
        y = rng.normal(size=(n, 1))
        if np.all(x == y):
            continue
        np_rep = nploc_mean_test(x, y, R=9, seed=0)
        h_rep = hotelling_paired(x, y)
        assert np_rep.statistic == pytest.approx(h_rep.statistic, abs=1e-9)


def test_energy_identical_multisets_zero():
    x = _col([0.0, 1.0, 2.0])
    assert energy_statistic(x, x.copy()) == pytest.approx(0.0, abs=1e-12)
    # order must not matter: the same values shuffled still give zero
    assert energy_statistic(x, _col([2.0, 0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)


def test_energy_hand_case():
    assert energy_statistic(_col([0.0, 2.0]), _col([1.0, 3.0])) == pytest.approx(1.0, abs=1e-12)


def test_energy_single_points():
    assert energy_statistic(_col([0.0]), _col([1.0])) == pytest.approx(1.0, abs=1e-12)


def test_energy_dimension_mismatch():
    rng = np.random.default_rng(15)
    with pytest.raises(DimensionError):
        energy_statistic(rng.normal(size=(4, 2)), rng.normal(size=(4, 3)))


def _energy_brute(X, Y):
    nx, ny = len(X), len(Y)
    between = np.mean([np.linalg.norm(a - b) for a in X for b in Y])
    wx = np.mean([np.linalg.norm(a - b) for a in X for b in X])
    wy = np.mean([np.linalg.norm(a - b) for a in Y for b in Y])
    return nx * ny / (nx + ny) * (2 * between - wx - wy)


def test_energy_matches_brute_force():
    rng = np.random.default_rng(16)
    for _ in range(15):
        nx, ny = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        dim = int(rng.integers(1, 4))
        X = rng.normal(size=(nx, dim))
        Y = rng.normal(size=(ny, dim))
        assert energy_statistic(X, Y) == pytest.approx(_energy_brute(X, Y), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    arrays(np.float64, (4, 2), elements=st.floats(-50, 50)),
    arrays(np.float64, (5, 2), elements=st.floats(-50, 50)),
)
def test_energy_statistic_nonnegative(X, Y):
    assert energy_statistic(X, Y) >= -1e-10


def test_energy_test_p_bound_and_detection():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(40, 2))
    Y = rng.normal(size=(40, 2)) + 3.0
    report = energy_test(X, Y, R=199, seed=0)
    assert report.p_value == pytest.approx(1.0 / 200.0)
    assert report.reject


def test_energy_test_peak_memory_is_bounded():
    # the relabelling frees each index block before it builds the counts
    import tracemalloc

    rng = np.random.default_rng(19)
    X = rng.normal(size=(300, 2))
    Y = rng.normal(size=(300, 2)) + 0.2
    energy_test(X, Y, R=99, seed=1)  # warm up: one-time allocations are not the test's
    tracemalloc.start()
    try:
        energy_test(X, Y, R=999, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.65 * 600 * 600 * 8  # the pooled distance matrix's bytes


def test_report_json_round_trips():
    import json

    rng = np.random.default_rng(18)
    report = sign_flip_pvalue(rng.normal(size=12), R=99, seed=6)
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["method"] == "anchored_johnson"
    assert doc["p_value"] == report.p_value


@pytest.mark.parametrize("test", [hotelling_paired, nploc_mean_test, energy_test])
def test_baselines_refuse_a_non_finite_entry(test):
    x = np.arange(20.0).reshape(10, 2)
    y = x[::-1].copy()
    y[3, 1] = np.nan
    with pytest.raises(CorpusFormatError, match="non-finite entry at row 3, col 1"):
        test(x, y)
