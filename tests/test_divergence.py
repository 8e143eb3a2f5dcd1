import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorstat.divergence import kl_divergence, wasserstein1
from anchorstat.errors import ParameterError
from brute_force import transport_lp


def test_w1_identical_samples():
    x = np.array([0.3, 1.1, 2.2])
    assert wasserstein1(x, x.copy()) == 0.0


def test_w1_single_points():
    assert wasserstein1([0.0], [5.0]) == 5.0


def test_w1_hand_case_matches_lp():
    a = [0.0, 1.0, 3.0]
    b = [1.0, 2.0, 4.0]
    assert wasserstein1(a, b) == pytest.approx(1.0, abs=1e-12)
    assert wasserstein1(a, b) == pytest.approx(transport_lp(a, b), abs=1e-9)


def test_w1_unequal_sizes_rejected():
    with pytest.raises(ParameterError, match="equal sizes"):
        wasserstein1([0.0, 1.0], [0.0])


def test_w1_matches_lp_oracle_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(15):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=n) * 3
        b = rng.normal(size=n) * 3
        assert wasserstein1(a, b) == pytest.approx(transport_lp(a, b), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_w1_symmetry_and_triangle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 20))
    a, b, c = rng.normal(size=(3, n)) * 5
    assert wasserstein1(a, b) == pytest.approx(wasserstein1(b, a), abs=1e-12)
    assert wasserstein1(a, c) <= wasserstein1(a, b) + wasserstein1(b, c) + 1e-9


def test_kl_identical_samples_zero():
    rng = np.random.default_rng(1)
    a = rng.normal(size=200)
    assert kl_divergence(a, a.copy()) == pytest.approx(0.0, abs=1e-12)


def test_kl_hand_case_at_module_constants():
    # range [0, 1] in 50 bins; counts P=(3, 0, ..., 0, 1), Q=(1, 0, ..., 0, 3);
    # with 0.5 pseudo-counts every bin but the two ends cancels
    est = kl_divergence([0.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 1.0])
    assert type(est) is float and est == (2 / 29) * np.log(7 / 3)


def test_kl_nonnegative_random_pairs():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = rng.normal(loc=rng.normal(), size=int(rng.integers(2, 60)))
        b = rng.normal(loc=rng.normal(), size=int(rng.integers(2, 60)))
        assert kl_divergence(a, b) >= -1e-12


def test_kl_degenerate_range_flagged():
    est = kl_divergence([2.0, 2.0], [2.0, 2.0, 2.0])
    assert type(est) is float and est == 0.0


def test_kl_parameter_validation():
    with pytest.raises(ParameterError):
        kl_divergence([], [0.0, 1.0])


def test_kl_direction_is_asymmetric():
    rng = np.random.default_rng(3)
    a = rng.normal(size=300)
    b = rng.normal(size=300) * 3.0
    ab = kl_divergence(a, b)
    ba = kl_divergence(b, a)
    assert ab != pytest.approx(ba, abs=1e-6)
