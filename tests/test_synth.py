import json
import re

import numpy as np
import pytest

from anchorstat import cli, synth
from anchorstat.errors import GuardError, ParameterError
from anchorstat.stattests import _child_seed
from anchorstat.synth import (
    ScenarioConfig,
    generate_alt_triple,
    generate_battery_quad,
    generate_drift_family,
    generate_null_triple,
    monte_carlo,
    rand_index,
)
from kmeans_restarts import kmeans_with_restarts


def _cfg(**overrides):
    base = dict(n=200, dim=2, K_true=2, community_separation=8.0, noise_sd=1.0, seed=0)
    base.update(overrides)
    return ScenarioConfig(**base)


def test_config_validation():
    with pytest.raises(ParameterError):
        _cfg(n=3, K_true=2)
    with pytest.raises(ParameterError):
        _cfg(noise_sd=0.0)
    with pytest.raises(ParameterError):
        _cfg(community_separation=float("inf"))


@pytest.mark.parametrize("setting, message", [
    (dict(seed=1.5), "seed must be an integer, got 1.5"),
    (dict(n=40.0), "n must be an integer, got 40.0"),
    (dict(K_true=True), "K_true must be an integer, got True"),
    (dict(dim="2"), "dim must be an integer, got '2'"),
    (dict(community_separation="8"), "community_separation must be a real number, got '8'"),
    (dict(noise_sd=None), "noise_sd must be a real number, got None"),
    (dict(community_separation=True), "community_separation must be a real number, got True"),
    (dict(noise_sd=True), "noise_sd must be a real number, got True"),
])
def test_config_refuses_a_setting_of_the_wrong_type(setting, message):
    # refused as the config is built, so no generator or replicate runs on it
    with pytest.raises(ParameterError, match=re.escape(message)):
        ScenarioConfig(**{"n": 40, **setting})


def test_same_config_bitwise_identical():
    cfg = _cfg(seed=42)
    t1 = generate_null_triple(cfg)
    t2 = generate_null_triple(cfg)
    for role in t1.roles:
        np.testing.assert_array_equal(t1.member(role).values, t2.member(role).values)


def test_different_seeds_differ():
    a = generate_null_triple(_cfg(seed=1))
    b = generate_null_triple(_cfg(seed=2))
    assert not np.array_equal(a.member("anchor").values, b.member("anchor").values)


def test_null_noiseless_limit_recovers_identical_partitions():
    # separation dominates noise (only their ratio matters here), so both
    # clusterings recover the shared labels exactly
    cfg = _cfg(community_separation=40.0, seed=3)
    triple = generate_null_triple(cfg)
    p1 = kmeans_with_restarts(5, triple.member("nonanchor_1"), 2, seed=0)
    p2 = kmeans_with_restarts(5, triple.member("nonanchor_2"), 2, seed=1)
    assert rand_index(p1.assignment, p2.assignment) == 1.0


def test_alt_noiseless_limit_rand_near_independence():
    # independent uniform labels with K=2: pair-concordance expectation is
    # 1/K^2 + (1 - 1/K)^2 = 0.5
    cfg = _cfg(n=400, community_separation=40.0, seed=4)
    triple = generate_alt_triple(cfg)
    p1 = kmeans_with_restarts(5, triple.member("nonanchor_1"), 2, seed=0)
    p2 = kmeans_with_restarts(5, triple.member("nonanchor_2"), 2, seed=1)
    ri = rand_index(p1.assignment, p2.assignment)
    assert abs(ri - 0.5) < 0.06
    assert ri < 0.9  # bounded away from 1


def test_alt_label_collision_guard():
    # with a single community every redraw collides with the shared labels
    with pytest.raises(GuardError, match="collid"):
        generate_alt_triple(_cfg(K_true=1, n=6))


def test_null_rand_index_high_at_default_separation():
    scores = []
    for seed in range(20):
        triple = generate_null_triple(_cfg(n=300, seed=seed))
        p1 = kmeans_with_restarts(5, triple.member("nonanchor_1"), 2, seed=0)
        p2 = kmeans_with_restarts(5, triple.member("nonanchor_2"), 2, seed=1)
        scores.append(rand_index(p1.assignment, p2.assignment))
    assert np.mean(scores) >= 0.95


def test_null_mapped_distances_similar():
    from anchorstat.anchor import mapped_distances

    hits = 0
    for seed in range(20):
        triple = generate_null_triple(_cfg(n=300, seed=seed))
        anchor = triple.member("anchor")
        p1 = kmeans_with_restarts(5, triple.member("nonanchor_1"), 2, seed=0)
        p2 = kmeans_with_restarts(5, triple.member("nonanchor_2"), 2, seed=1)
        d1, d2 = mapped_distances(anchor, p1), mapped_distances(anchor, p2)
        gap = np.mean(np.abs(d1 - d2))
        if gap < 0.2 * np.mean(d1):
            hits += 1
    assert hits == 20


def test_null_diff_mean_within_noise_band():
    from anchorstat.anchor import mapped_distances

    hits = 0
    seeds = range(40)
    for seed in seeds:
        triple = generate_null_triple(_cfg(n=300, seed=seed))
        anchor = triple.member("anchor")
        p1 = kmeans_with_restarts(5, triple.member("nonanchor_1"), 2, seed=0)
        p2 = kmeans_with_restarts(5, triple.member("nonanchor_2"), 2, seed=1)
        diff = mapped_distances(anchor, p1) - mapped_distances(anchor, p2)
        sd = diff.std(ddof=1) if diff.size > 1 else 0.0
        if abs(diff.mean()) <= 3.0 * sd / np.sqrt(diff.size):
            hits += 1
    assert hits / len(list(seeds)) >= 0.95


def test_monte_carlo_single_replicate_degenerate_ci():
    cfg = _cfg(n=60, seed=5)
    report = monte_carlo("alt", cfg, M=1, R=99)
    assert report.rate in (0.0, 1.0)
    assert report.degenerate_ci
    assert report.M == 1


def test_monte_carlo_alt_rejects():
    cfg = _cfg(n=200, seed=6)
    report = monte_carlo("alt", cfg, M=12, R=199)
    assert report.rate >= 0.9
    assert report.ci_low <= report.rate <= report.ci_high


def test_monte_carlo_scenario_validation():
    with pytest.raises(ParameterError):
        monte_carlo("bogus", _cfg(), M=1)
    with pytest.raises(ParameterError):
        monte_carlo("null", _cfg(), M=0)
    for M in (True, 2.0):
        with pytest.raises(ParameterError, match=re.escape(f"M must be an integer, got {M!r}")):
            monte_carlo("null", _cfg(), M=M)


def test_monte_carlo_counts_vacuous_as_accepts():
    # huge separation makes the two estimated partitions identical, so
    # every replicate is vacuous and nothing is rejected
    cfg = _cfg(n=80, community_separation=40.0, seed=7)
    report = monte_carlo("null", cfg, M=6, R=99)
    assert report.vacuous == 6
    assert report.rejections == 0


@pytest.mark.parametrize("grid", [dict(alpha=1.5), dict(alpha=0.0), dict(alpha=1.0),
                                  dict(alpha=-0.1), dict(R=0), dict(R=19.5), dict(K=2.0)])
def test_monte_carlo_grid_validated_before_replicates(grid, monkeypatch):
    def no_replicate(cfg):
        raise AssertionError("a replicate ran before the grid was validated")

    monkeypatch.setattr("anchorstat.synth.generate_null_triple", no_replicate)
    with pytest.raises(ParameterError):
        monte_carlo("null", _cfg(), M=1, **grid)


@pytest.mark.parametrize("scenario", ["quad", "drift"])
def test_monte_carlo_refuses_a_collection_of_more_than_one_pair(scenario, monkeypatch, pin_cpus):
    # a replicate tests one pair, so a larger collection is refused before replicate 0
    calls = []
    monkeypatch.setattr(synth, "generate_scenario", lambda *args: calls.append(args))
    pin_cpus(1)
    with pytest.raises(ParameterError, match=f"scenario must be one of null, alt, got '{scenario}'"):
        monte_carlo(scenario, _cfg(), M=2)
    assert calls == []


@pytest.mark.parametrize("K, n", [(1, 300), (11, 10)])
def test_monte_carlo_refuses_k_before_any_replicate(K, n, monkeypatch, pin_cpus):
    # kmeans's own message, before replicate 0 is generated
    calls = []
    monkeypatch.setattr(synth, "generate_scenario", lambda *args: calls.append(args))
    pin_cpus(1)
    with pytest.raises(ParameterError, match=re.escape(f"K={K} out of range [2, n={n}]")):
        monte_carlo("null", _cfg(n=n), M=2, K=K)
    assert calls == []


def _pairwise_rand_index(a, b):
    """The former definition, on two n x n co-membership matrices."""
    same_a = a[:, None] == a[None, :]
    same_b = b[:, None] == b[None, :]
    iu = np.triu_indices(a.shape[0], k=1)
    return float(np.mean(same_a[iu] == same_b[iu]))


def test_rand_index_matches_pairwise_definition():
    rng = np.random.default_rng(11)
    for case in range(400):
        n = 2 if case % 10 == 0 else int(rng.integers(2, 80))
        a = rng.integers(0, int(rng.integers(1, 6)), n)  # one cluster when the bound is 1
        if case % 4 == 0:
            b = 7 * a - 3  # the same partition under other labels
        else:
            b = rng.integers(0, int(rng.integers(1, 6)), n)
        assert rand_index(a, b) == _pairwise_rand_index(a, b)
    assert rand_index(np.zeros(2, int), np.array([0, 1])) == 0.0
    assert rand_index(np.zeros(5, int), np.full(5, 3)) == 1.0


def test_power_monotone_in_separation():
    rates = []
    for sep in (2.0, 5.0, 8.0):
        cfg = _cfg(n=150, community_separation=sep, seed=8)
        rates.append(monte_carlo("alt", cfg, M=12, R=199).rate)
    # allow one small inversion per the statistical nature of the check
    inversions = sum(1 for a, b in zip(rates, rates[1:]) if b < a - 0.15)
    assert inversions <= 1
    assert rates[-1] >= rates[0]


def test_battery_quad_roles_and_alignment():
    quad = generate_battery_quad(_cfg(n=120, seed=9))
    assert set(quad.roles) == {
        "anchor",
        "nonanchor_aligned_1",
        "nonanchor_aligned_2",
        "nonanchor_drifted",
    }
    p1 = kmeans_with_restarts(5, quad.member("nonanchor_aligned_1"), 2, seed=0)
    p2 = kmeans_with_restarts(5, quad.member("nonanchor_aligned_2"), 2, seed=1)
    pd = kmeans_with_restarts(5, quad.member("nonanchor_drifted"), 2, seed=2)
    assert rand_index(p1.assignment, p2.assignment) > 0.9
    assert rand_index(p1.assignment, pd.assignment) < 0.75


def test_drift_family_temperatures_and_monotone_drift():
    cfg = _cfg(n=250, seed=10)
    fam = generate_drift_family(cfg, [(0.1, 0.05), (0.7, 0.35), (1.5, 0.75)])
    assert fam.temperatures["nonanchor_rho_0.1"] == 0.1
    assert fam.temperatures["nonanchor_base"] is None
    base = kmeans_with_restarts(5, fam.member("nonanchor_base"), 2, seed=0)
    agreements = []
    for rho in ("0.1", "0.7", "1.5"):
        part = kmeans_with_restarts(5, fam.member(f"nonanchor_rho_{rho}"), 2, seed=1)
        agreements.append(rand_index(base.assignment, part.assignment))
    assert agreements[0] > agreements[-1]


def test_drift_family_fraction_validation():
    with pytest.raises(ParameterError):
        generate_drift_family(_cfg(), [(0.5, 1.5)])


@pytest.mark.parametrize("rhos", [(0.1, 0.1), (0.10, 0.1, 0.4), (1e-1, 0.4, 0.1)])
def test_drift_family_refuses_temperatures_naming_one_member(rhos):
    with pytest.raises(ParameterError, match="repeats the member 'nonanchor_rho_0.1'"):
        generate_drift_family(_cfg(), [(rho, rho / 2) for rho in rhos])


def test_rand_index_basics():
    assert rand_index(np.array([0, 0, 1, 1]), np.array([1, 1, 0, 0])) == 1.0
    assert rand_index(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])) == pytest.approx(1 / 3)
    with pytest.raises(ParameterError):
        rand_index(np.array([0, 1]), np.array([0, 1, 1]))


def _spy_replicates(monkeypatch, pin_cpus):
    """Run `monte_carlo` in this process and record, per replicate, its
    (data seed, test seed, report or "vacuous")."""
    seeds, outcomes = [], []
    generate, run_battery = synth.generate_scenario, synth.run_battery

    def generate_spy(scenario, cfg):
        seeds.append(cfg.seed)
        return generate(scenario, cfg)

    def run_battery_spy(collection, dataset, grid, **kwargs):
        result = run_battery(collection, dataset, grid, **kwargs)
        (cell,) = result.rows[0].anchored.values()
        outcomes.append((grid.seed, "vacuous" if cell.vacuous else cell.report))
        return result

    monkeypatch.setattr(synth, "generate_scenario", generate_spy)
    monkeypatch.setattr(synth, "run_battery", run_battery_spy)
    pin_cpus(1)
    return lambda: [(d, t, r) for d, (t, r) in zip(seeds, outcomes)]


@pytest.mark.parametrize("scenario", ["null", "alt"])
def test_monte_carlo_replicate_is_synth_then_test(scenario, monkeypatch, pin_cpus, tmp_path):
    # replicate m is the anchored cell at K=2 that `synth --seed (s, m, 0)`
    # then `battery --seed (s, m, 1)` give
    replicates = _spy_replicates(monkeypatch, pin_cpus)
    monte_carlo(scenario, _cfg(n=60, seed=8), M=3, K=2, R=49)
    outcomes = []
    for m, (data_seed, test_seed, report) in enumerate(replicates()):
        assert (data_seed, test_seed) == (_child_seed(8, m, 0), _child_seed(8, m, 1))
        out = tmp_path / f"{scenario}{m}"
        assert cli.main(["synth", "--scenario", scenario, "--n", "60", "--seed", str(data_seed),
                         "--out-dir", str(out)]) == 0
        rc = cli.main(["battery", "--manifest", str(out / "manifest.json"), "--k-grid", "2",
                       "--permutations", "49", "--baselines", "none", "--seed", str(test_seed),
                       "--format", "json", "--out", str(out / "battery.json")])
        assert rc == 0
        (row,) = json.loads((out / "battery.json").read_text())["rows"]
        cell = row["anchored"]["2"]
        if report == "vacuous":
            assert cell["vacuous"] is True and cell["report"] is None
        else:
            assert cell["report"] == report.to_dict()
        outcomes.append(report == "vacuous")
    # the null study's replicate 1 is vacuous, so both branches run
    assert outcomes == {"null": [False, True, False], "alt": [False] * 3}[scenario]


def test_monte_carlo_study_is_a_prefix_of_a_longer_one(monkeypatch, pin_cpus):
    def summary(M):
        replicates = _spy_replicates(monkeypatch, pin_cpus)
        monte_carlo("null", _cfg(n=60, seed=2), M=M, R=49)
        return [(d, t, r if r == "vacuous" else r.p_value) for d, t, r in replicates()]

    short, long = summary(4), summary(8)
    assert len(short) == 4 and len(long) == 8
    assert long[:4] == short
