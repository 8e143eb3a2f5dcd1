"""Acceptance suite: every exit criterion with its stated tolerance.

Each test prints one pass/fail line; run with ``pytest -v -s
tests/test_acceptance.py`` to see them.
"""

import numpy as np

from anchorstat import stattests
from anchorstat.battery import BatteryCell, BatteryResult, BatteryRow, run_battery
from anchorstat.cli import main
from anchorstat.corpus import EmbeddingMatrix, ExperimentGrid
from anchorstat.divergence import kl_divergence, wasserstein1
from anchorstat.errors import DegenerateSampleError
from anchorstat.stattests import (
    energy_statistic,
    hotelling_paired,
    johnson_t,
    sign_flip_pvalue,
)
from anchorstat.synth import (
    ScenarioConfig,
    generate_battery_quad,
    monte_carlo,
)
from brute_force import brute_force_partition, transport_lp
from kmeans_restarts import kmeans_with_restarts


def _report(num: int, label: str, ok: bool, detail: str = ""):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {label} {detail}")
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_01_statistic_exactness():
    expected = (355.0 / 98.0) * np.sqrt(3.0 / 7.0)
    got = johnson_t([1.0, 2.0, 6.0])
    ok = abs(got - expected) < 1e-9
    zero = johnson_t([-1.0, 0.0, 1.0])
    ok = ok and zero == 0.0
    try:
        johnson_t([2.0, 2.0, 2.0])
        raised = False
    except DegenerateSampleError:
        raised = True
    ok = ok and raised
    _report(1, "statistic exactness", ok, f"T({{1,2,6}})={got:.9f} T(sym)={zero}")


def test_criterion_02_statistic_properties():
    rng = np.random.default_rng(2024)
    worst_odd = 0.0
    worst_scale = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 201))
        d = rng.normal(size=n) * float(10 ** rng.uniform(-2, 2))
        if np.ptp(d) == 0.0:
            continue
        c = float(10 ** rng.uniform(-3, 3))
        t = johnson_t(d)
        worst_odd = max(worst_odd, abs(johnson_t(-d) + t) / max(1.0, abs(t)))
        worst_scale = max(worst_scale, abs(johnson_t(c * d) - t) / max(1.0, abs(t)))
    ok = worst_odd < 1e-9 and worst_scale < 1e-9
    _report(2, "oddness and scale invariance", ok,
            f"worst_odd={worst_odd:.2e} worst_scale={worst_scale:.2e}")


def test_criterion_03_clustering_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(4, 11))
        dim = int(rng.integers(1, 4))
        m = EmbeddingMatrix(values=rng.normal(size=(n, dim)))
        got = kmeans_with_restarts(20, m, 2, seed=trial)
        want = brute_force_partition(m, 2)
        worst = max(worst, abs(got.wcss - want.wcss))
    ok = worst < 1e-9
    _report(3, "kmeans equals exhaustive optimum (100 instances)", ok, f"worst gap={worst:.2e}")


def test_criterion_04_transport_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=n) * 4
        b = rng.normal(size=n) * 4
        worst = max(worst, abs(wasserstein1(a, b) - transport_lp(a, b)))
    exact = wasserstein1([0.0, 1.0, 3.0], [1.0, 2.0, 4.0])
    ok = worst < 1e-9 and exact == 1.0
    _report(4, "transport matches LP oracle (50 instances)", ok,
            f"worst gap={worst:.2e} hand case={exact}")


def test_criterion_05_energy_oracle():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(50):
        nx, ny = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        dim = int(rng.integers(1, 4))
        X = rng.normal(size=(nx, dim)) * 3
        Y = rng.normal(size=(ny, dim)) * 3
        between = np.mean([np.linalg.norm(p - q) for p in X for q in Y])
        wx = np.mean([np.linalg.norm(p - q) for p in X for q in X])
        wy = np.mean([np.linalg.norm(p - q) for p in Y for q in Y])
        brute = nx * ny / (nx + ny) * (2 * between - wx - wy)
        worst = max(worst, abs(energy_statistic(X, Y) - brute))
    hand = energy_statistic(np.array([[0.0], [2.0]]), np.array([[1.0], [3.0]]))
    ok = worst < 1e-12 and abs(hand - 1.0) < 1e-12
    _report(5, "energy matches double-sum oracle (50 instances)", ok,
            f"worst gap={worst:.2e} hand case={hand}")


def test_criterion_06_hotelling_consistency():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 60))
        d = rng.normal(size=n) + rng.normal() * 0.3
        if np.var(d, ddof=1) == 0.0:
            continue
        t = d.mean() / np.sqrt(d.var(ddof=1) / n)
        rep = hotelling_paired(d[:, None], np.zeros((n, 1)))
        worst = max(worst, abs(rep.statistic - t**2) / max(1.0, t**2))
    hand = hotelling_paired(
        np.array([[1.0], [2.0], [3.0]]), np.zeros((3, 1))
    ).statistic
    ok = worst < 1e-9 and abs(hand - 12.0) < 1e-9
    _report(6, "paired T^2 equals squared paired t (100 instances)", ok,
            f"worst rel gap={worst:.2e} hand case={hand}")


_MC_CFG = dict(n=300, dim=2, K_true=2, community_separation=8.0, noise_sd=1.0)


def test_criterion_07_size_calibration():
    cfg = ScenarioConfig(seed=0, **_MC_CFG)
    report = monte_carlo("null", cfg, M=200, K=2, R=999, alpha=0.05)
    ok = 0.01 <= report.rate <= 0.10
    _report(7, "null rejection rate within [0.01, 0.10]", ok,
            f"rate={report.rate:.3f} (vacuous={report.vacuous}/200)")


def test_criterion_08_power():
    cfg = ScenarioConfig(seed=0, **_MC_CFG)
    report = monte_carlo("alt", cfg, M=200, K=2, R=999, alpha=0.05)
    ok = report.rate >= 0.9
    _report(8, "alternative rejection rate >= 0.9", ok, f"rate={report.rate:.3f}")


def battery_pattern_counts(result) -> tuple[int, int, int, int]:
    """Criterion 9's tallies for one `BatteryResult` over a
    `generate_battery_quad` collection: (drifted-pair cells rejected,
    drifted-pair cells, aligned-pair anchored cells accepted, aligned-pair
    anchored cells). Every anchored and baseline cell of the drifted pair
    counts; of the aligned pair only the anchored cells do, since the
    direct comparisons see members in unrelated frames. An ``ERROR`` cell
    is neither a rejection nor an acceptance; a vacuous cell accepts."""
    rows = {row.pair: row for row in result.rows}
    drift = rows[("nonanchor_aligned_1", "nonanchor_drifted")]
    aligned = rows[("nonanchor_aligned_1", "nonanchor_aligned_2")]
    drift_cells = [drift.anchored[K] for K in result.grid.k_values]
    drift_cells += [drift.baselines[b] for b in result.baselines]
    aligned_cells = [aligned.anchored[K] for K in result.grid.k_values]
    return (
        sum(bool(c.reject) for c in drift_cells),
        len(drift_cells),
        sum(c.reject is False for c in aligned_cells),
        len(aligned_cells),
    )


def test_battery_pattern_counts_do_not_count_error_cells_as_acceptances():
    def report(p):
        return stattests.TestReport("anchored_johnson", 1.0, p, 99, 0, 0.05)

    ok = BatteryCell(display="0.500", report=report(0.5))
    identical = BatteryCell(display="identical")
    error = BatteryCell(display="ERROR: x", error="x")
    rejected = BatteryCell(display="< 1e-2*", report=report(0.01))
    rows = (
        BatteryRow(("nonanchor_aligned_1", "nonanchor_aligned_2"),
                   {2: ok, 3: identical, 4: error}, {}),
        BatteryRow(("nonanchor_aligned_1", "nonanchor_drifted"),
                   {2: rejected, 3: error, 4: rejected}, {}),
    )
    result = BatteryResult("quad", ExperimentGrid((2, 3, 4), 0.05, 99), (), rows)
    assert battery_pattern_counts(result) == (2, 3, 2, 3)


def test_criterion_09_battery_patterns():
    tallies = []
    k_values = (2, 3, 4, 5)
    for seed in range(20):
        cfg = ScenarioConfig(
            n=300, dim=2, K_true=2, community_separation=10.0, noise_sd=1.0, seed=seed
        )
        quad = generate_battery_quad(cfg)
        result = run_battery(
            quad,
            dataset=f"synthetic-{seed}",
            grid=ExperimentGrid(k_values=k_values, alpha=0.05, permutations=999, seed=seed),
        )
        tallies.append(battery_pattern_counts(result))
    reject_cells, reject_total, accept_cells, accept_total = map(sum, zip(*tallies))
    reject_frac = reject_cells / reject_total
    accept_frac = accept_cells / accept_total
    ok = reject_frac >= 0.95 and accept_frac >= 0.80
    _report(9, "battery reproduces the qualitative table patterns", ok,
            f"drifted-pair rejected {reject_frac:.1%} (need >=95%), "
            f"aligned-pair accepted by anchored {accept_frac:.1%} (need >=80%)")


def test_criterion_10_pvalue_uniformity():
    rng = np.random.default_rng(31)
    pvals = []
    for run in range(500):
        d = rng.normal(size=50)  # symmetric null differences
        pvals.append(sign_flip_pvalue(d, R=999, seed=run).p_value)
    ps = np.sort(pvals)
    grid = np.arange(1, 501) / 500.0
    ks = max(np.max(np.abs(grid - ps)), np.max(np.abs(grid - 1 / 500.0 - ps)))
    ok = ks < 0.1
    _report(10, "null p-values uniform (KS over 500 runs)", ok, f"KS={ks:.4f}")


def test_criterion_11_divergence_sanity():
    rng = np.random.default_rng(37)
    min_kl = np.inf
    for _ in range(1000):
        a = rng.normal(loc=rng.normal(), size=int(rng.integers(2, 80)))
        b = rng.normal(loc=rng.normal(), size=int(rng.integers(2, 80)))
        min_kl = min(min_kl, kl_divergence(a, b))
    sample = rng.normal(size=100)
    self_kl = abs(kl_divergence(sample, sample.copy()))
    worst_triangle = -np.inf
    for _ in range(200):
        n = int(rng.integers(1, 30))
        a, b, c = rng.normal(size=(3, n)) * 3
        slack = wasserstein1(a, b) + wasserstein1(b, c) - wasserstein1(a, c)
        worst_triangle = max(worst_triangle, -slack)
    ok = min_kl >= -1e-12 and self_kl < 1e-12 and worst_triangle <= 1e-9
    _report(11, "KL nonnegative/zero-on-self; W1 triangle inequality", ok,
            f"min KL={min_kl:.2e} self KL={self_kl:.2e} worst triangle violation={worst_triangle:.2e}")


def test_criterion_12_end_to_end_reproducibility(tmp_path):
    out_dir = tmp_path / "triple"
    rc = main([
        "synth", "--scenario", "alt", "--n", "150", "--dim", "2",
        "--k-true", "2", "--separation", "8.0", "--noise", "1.0",
        "--seed", "3", "--out-dir", str(out_dir),
    ])
    assert rc == 0
    manifest = str(out_dir / "manifest.json")
    outputs = []
    for tag in ("a", "b", "c"):
        out = tmp_path / f"battery-{tag}.csv"
        rc = main([
            "battery", "--manifest", manifest,
            "--k-grid", "2,3", "--permutations", "199", "--seed", "5",
            "--out", str(out),
        ])
        assert rc == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and outputs[0] == outputs[2]
    _report(12, "battery reruns byte-identical", ok,
            f"{len(outputs[0])} bytes")
