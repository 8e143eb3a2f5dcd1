"""The seeds each entry point derives from (seed, names), pinned as literals.

Partitions and p-values are reproducible only while these streams stay
put, so a change to the child-seed rule, or to how an entry point applies
it, fails here. A deliberate change of a stream updates these literals.
"""

from anchorstat import battery, synth
from anchorstat.battery import run_battery
from anchorstat.corpus import ExperimentGrid
from anchorstat.stattests import anchored_test
from anchorstat.synth import (
    ScenarioConfig,
    generate_alt_triple,
    generate_battery_quad,
    monte_carlo,
)


def test_battery_cell_seed():
    quad = generate_battery_quad(ScenarioConfig(n=40, seed=3))
    result = run_battery(quad, "quad", ExperimentGrid((2,), seed=11), baselines=("hotelling",))
    rows = {row.pair: row for row in result.rows}
    # a baseline cell reports the cell seed itself
    cell = rows[("nonanchor_aligned_1", "nonanchor_drifted")].baselines["hotelling"]
    assert cell.report.seed == 2500991577


def test_battery_partition_seeds(monkeypatch, pin_cpus):
    # one k-means call per (member, K), seeded by (seed, role, K) alone
    calls = []
    kmeans = battery.kmeans

    def spy(m, K, seed, **kwargs):
        calls.append((m.label, K, seed))
        return kmeans(m, K, seed=seed, **kwargs)

    monkeypatch.setattr(battery, "kmeans", spy)
    # one process, so the spy sees every (member, K) task
    pin_cpus(1)
    quad = generate_battery_quad(ScenarioConfig(n=40, seed=3))
    run_battery(quad, "quad", ExperimentGrid((2, 3), permutations=19, seed=11), baselines=())
    assert sorted(calls) == [
        ("nonanchor_aligned_1", 2, 3165633387),
        ("nonanchor_aligned_1", 3, 1928603395),
        ("nonanchor_aligned_2", 2, 585233585),
        ("nonanchor_aligned_2", 3, 3620925608),
        ("nonanchor_drifted", 2, 2694760516),
        ("nonanchor_drifted", 3, 3010091481),
    ]


def test_anchored_test_seeds():
    triple = generate_alt_triple(ScenarioConfig(n=40, seed=1))
    members = [(role, battery.member_partition(triple, role, 2, 11))
               for role in ("nonanchor_1", "nonanchor_2")]
    report = anchored_test(triple.anchor, *members, R=19, seed=11)
    assert report.seed == 520846937  # the sign-flip seed


def test_monte_carlo_replicate_seeds(monkeypatch, pin_cpus):
    data_seeds, test_seeds = [], []
    generate, test = synth.generate_null_triple, synth.run_battery

    def generate_spy(cfg):
        data_seeds.append(cfg.seed)
        return generate(cfg)

    def test_spy(collection, dataset, grid, **kwargs):
        test_seeds.append(grid.seed)
        return test(collection, dataset, grid, **kwargs)

    monkeypatch.setattr(synth, "generate_null_triple", generate_spy)
    monkeypatch.setattr(synth, "run_battery", test_spy)
    pin_cpus(1)  # the spies see every replicate
    monte_carlo("null", ScenarioConfig(n=40, seed=5), M=3, R=19)
    assert data_seeds == [16823399, 3796490668, 3226123765]
    assert test_seeds == [3598628658, 3269189123, 1070606992]
