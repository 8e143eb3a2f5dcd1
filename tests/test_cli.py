import csv
import dataclasses
import importlib
import inspect
import io
import json
import pkgutil
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

import anchorstat
from anchorstat import llmpipeline
from anchorstat.battery import (
    BASELINES,
    _cell_seed,
    battery_csv,
    curves_csv,
    format_p,
    member_partition,
    run_battery,
)
from anchorstat.cli import build_parser
from anchorstat.corpus import (
    EmbeddingMatrix,
    ExperimentGrid,
    load_manifest,
    load_matrix,
    normalize_rows,
    save_manifest,
    save_matrix,
    validate_pairing,
)
from anchorstat.errors import AnchorstatError, ManifestError
from anchorstat.stattests import anchored_test
from plumbing import run_cli, run_python, write_collection


@pytest.fixture
def matrix_loads(monkeypatch):
    """The paths `corpus.load_matrix` reads from then on."""
    from anchorstat import corpus

    loads = []
    load = corpus.load_matrix

    def load_spy(path, *args, **kwargs):
        loads.append(path)
        return load(path, *args, **kwargs)

    monkeypatch.setattr(corpus, "load_matrix", load_spy)
    return loads


def _synth_manifest(tmp_path, scenario="alt", seed=0, n=150, sep=8.0):
    out = tmp_path / f"{scenario}{seed}"
    rc = run_cli(
        "synth",
        "--scenario", scenario,
        "--n", n,
        "--dim", 2,
        "--k-true", 2,
        "--separation", sep,
        "--noise", 1.0,
        "--seed", seed,
        "--out-dir", out,
    )
    assert rc == 0
    return out / "manifest.json"


def test_format_p_floor_and_star():
    assert format_p(0.001, 999, 0.05) == "< 1e-3*"
    assert format_p(0.0421, 999, 0.05) == "0.042*"
    assert format_p(0.51, 999, 0.05) == "0.510"
    assert format_p(0.02, 199, 0.05) == "0.020*"
    assert format_p(0.005, 199, 0.05) == "< 5e-3*"


def test_synth_writes_matrices_and_manifest(tmp_path):
    # --out-dir is nested two levels below directories that do not exist yet
    manifest_path = _synth_manifest(tmp_path / "new", scenario="null", seed=3)
    manifest = load_manifest(manifest_path)
    assert [e.role for e in manifest.entries] == [
        "anchor",
        "nonanchor_1",
        "nonanchor_2",
    ]
    coll = manifest.load_collection(manifest_path.parent)
    assert coll.n == 150


def test_synth_reproducible_files(tmp_path, capsys):
    p1 = _synth_manifest(tmp_path / "a", scenario="null", seed=9)
    p2 = _synth_manifest(tmp_path / "b", scenario="null", seed=9)
    for name in ("anchor.csv", "nonanchor_1.csv", "nonanchor_2.csv"):
        assert (p1.parent / name).read_bytes() == (p2.parent / name).read_bytes()
    assert "seed: 9" in capsys.readouterr().err


def test_synth_quad_then_battery_is_the_pattern_study_table(tmp_path):
    # one seed of the battery pattern study: `synth --scenario quad` then `battery`
    from anchorstat.synth import ScenarioConfig, generate_battery_quad

    manifest = _synth_manifest(tmp_path, scenario="quad", seed=3, n=60, sep=10.0)
    out = tmp_path / "battery.csv"
    assert run_cli("battery", "--manifest", manifest, "--k-grid", "2,3", "--permutations", 99,
                   "--seed", 3, "--out", out) == 0
    quad = generate_battery_quad(ScenarioConfig(n=60, community_separation=10.0, seed=3))
    grid = ExperimentGrid(k_values=(2, 3), permutations=99, seed=3)
    assert out.read_bytes() == battery_csv(run_battery(quad, "synth-quad", grid)).encode()


@pytest.mark.parametrize("scenario", ["quad", "drift"])
def test_synth_writes_every_scenario_and_mc_tests_only_one_pair(scenario, capsys):
    build_parser().parse_args(["synth", "--scenario", scenario, "--out-dir", "s"])
    with pytest.raises(SystemExit) as exc:
        run_cli("mc", "--scenario", scenario)
    assert exc.value.code == 2
    assert f"invalid choice: '{scenario}'" in capsys.readouterr().err


def test_battery_cell_reports_are_direct_test_reports(tmp_path):
    # n=20 rows in p=30: the anchored cell at K=2 is vacuous and the paired
    # baselines cannot run, so this one table holds reports and both nulls
    out = tmp_path / "wide"
    assert run_cli("synth", "--scenario", "null", "--n", 20, "--dim", 30, "--seed", 8,
                   "--out-dir", out) == 0
    table = tmp_path / "battery.json"
    rc = run_cli("battery", "--manifest", out / "manifest.json", "--k-grid", "2,3",
                 "--permutations", 49, "--seed", 1, "--format", "json", "--out", table)
    assert rc == 0
    (row,) = json.loads(table.read_text())["rows"]
    coll = load_manifest(out / "manifest.json").load_collection(out)
    cells = {int(k): c for k, c in row["anchored"].items()} | row["baselines"]
    r1, r2 = row["pair"]
    for method, cell in cells.items():
        seed = _cell_seed(1, "synth-null", r1, r2, method)
        try:
            if isinstance(method, str):
                report = BASELINES[method](coll.member(r1), coll.member(r2), 49, seed, 0.05)
            else:
                report = anchored_test(coll.anchor, (r1, member_partition(coll, r1, method, 1)),
                                       (r2, member_partition(coll, r2, method, 1)),
                                       R=49, seed=seed, alpha=0.05)
        except AnchorstatError:
            assert cell["report"] is None
            continue
        assert cell["report"] == report.to_dict()
        assert (cell["p_value"], cell["reject"]) == (report.p_value, report.reject)
    assert cells[2]["vacuous"] is True and cells[2]["report"] is None
    assert cells["hotelling"]["error"] == "need n > p, got n=20, p=30"
    assert cells["hotelling"]["report"] is None
    assert cells[3]["report"]["method"] == "anchored_johnson"
    assert cells["energy"]["report"]["method"] == "energy"


def test_battery_and_distances_share_one_mapped_set_per_member_and_k(tmp_path, monkeypatch):
    # every anchored cell of a battery, and the `distances` rows on the same
    # manifest and seed, describe a member at K by one partition
    from anchorstat import battery
    from anchorstat.anchor import mapped_distances
    from anchorstat.cluster import Partition
    from anchorstat.divergence import kl_divergence, wasserstein1

    manifest = _family_manifest(tmp_path, seed=3)
    anchor = load_manifest(manifest).load_collection(manifest.parent).anchor
    seen = {}
    test = battery.anchored_test

    def spy(anchor, *members, **kwargs):
        for role, part in members:
            seen.setdefault((role, part.K), set()).add(part.assignment.tobytes())
        return test(anchor, *members, **kwargs)

    monkeypatch.setattr(battery, "anchored_test", spy)
    grid = ("--k-grid", "2,3,4,5", "--seed", 7)
    rc = run_cli("battery", "--manifest", manifest, *grid, "--permutations", 19,
                 "--baselines", "none", "--out", tmp_path / "battery.csv")
    assert rc == 0
    assert len(seen) == 4 * 4  # four non-anchors at four K
    assert all(len(v) == 1 for v in seen.values())
    sets = {(role, K): mapped_distances(anchor, Partition(np.frombuffer(v.pop(), np.intp), K, 0.0))
            for (role, K), v in seen.items()}

    out = tmp_path / "curves.csv"
    assert run_cli("distances", "--manifest", manifest, *grid, "--out", out) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    assert len(rows) == 3 * 4
    for K, _, kl, w1, tag in rows:
        base, role = tag.removeprefix("H0(anchor; ").removesuffix(")").split(" vs ")
        a, b = sets[base, int(K)], sets[role, int(K)]
        assert kl == f"{kl_divergence(a, b):.12g}"
        assert w1 == f"{wasserstein1(a, b):.12g}"


def test_battery_member_with_too_few_rows_errors_in_each_of_its_rows():
    from anchorstat.battery import run_battery
    from anchorstat.corpus import validate_pairing
    from anchorstat.synth import ScenarioConfig, generate_battery_quad

    quad = generate_battery_quad(ScenarioConfig(n=40, seed=2))
    members = dict(quad.members)
    two_rows = np.repeat([[0.0, 1.0], [2.0, 3.0]], 20, axis=0)
    members["nonanchor_drifted"] = EmbeddingMatrix(two_rows, label="nonanchor_drifted")
    result = run_battery(validate_pairing(members), "quad",
                         ExperimentGrid((2, 3), permutations=19), baselines=())
    message = "ERROR: fewer than K=3 distinct rows; cannot form K non-empty clusters"
    for row in result.rows:
        assert row.anchored[2].error is None
        if "nonanchor_drifted" in row.pair:
            assert row.anchored[3].display == message
        else:
            assert row.anchored[3].error is None



@pytest.mark.filterwarnings("error")  # a numpy warning fails the test
def test_overflowing_anchor_distances_error_in_battery_cells_and_distances(tmp_path):
    # anchor rows of about +-1e308 overflow every mapped distance: each
    # anchored cell renders the refusal and `distances` stops with it,
    # with no numpy warning on its stderr
    manifest = _family_manifest(tmp_path, seed=3)
    anchor = load_matrix(tmp_path / "anchor.csv")
    values = anchor.values.copy()
    values[:2, 0] = [1e308, -1e308]
    save_matrix(EmbeddingMatrix(values, label="anchor"), tmp_path / "anchor.csv")
    message = "distances must be finite and nonnegative"
    out = tmp_path / "battery.csv"
    assert run_cli("battery", "--manifest", manifest, "--k-grid", "2,3",
                   "--permutations", 19, "--baselines", "none", "--out", out) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))[1:]
    assert len(rows) == 6 and all(row[2:4] == [f"ERROR: {message}"] * 2 for row in rows)
    run = run_python("-m", "anchorstat.cli", "distances", "--manifest", manifest,
                     "--k-grid", "2,3")
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr.splitlines() == ["seed: 0", f"error: {message}"]


@pytest.mark.parametrize("setting, message", [
    (dict(alpha=1.5), "alpha must be in (0,1), got 1.5"),
    (dict(alpha=0.0), "alpha must be in (0,1), got 0.0"),
    (dict(permutations=0), "permutation count must be >= 1, got 0"),
    (dict(k_values=(1, 2)), "grid K values must be >= 2, got (1, 2)"),
    (dict(seed=-1), "seed must be >= 0, got -1"),
])
def test_run_battery_refuses_a_bad_test_setting_before_clustering(monkeypatch, setting, message):
    # the grid refuses it as it is built, so no battery starts
    from anchorstat import battery
    from anchorstat.errors import ParameterError
    from anchorstat.synth import ScenarioConfig, generate_null_triple

    triple = generate_null_triple(ScenarioConfig(n=40, seed=2))
    monkeypatch.setattr(battery, "_member_partitions", lambda *args: pytest.fail("clustered"))
    with pytest.raises(ParameterError, match=re.escape(message)):
        run_battery(triple, "x", ExperimentGrid(**{"k_values": (2,), "permutations": 19,
                                                   **setting}), baselines=("nploc",))


def test_cli_import_loads_no_http_client():
    code = (
        "import sys, anchorstat.cli\n"
        "print([m for m in ('requests', 'urllib.request') if m in sys.modules])\n"
    )
    out = run_python("-c", code, check=True)
    assert out.stdout.strip() == "[]"


def test_commands_import_no_scipy(tmp_path):
    triple = _synth_manifest(tmp_path, n=60)
    family = _family_manifest(tmp_path)
    baselines = ["--baselines", "hotelling,nploc,energy", "--permutations", "19"]
    runs = [
        ["battery", "--manifest", triple, "--k-grid", "2", *baselines, "--out", "b.csv"],
        ["battery", "--manifest", triple, "--k-grid", "2", *baselines,
         "--format", "json", "--out", "b.json"],
        ["distances", "--manifest", family, "--out", "d.csv"],
        ["mc", "--scenario", "null", "--n", "60", "--m", "2", "--permutations", "19",
         "--out", "mc.json"],
    ]
    code = (
        "import json, sys\n"
        "from anchorstat.cli import main\n"
        "seen = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0\n"
        "    seen.append([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
        "print(json.dumps(seen))\n"
    )
    out = run_python("-c", code, json.dumps([[str(a) for a in r] for r in runs]),
                     cwd=tmp_path, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [[]] * len(runs)
    assert all((tmp_path / r[-1]).exists() for r in runs)


def test_battery_csv_schema_and_reproducibility(tmp_path):
    manifest = _synth_manifest(tmp_path, scenario="alt", seed=4)
    out1 = tmp_path / "battery1.csv"
    out2 = tmp_path / "battery2.csv"
    flags = [
        "battery", "--manifest", manifest,
        "--k-grid", "2,3", "--permutations", 199, "--seed", 11,
    ]
    assert run_cli(*flags, "--out", out1) == 0
    assert run_cli(*flags, "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == (
        "dataset,hypothesis,anchored_K2,anchored_K3,hotelling,nploc,energy,ball_external"
    )
    assert len(out1.read_text().splitlines()) == 2  # one non-anchor pair


def test_battery_csv_rows_keep_the_header_width():
    # n <= p: the hotelling and nploc cells read "ERROR: need n > p, got n=20, p=30"
    rng = np.random.default_rng(0)
    coll = validate_pairing({role: EmbeddingMatrix(values=rng.normal(size=(20, 30)))
                             for role in ("anchor", "na1", "na2")})
    result = run_battery(coll, "wide, real", ExperimentGrid((2,), alpha=0.05, permutations=19))
    assert result.rows[0].baselines["hotelling"].display.startswith("ERROR: need n > p, ")
    curves = [{"K": 2, "rho": 0.5, "kl": 0.1, "wasserstein": 0.2, "hypothesis_tag": "p1,p2"}]
    for text in (battery_csv(result), curves_csv(curves)):
        header, *rows = csv.reader(io.StringIO(text))
        assert rows and all(len(row) == len(header) for row in rows)


@pytest.mark.parametrize("command", ["mc", "battery", "battery-json"])
def test_stdout_holds_only_the_document(tmp_path, capsys, command):
    manifest = _synth_manifest(tmp_path, scenario="alt", seed=2, n=60)
    capsys.readouterr()
    battery = ("battery", "--manifest", manifest, "--k-grid", 2, "--permutations", 19)
    argv = {
        "mc": ("mc", "--scenario", "null", "--n", 40, "--m", 1, "--permutations", 19),
        "battery": battery,
        "battery-json": (*battery, "--format", "json"),
    }[command]
    assert run_cli(*argv) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("seed: ")
    if command == "battery":
        assert captured.out.startswith("dataset,hypothesis,anchored_K2,")
    elif command == "battery-json":
        (row,) = json.loads(captured.out)["rows"]
        cells = [*row["anchored"].values(), *row["baselines"].values()]
        assert len(cells) == 4 and all(cell["report"]["p_value"] for cell in cells)
    else:
        json.loads(captured.out)


def test_battery_alt_triple_all_anchored_cells_significant(tmp_path):
    manifest = _synth_manifest(tmp_path, scenario="alt", seed=21, n=300)
    out = tmp_path / "battery.json"
    rc = run_cli(
        "battery", "--manifest", manifest,
        "--k-grid", "2,3,4,5", "--permutations", 199, "--seed", 3,
        "--format", "json", "--out", out,
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    cells = doc["rows"][0]["anchored"]
    assert all(cells[k]["reject"] for k in ("2", "3", "4", "5"))


def test_battery_baselines_none_disables_columns(tmp_path):
    manifest = _synth_manifest(tmp_path, scenario="alt", seed=23)
    out = tmp_path / "battery.csv"
    rc = run_cli(
        "battery", "--manifest", manifest,
        "--k-grid", "2", "--permutations", 99, "--seed", 0,
        "--baselines", "none", "--out", out,
    )
    assert rc == 0
    header = out.read_text().splitlines()[0]
    assert header == "dataset,hypothesis,anchored_K2,ball_external"


def test_battery_json_contains_raw_pvalues(tmp_path):
    manifest = _synth_manifest(tmp_path, scenario="alt", seed=7)
    out = tmp_path / "battery.json"
    rc = run_cli(
        "battery", "--manifest", manifest,
        "--k-grid", "2", "--permutations", 199, "--seed", 1,
        "--format", "json", "--out", out,
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    row = doc["rows"][0]
    assert row["anchored"]["2"]["p_value"] is not None
    assert row["baselines"]["hotelling"]["p_value"] is not None


def test_manifest_and_battery_json_write_the_grid_as_its_four_fields(tmp_path):
    # both documents write the grid's own fields, with its values
    manifest = _synth_manifest(tmp_path, scenario="null", seed=2, n=40)
    grid = ExperimentGrid((3, 2), alpha=0.1, permutations=19, seed=7)
    save_manifest(dataclasses.replace(load_manifest(manifest), grid=grid), manifest)
    form = {"k_values": [3, 2], "alpha": 0.1, "permutations": 19, "seed": 7}
    assert list(form) == [f.name for f in dataclasses.fields(ExperimentGrid)]
    assert json.loads(manifest.read_text())["grid"] == form
    out = tmp_path / "battery.json"
    assert run_cli("battery", "--manifest", manifest, "--baselines", "none",
                   "--format", "json", "--out", out) == 0
    doc = json.loads(out.read_text())
    assert {key: doc[key] for key in doc if key not in ("dataset", "rows")} == form


def test_battery_json_hotelling_underflow(tmp_path):
    # a mean shift of 50 between the members underflows the F tail
    manifest = _synth_manifest(tmp_path, scenario="null", seed=4, n=300)
    base = load_matrix(manifest.parent / "nonanchor_1.csv").values
    shifted = base + 50.0 + np.random.default_rng(4).normal(size=base.shape)
    save_matrix(EmbeddingMatrix(values=shifted), manifest.parent / "nonanchor_2.csv")
    out = tmp_path / "battery.json"
    rc = run_cli(
        "battery", "--manifest", manifest,
        "--k-grid", "2", "--permutations", 99, "--seed", 0,
        "--baselines", "hotelling", "--format", "json", "--out", out,
    )
    assert rc == 0
    cell = json.loads(out.read_text())["rows"][0]["baselines"]["hotelling"]
    assert cell["p_value"] == np.nextafter(0, 1) and cell["reject"] is True


def test_battery_cell_diagnostics_do_not_abort(tmp_path):
    # identical non-anchor files: the anchored cells and paired baselines
    # are vacuous, yet the battery still renders a complete row
    manifest_path = _synth_manifest(tmp_path, scenario="null", seed=17)
    base = manifest_path.parent
    shutil.copyfile(base / "nonanchor_1.csv", base / "nonanchor_2.csv")
    out = tmp_path / "battery.json"
    rc = run_cli(
        "battery", "--manifest", manifest_path,
        "--k-grid", "2", "--permutations", 99, "--seed", 0,
        "--format", "json", "--out", out,
    )
    assert rc == 0
    row = json.loads(out.read_text())["rows"][0]
    assert row["anchored"]["2"]["vacuous"] is True
    assert row["anchored"]["2"]["display"] == "identical"
    assert row["anchored"]["2"]["reject"] is False
    assert row["anchored"]["2"]["report"] is None
    assert row["baselines"]["hotelling"]["vacuous"] is True
    # the unpaired baseline sees two equal samples: a p-value near 1
    assert row["baselines"]["energy"]["p_value"] > 0.5


def test_mc_output_file_reproducible(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"mc-{tag}.json"
        rc = run_cli(
            "mc", "--scenario", "alt", "--n", 100, "--m", 3,
            "--permutations", 49, "--seed", 2, "--out", out,
        )
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_battery_empty_manifest_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"datasets": [], "grid": {}}))
    rc = run_cli("battery", "--manifest", bad)
    assert rc != 0
    assert "error" in capsys.readouterr().err.lower()


def test_battery_rejects_repeated_k(tmp_path, capsys, matrix_loads):
    manifest = _synth_manifest(tmp_path, n=40)
    out = tmp_path / "battery.csv"
    rc = run_cli("battery", "--manifest", manifest, "--k-grid", "2,2", "--out", out)
    assert rc == 1
    assert "grid K values must be distinct, got (2, 2)" in capsys.readouterr().err
    assert not out.exists()
    assert matrix_loads == []


def test_unknown_baseline_is_refused_before_any_matrix_is_read(tmp_path, capsys, matrix_loads):
    manifest = _synth_manifest(tmp_path, n=40)
    out = tmp_path / "out"
    rc = run_cli("battery", "--manifest", manifest, "--pca-dim", 2,
                 "--baselines", "hotelling,foo", "--out", out)
    assert rc == 1
    assert "unknown baselines: ['foo']" in capsys.readouterr().err
    assert not out.exists()
    assert matrix_loads == []


def test_load_collection_checks_every_path_before_it_reads_a_matrix(tmp_path, matrix_loads):
    manifest_path = _synth_manifest(tmp_path, n=40)
    manifest = load_manifest(manifest_path)
    last = manifest_path.parent / manifest.entries[-1].path
    last.unlink()
    with pytest.raises(ManifestError, match=re.escape(f"manifest path does not exist: {last}")):
        manifest.load_collection(manifest_path.parent)
    assert matrix_loads == []


@pytest.mark.parametrize("command", ["battery"])
def test_repeated_baseline_is_a_usage_error(tmp_path, capsys, command):
    manifest = _synth_manifest(tmp_path, n=40)
    out = tmp_path / "out"
    rc = run_cli(command, "--manifest", manifest, "--k-grid", 2, "--permutations", 19,
                 "--baselines", "hotelling,nploc,hotelling", "--out", out)
    assert rc == 1
    err = capsys.readouterr().err
    assert "baseline 'hotelling' is repeated in 'hotelling,nploc,hotelling'" in err
    assert not out.exists()


def test_run_battery_refuses_a_repeated_baseline(monkeypatch):
    # the library refuses the list that the CLI refuses, before clustering
    from anchorstat import battery
    from anchorstat.errors import ManifestError
    from anchorstat.synth import ScenarioConfig, generate_null_triple

    triple = generate_null_triple(ScenarioConfig(n=40, seed=2))
    monkeypatch.setattr(battery, "_member_partitions", lambda *args: pytest.fail("clustered"))
    with pytest.raises(ManifestError, match="baseline 'nploc' is repeated in 'nploc,nploc'"):
        run_battery(triple, "x", ExperimentGrid((2,), permutations=19),
                    baselines=("nploc", "nploc"))


def _family_manifest(tmp_path, seed=0):
    from anchorstat.synth import ScenarioConfig, generate_drift_family

    cfg = ScenarioConfig(n=250, dim=2, K_true=2, community_separation=8.0, seed=seed)
    fam = generate_drift_family(cfg, [(0.1, 0.02), (0.7, 0.3), (1.5, 0.85)])
    return write_collection(tmp_path, fam, "family")


def test_distances_monotone_family(tmp_path):
    manifest = _family_manifest(tmp_path, seed=3)
    out = tmp_path / "curves.csv"
    rc = run_cli("distances", "--manifest", manifest, "--seed", 2, "--out", out)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "K,rho,kl,wasserstein,hypothesis_tag"
    rows = [ln.split(",") for ln in lines[1:]]
    w1_by_rho = {float(r[1]): float(r[3]) for r in rows if int(r[0]) == 2}
    ordered = [w1_by_rho[rho] for rho in sorted(w1_by_rho)]
    assert ordered == sorted(ordered)
    assert ordered[0] < ordered[-1]  # strictly increasing overall


def test_distances_identical_sets_zero_row(tmp_path):
    # drift fraction 0 plus wide separation: both members recover the same
    # partition, so the mapped distances coincide exactly
    from anchorstat.synth import ScenarioConfig, generate_drift_family

    cfg = ScenarioConfig(n=100, dim=2, K_true=2, community_separation=40.0, seed=4)
    manifest = write_collection(tmp_path, generate_drift_family(cfg, [(0.5, 0.0)]), "zero")
    out = tmp_path / "curves.csv"
    assert run_cli("distances", "--manifest", manifest, "--out", out) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[2]) == pytest.approx(0.0, abs=1e-9)
    assert float(row[3]) == pytest.approx(0.0, abs=1e-9)


def test_synth_drift_then_distances_is_the_divergence_curves(tmp_path):
    # the divergence-curve study: the drift family at its module temperatures,
    # written with each member's temperature, then `distances`
    from anchorstat.battery import run_distance_curves
    from anchorstat.synth import DRIFT_RHO_FRACTIONS, ScenarioConfig, generate_drift_family

    manifest = _synth_manifest(tmp_path, scenario="drift", seed=1, n=60)
    temperatures = {e.role: e.temperature for e in load_manifest(manifest).entries}
    assert temperatures == {"anchor": None, "nonanchor_base": None, "nonanchor_rho_0.1": 0.1,
                            "nonanchor_rho_0.4": 0.4, "nonanchor_rho_0.7": 0.7,
                            "nonanchor_rho_1": 1.0, "nonanchor_rho_1.5": 1.5}
    out = tmp_path / "curves.csv"
    assert run_cli("distances", "--manifest", manifest, "--k-grid", "2,3", "--out", out) == 0
    family = generate_drift_family(ScenarioConfig(n=60, seed=1), DRIFT_RHO_FRACTIONS)
    assert out.read_bytes() == curves_csv(run_distance_curves(family, (2, 3), 1)).encode()


def test_distances_missing_rho_manifest_error(tmp_path, capsys):
    manifest = _synth_manifest(tmp_path, scenario="null", seed=5)
    rc = run_cli("distances", "--manifest", manifest)
    assert rc != 0
    assert "temperature" in capsys.readouterr().err


def test_mc_writes_report_with_rate(tmp_path):
    out = tmp_path / "mc.json"
    rc = run_cli(
        "mc", "--scenario", "alt",
        "--n", 120, "--m", 4, "--permutations", 99, "--seed", 1,
        "--out", out,
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert "rate" in doc and 0.0 <= doc["rate"] <= 1.0
    assert doc["M"] == 4


@pytest.mark.parametrize("flag,value,message", [
    ("--alpha", 1.5, "alpha must be in (0,1)"),
    ("--alpha", 0, "alpha must be in (0,1)"),
    ("--permutations", 0, "permutation count must be >= 1"),
])
def test_mc_rejects_bad_grid_flags(tmp_path, capsys, flag, value, message):
    # separation 40 makes every replicate vacuous, which used to hide R = 0
    out = tmp_path / "mc.json"
    rc = run_cli(
        "mc", "--scenario", "null", "--n", 80, "--separation", 40, "--m", 2,
        "--seed", 7, flag, value, "--out", out,
    )
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


# each subcommand's optional flags: a new knob needs a deliberate edit here
OPTIONAL_FLAGS = {
    "battery": "--k-grid --alpha --permutations --seed --out --format --baselines --pca-dim",
    "distances": "--k-grid --seed --out --pca-dim",
    "synth": "--n --dim --k-true --separation --noise --k-grid --alpha --permutations --seed",
    "mc": "--n --dim --k-true --separation --noise --alpha --permutations --seed --m --k --out",
    "ingest": "--format --normalize --out-dir --label --k-grid --alpha --permutations --seed",
    "embed": "--format --base-url --embed-model --api-key-env --cache-dir --batch-size",
}


def test_optional_flags_are_pinned():
    (action,) = build_parser()._subparsers._group_actions
    found = {
        name: sorted(flag for a in sub._actions if a.option_strings and not a.required
                     for flag in a.option_strings if flag not in ("-h", "--help"))
        for name, sub in action.choices.items()
    }
    assert found == {name: sorted(flags.split()) for name, flags in OPTIONAL_FLAGS.items()}


# every defaulted parameter of a public function, or of a public method of
# a public class, defined in an anchorstat module, with its default
LIBRARY_DEFAULTS = {
    "battery.run_battery(baselines)": ("hotelling", "nploc", "energy"),
    "battery.run_distance_curves(seed)": 0,
    "cli.main(argv)": None,
    "cluster.kmeans(debug)": False,
    "cluster.kmeans(seed)": 0,
    "corpus.load_matrix(fmt)": "csv",
    "corpus.load_matrix(label)": None,
    "corpus.save_matrix(fmt)": "csv",
    "corpus.validate_pairing(temperatures)": None,
    "stattests.anchored_test(R)": 999,
    "stattests.anchored_test(alpha)": 0.05,
    "stattests.anchored_test(seed)": 0,
    "stattests.energy_test(R)": 999,
    "stattests.energy_test(alpha)": 0.05,
    "stattests.energy_test(seed)": 0,
    "stattests.hotelling_paired(alpha)": 0.05,
    "stattests.hotelling_paired(seed)": 0,
    "stattests.nploc_mean_test(R)": 999,
    "stattests.nploc_mean_test(alpha)": 0.05,
    "stattests.nploc_mean_test(seed)": 0,
    "stattests.sign_flip_pvalue(R)": 999,
    "stattests.sign_flip_pvalue(alpha)": 0.05,
    "stattests.sign_flip_pvalue(seed)": 0,
    "synth.monte_carlo(K)": None,
    "synth.monte_carlo(R)": 999,
    "synth.monte_carlo(alpha)": 0.05,
}


def test_library_defaults_are_pinned():
    found = {}
    for info in pkgutil.iter_modules(anchorstat.__path__):
        module = importlib.import_module(f"anchorstat.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                functions = {name: obj}
            elif inspect.isclass(obj):
                functions = {f"{name}.{m}": f for m, f in vars(obj).items()
                             if not m.startswith("_") and inspect.isfunction(f)}
            else:
                continue
            for qualname, f in functions.items():
                for param in inspect.signature(f).parameters.values():
                    if param.default is not param.empty:
                        found[f"{info.name}.{qualname}({param.name})"] = param.default
    assert found == LIBRARY_DEFAULTS



# every field of a public dataclass defined in an anchorstat module, with
# its default: REQUIRED when it has none, the factory when it has one
REQUIRED = "required"
CONFIG_FIELDS = {
    "battery.BatteryCell": {"display": REQUIRED, "report": None, "error": None},
    "battery.BatteryResult": {"dataset": REQUIRED, "grid": REQUIRED, "baselines": REQUIRED,
                              "rows": tuple},
    "battery.BatteryRow": {"pair": REQUIRED, "anchored": REQUIRED, "baselines": REQUIRED},
    "cluster.Partition": {"assignment": REQUIRED, "K": REQUIRED, "wcss": REQUIRED},
    "corpus.DatasetManifest": {"entries": REQUIRED, "grid": REQUIRED, "label": ""},
    "corpus.EmbeddingMatrix": {"values": REQUIRED, "label": ""},
    "corpus.ExperimentGrid": {"k_values": (2, 3, 4, 5), "alpha": 0.05, "permutations": 999,
                              "seed": 0},
    "corpus.ManifestEntry": {"path": REQUIRED, "role": REQUIRED, "temperature": None,
                             "fmt": "csv"},
    "corpus.PairedCollection": {"members": REQUIRED, "n": REQUIRED, "temperatures": dict},
    "llmpipeline.ClientConfig": {"base_url": "http://localhost:8000/v1",
                                 "embed_model": "embedding-model",
                                 "api_key_env": "LLM_API_KEY",
                                 "cache_dir": ".anchorstat-cache", "embed_batch_size": 128,
                                 "transport": llmpipeline._urllib_transport},
    "preprocess.PcaModel": {"mean": REQUIRED, "components": REQUIRED},
    "stattests.TestReport": {"method": REQUIRED, "statistic": REQUIRED, "p_value": REQUIRED,
                             "replicates": REQUIRED, "seed": REQUIRED, "alpha": REQUIRED,
                             "metadata": dict},
    "synth.MonteCarloReport": {name: REQUIRED for name in (
        "scenario", "M", "rejections", "vacuous", "rate", "ci_low", "ci_high",
        "degenerate_ci", "mean_runtime_s", "alpha", "K", "replicates", "seed")},
    "synth.ScenarioConfig": {"n": 300, "dim": 2, "K_true": 2, "community_separation": 8.0,
                             "noise_sd": 1.0, "seed": 0},
}


def test_config_fields_are_pinned():
    found = {}
    for info in pkgutil.iter_modules(anchorstat.__path__):
        module = importlib.import_module(f"anchorstat.{info.name}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or getattr(obj, "__module__", None) != module.__name__
                    or not (inspect.isclass(obj) and dataclasses.is_dataclass(obj))):
                continue
            found[f"{info.name}.{name}"] = {
                f.name: f.default if f.default is not dataclasses.MISSING
                else f.default_factory if f.default_factory is not dataclasses.MISSING
                else REQUIRED
                for f in dataclasses.fields(obj)
            }
    # as item lists, so that the field order (the positional signature) counts too
    assert {k: list(v.items()) for k, v in found.items()} == {
        k: list(v.items()) for k, v in CONFIG_FIELDS.items()
    }


# every public function and class defined in an anchorstat module: a new
# or removed name needs a deliberate edit here
PUBLIC_NAMES = {
    "anchor": "mapped_centers mapped_distances",
    "battery": "BatteryCell BatteryResult BatteryRow battery_csv battery_json curves_csv "
               "format_p member_partition reduce_members run_battery run_distance_curves",
    "cli": "build_parser cmd_battery cmd_distances cmd_embed cmd_ingest cmd_mc cmd_synth main",
    "cluster": "Partition kmeans",
    "corpus": "DatasetManifest EmbeddingMatrix ExperimentGrid ManifestEntry PairedCollection "
              "load_manifest load_matrix normalize_rows save_manifest save_matrix "
              "validate_pairing write_text",
    "divergence": "kl_divergence wasserstein1",
    "errors": "AnchorstatError CorpusFormatError DegeneracyError DegenerateSampleError "
              "DimensionError GuardError ManifestError PairingError ParameterError "
              "TransportError VacuousTestError",
    "llmpipeline": "ClientConfig embed_batch",
    "preprocess": "PcaModel apply_pca fit_pca joint_width reduce_jointly",
    "sharding": "run_sharded split_range usable_cpus",
    "stattests": "TestReport anchored_test energy_statistic energy_test hotelling_paired "
                 "johnson_t nploc_mean_test sign_flip_pvalue",
    "synth": "MonteCarloReport ScenarioConfig generate_alt_triple "
             "generate_battery_quad generate_drift_family generate_null_triple "
             "generate_scenario monte_carlo rand_index",
}


def test_public_names_are_pinned():
    found = {}
    for info in pkgutil.iter_modules(anchorstat.__path__):
        module = importlib.import_module(f"anchorstat.{info.name}")
        found[info.name] = sorted(
            name for name, obj in vars(module).items()
            if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
            and (inspect.isfunction(obj) or inspect.isclass(obj))
        )
    assert found == {name: sorted(names.split()) for name, names in PUBLIC_NAMES.items()}
    missing = [name for name in anchorstat.__all__ if not hasattr(anchorstat, name)]
    assert missing == []


@pytest.mark.parametrize("command, flag, value", [
    pytest.param("mc", "--k-grid", "x", id="mc--k-grid"),
    pytest.param("battery", "--pca-mode", "joint", id="battery--pca-mode"),
    pytest.param("distances", "--pca-mode", "joint", id="distances--pca-mode"),
    pytest.param("distances", "--alpha", 0.5, id="distances--alpha"),
    pytest.param("distances", "--permutations", 5, id="distances--permutations"),
    pytest.param("embed", "--seed", 5, id="embed--seed"),
])
def test_flag_the_command_would_ignore_is_a_usage_error(capsys, command, flag, value):
    required = {
        "mc": ("--scenario", "null"), "embed": ("--input", "t.txt", "--out", "e.csv"),
    }.get(command, ("--manifest", "m.json"))
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *required, flag, value)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_battery_has_no_jobs_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("battery", "--manifest", "m.json", "--jobs", 2)
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_reduce_is_not_a_command(capsys):
    # members are reduced only inside `battery` and `distances` (--pca-dim)
    with pytest.raises(SystemExit) as exc:
        run_cli("reduce", "--manifest", "m.json", "--pca-dim", 2)
    assert exc.value.code == 2
    assert "invalid choice: 'reduce'" in capsys.readouterr().err


def test_test_is_not_a_command(capsys):
    # one anchored test is a battery cell: `battery --k-grid K` on the triple
    with pytest.raises(SystemExit) as exc:
        run_cli("test", "--manifest", "m.json", "--k", 2)
    assert exc.value.code == 2
    assert "invalid choice: 'test'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["battery", "distances"])
def test_pca_dim_zero_is_an_error(tmp_path, capsys, matrix_loads, command):
    manifest = _family_manifest(tmp_path)
    out = tmp_path / "out.csv"
    rc = run_cli(command, "--manifest", manifest, "--pca-dim", 0, "--out", out)
    assert rc == 1
    assert "target dimension p=0 out of range" in capsys.readouterr().err
    assert not out.exists()
    assert matrix_loads == []


def test_ingest_builds_manifest(tmp_path):
    rng = np.random.default_rng(1)
    for role in ("anchor", "na1", "na2"):
        save_matrix(EmbeddingMatrix(values=rng.normal(size=(12, 3))), tmp_path / f"{role}.csv")
    out_manifest = tmp_path / "manifest.json"
    rc = run_cli(
        "ingest",
        "--dataset", f"{tmp_path}/anchor.csv:anchor",
        "--dataset", f"{tmp_path}/na1.csv:na1:0.1",
        "--dataset", f"{tmp_path}/na2.csv:na2:0.7",
        "--out-manifest", out_manifest,
        "--label", "demo",
        "--seed", 0,
    )
    assert rc == 0
    manifest = load_manifest(out_manifest)
    assert manifest.label == "demo"
    assert manifest.entries[1].temperature == 0.1


def test_ingest_skips_whitespace_only_lines(tmp_path):
    rng = np.random.default_rng(1)
    for role in ("anchor", "na1", "na2"):
        save_matrix(EmbeddingMatrix(values=rng.normal(size=(12, 3))), tmp_path / f"{role}.csv")
    path = tmp_path / "na1.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:5] + ["   "] + lines[5:]) + "\n \n")
    rc = run_cli(
        "ingest",
        "--dataset", f"{tmp_path}/anchor.csv:anchor",
        "--dataset", f"{path}:na1",
        "--dataset", f"{tmp_path}/na2.csv:na2",
        "--out-manifest", tmp_path / "manifest.json",
    )
    assert rc == 0
    assert load_matrix(path).n == 12


def test_ingest_mismatched_rows_fails(tmp_path, capsys):
    rng = np.random.default_rng(2)
    save_matrix(EmbeddingMatrix(values=rng.normal(size=(12, 3))), tmp_path / "a.csv")
    save_matrix(EmbeddingMatrix(values=rng.normal(size=(11, 3))), tmp_path / "b.csv")
    save_matrix(EmbeddingMatrix(values=rng.normal(size=(12, 3))), tmp_path / "c.csv")
    rc = run_cli(
        "ingest",
        "--dataset", f"{tmp_path}/a.csv:anchor",
        "--dataset", f"{tmp_path}/b.csv:na1",
        "--dataset", f"{tmp_path}/c.csv:na2",
        "--out-manifest", tmp_path / "m.json",
    )
    assert rc != 0
    assert "row counts" in capsys.readouterr().err


def test_ingest_names_a_member_that_is_not_utf8(tmp_path, capsys):
    for role in ("anchor", "na1", "na2"):
        (tmp_path / f"{role}.csv").write_bytes(b"1,2\n3,4\n5,6\n")
    bad = tmp_path / "na1.csv"
    bad.write_bytes(b"1,2\n3,\xff4\n5,6\n")
    rc = run_cli(
        "ingest",
        "--dataset", f"{tmp_path}/anchor.csv:anchor",
        "--dataset", f"{bad}:na1",
        "--dataset", f"{tmp_path}/na2.csv:na2",
        "--out-manifest", tmp_path / "m.json",
    )
    assert rc == 1
    # the undecodable byte reads as U+FFFD
    assert f"error: non-numeric cell '\ufffd4' at row 1, col 1 in {bad}\n" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_unknown_manifest_format_is_refused_before_any_matrix_is_read(tmp_path, capsys,
                                                                       matrix_loads):
    manifest = _synth_manifest(tmp_path, n=40)
    doc = json.loads(manifest.read_text())
    doc["datasets"][2]["format"] = "bin"
    manifest.write_text(json.dumps(doc))
    rc = run_cli("battery", "--manifest", manifest, "--out", tmp_path / "out.csv")
    assert rc == 1
    assert "manifest datasets[2]: unknown matrix format 'bin'" in capsys.readouterr().err
    assert matrix_loads == []


def test_every_command_prints_seed(tmp_path, capsys):
    _synth_manifest(tmp_path, scenario="null", seed=13)
    out = capsys.readouterr().err
    assert "seed: 13" in out


@pytest.mark.parametrize("normalize", [False, True])
def test_ingest_into_a_subdirectory_then_battery(tmp_path, monkeypatch, normalize):
    # relative --dataset and --out-dir paths are stored relative to the
    # manifest's directory, where `battery` resolves them
    monkeypatch.chdir(tmp_path)
    _synth_manifest(Path("."), scenario="null", seed=4, n=40)
    data = Path("null4")
    Path("sub").mkdir()
    flags = ("--normalize", "--out-dir", "norm") if normalize else ()
    rc = run_cli(
        "ingest",
        "--dataset", data / "anchor.csv:anchor",
        "--dataset", data / "nonanchor_1.csv:nonanchor_1",
        "--dataset", f"{tmp_path}/{data}/nonanchor_2.csv:nonanchor_2",
        *flags,
        "--out-manifest", "sub/m.json",
    )
    assert rc == 0
    paths = [e.path for e in load_manifest("sub/m.json").entries]
    if normalize:
        assert paths[:2] == ["../norm/anchor.norm.csv", "../norm/nonanchor_1.norm.csv"]
    else:
        assert paths == ["../null4/anchor.csv", "../null4/nonanchor_1.csv",
                         f"{tmp_path}/null4/nonanchor_2.csv"]
    rc = run_cli("battery", "--manifest", "sub/m.json", "--k-grid", 2,
                 "--permutations", 19, "--out", "battery.csv")
    assert rc == 0
    assert Path("battery.csv").read_text().startswith("dataset,")


@pytest.mark.parametrize("command", ["ingest", "battery", "mc", "distances"])
def test_output_parent_directories_are_created(tmp_path, command):
    manifest = _synth_manifest(tmp_path, scenario="null", seed=5, n=40)
    data = manifest.parent
    out = tmp_path / "new" / "deeper" / "out"
    argv = {
        "distances": ("distances", "--manifest", _synth_manifest(tmp_path, "drift", n=40),
                      "--k-grid", 2, "--out", out),
        "ingest": ("ingest", "--dataset", f"{data}/anchor.csv:anchor",
                   "--dataset", f"{data}/nonanchor_1.csv:nonanchor_1",
                   "--dataset", f"{data}/nonanchor_2.csv:nonanchor_2",
                   "--out-manifest", out),
        "battery": ("battery", "--manifest", manifest, "--k-grid", 2,
                    "--permutations", 19, "--baselines", "none", "--out", out),
        "mc": ("mc", "--scenario", "null", "--n", 40, "--m", 1, "--permutations", 19,
               "--out", out),
    }[command]
    assert run_cli(*argv) == 0
    assert out.read_text()


def test_ingest_normalize_of_its_own_output_rewrites_identical_files(tmp_path):
    rng = np.random.default_rng(6)
    temperatures = {"anchor": "", "na1": "0.7", "na2": ""}
    for role in temperatures:
        save_matrix(EmbeddingMatrix(values=rng.normal(size=(200, 16))),
                    tmp_path / "raw" / f"{role}.norm.csv")
    for source, out in (("raw", "once"), ("once", "twice")):
        datasets = [f"--dataset={tmp_path}/{source}/{role}.norm.csv:{role}:{t}"
                    for role, t in temperatures.items()]
        assert run_cli("ingest", *datasets, "--normalize", "--out-dir", tmp_path / out,
                       "--out-manifest", tmp_path / f"{out}.json") == 0
    for role in temperatures:
        once = (tmp_path / "once" / f"{role}.norm.csv").read_bytes()
        assert (tmp_path / "twice" / f"{role}.norm.csv").read_bytes() == once


def test_ingest_out_dir_needs_normalize(tmp_path, capsys):
    # rejected before any matrix is read: the dataset paths do not exist
    rc = run_cli(
        "ingest",
        "--dataset", tmp_path / "anchor.csv:anchor",
        "--dataset", tmp_path / "na1.csv:na1",
        "--out-dir", tmp_path / "norm",
        "--out-manifest", tmp_path / "m.json",
    )
    assert rc == 1
    assert "--out-dir needs --normalize" in capsys.readouterr().err
    assert not (tmp_path / "norm").exists() and not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("roles, message", [
    (("anchor", "g", "g"), "manifest roles must be unique"),
    (("na1", "na2", "na3"), "exactly one anchor role, found 0"),
    (("anchor", "na1"), "at least two non-anchor members"),
], ids=["repeated", "no-anchor", "one-non-anchor"])
def test_ingest_refuses_a_bad_role_set_before_any_copy(tmp_path, capsys, roles, message):
    rng = np.random.default_rng(4)
    args = []
    for i, role in enumerate(roles):
        save_matrix(EmbeddingMatrix(values=rng.normal(size=(12, 3))), tmp_path / f"{i}.csv")
        args += ["--dataset", f"{tmp_path}/{i}.csv:{role}"]
    rc = run_cli("ingest", *args, "--normalize", "--out-dir", tmp_path / "norm",
                 "--out-manifest", tmp_path / "m.json")
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "norm").exists() and not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command", ["mc", "synth", "battery", "ingest"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    manifest = _synth_manifest(tmp_path, scenario="null", seed=5, n=40)
    data = manifest.parent
    argv = {
        "mc": ("mc", "--scenario", "null", "--n", 40, "--m", 1),
        "synth": ("synth", "--scenario", "null", "--out-dir", tmp_path / "out"),
        "battery": ("battery", "--manifest", manifest),
        "ingest": ("ingest", "--dataset", f"{data}/anchor.csv:anchor",
                   "--dataset", f"{data}/nonanchor_1.csv:nonanchor_1",
                   "--dataset", f"{data}/nonanchor_2.csv:nonanchor_2",
                   "--out-manifest", tmp_path / "out" / "m.json"),
    }[command]
    rc = run_cli(*argv, "--seed", -1)
    assert rc == 1
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_manifest_seed_is_a_manifest_error(tmp_path, capsys):
    manifest = _synth_manifest(tmp_path, scenario="null", seed=5, n=40)
    doc = json.loads(manifest.read_text())
    doc["grid"]["seed"] = -3
    manifest.write_text(json.dumps(doc))
    rc = run_cli("battery", "--manifest", manifest)
    assert rc == 1
    assert "seed must be >= 0, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("battery", "--baselines", "none"), ("battery", "--k-grid", ""),
], ids=" ".join)
def test_empty_k_grid_is_a_manifest_error(tmp_path, capsys, argv):
    manifest = _synth_manifest(tmp_path, scenario="null", seed=5, n=40)
    doc = json.loads(manifest.read_text())
    if "--k-grid" not in argv:
        doc["grid"]["k_values"] = []
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    rc = run_cli(*argv, "--manifest", manifest, "--out", out)
    assert rc == 1
    assert "error: grid K values must not be empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("noise", ["nan", "inf"])
@pytest.mark.parametrize("command", ["mc", "synth"])
def test_non_finite_noise_names_noise_sd(tmp_path, capsys, command, noise):
    out = {"mc": ("--m", 1, "--out", tmp_path / "mc.json"),
           "synth": ("--out-dir", tmp_path / "s")}[command]
    rc = run_cli(command, "--scenario", "null", "--n", 40, "--noise", noise, *out)
    assert rc == 1
    assert f"noise_sd must be finite and > 0, got {noise}" in capsys.readouterr().err
    assert not out[-1].exists()


def test_embed_without_texts_is_an_error(tmp_path, capsys):
    (tmp_path / "t.txt").write_text("\n  \n")
    rc = run_cli("embed", "--input", tmp_path / "t.txt", "--out", tmp_path / "e.csv",
                 "--cache-dir", tmp_path / "cache")
    assert rc == 1
    assert "error: need at least 2 texts to embed, got 0" in capsys.readouterr().err
    assert not (tmp_path / "e.csv").exists()


def test_embed_input_that_is_not_utf8_is_an_error(tmp_path, capsys):
    (tmp_path / "t.txt").write_bytes(b"first text\n\xffsecond text\n")
    rc = run_cli("embed", "--input", tmp_path / "t.txt", "--out", tmp_path / "e.csv",
                 "--cache-dir", tmp_path / "cache")
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: --input {tmp_path / 't.txt'} is not UTF-8 text: " in err
    assert not (tmp_path / "e.csv").exists()
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("temperature", ["nan", "inf", "-inf"])
def test_ingest_non_finite_temperature_is_a_usage_error(tmp_path, capsys, temperature):
    data = _synth_manifest(tmp_path, scenario="null", seed=5, n=40).parent
    hot = f"{data}/nonanchor_1.csv:nonanchor_1:{temperature}"
    rc = run_cli(
        "ingest",
        "--dataset", f"{data}/anchor.csv:anchor",
        "--dataset", hot,
        "--dataset", f"{data}/nonanchor_2.csv:nonanchor_2",
        "--out-manifest", tmp_path / "m.json",
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: bad temperature '{temperature}' in --dataset '{hot}'" in err
    assert not (tmp_path / "m.json").exists()


def test_ingest_bad_temperature_is_a_usage_error(tmp_path, capsys):
    data = _synth_manifest(tmp_path, scenario="null", seed=5, n=40).parent
    hot = f"{data}/nonanchor_1.csv:nonanchor_1:hot"
    rc = run_cli(
        "ingest",
        "--dataset", f"{data}/anchor.csv:anchor",
        "--dataset", hot,
        "--dataset", f"{data}/nonanchor_2.csv:nonanchor_2",
        "--out-manifest", tmp_path / "m.json",
    )
    assert rc == 1
    assert f"error: bad temperature 'hot' in --dataset '{hot}'" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("descriptor", [
    "{data}/nonanchor_1.csv:g:0.7:junk", "{data}/nonanchor_1.csv:g::",
    "{data}/nonanchor_1.csv::0.5", "{data}/nonanchor_1.csv:", ":g",
])
def test_ingest_malformed_descriptor_is_a_usage_error(tmp_path, capsys, descriptor):
    data = _synth_manifest(tmp_path, scenario="null", seed=5, n=40).parent
    bad = descriptor.format(data=data)
    rc = run_cli(
        "ingest",
        "--dataset", f"{data}/anchor.csv:anchor",
        "--dataset", bad,
        "--dataset", f"{data}/nonanchor_2.csv:nonanchor_2",
        "--out-manifest", tmp_path / "m.json",
    )
    assert rc == 1
    assert f"error: bad --dataset '{bad}'" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_ingest_normalize_keeps_the_binary_format(tmp_path):
    rng = np.random.default_rng(3)
    for role in ("anchor", "na1", "na2"):
        save_matrix(EmbeddingMatrix(values=rng.normal(size=(12, 5))),
                    tmp_path / f"{role}.bin", fmt="binary")
    rc = run_cli(
        "ingest",
        *[a for role in ("anchor", "na1", "na2")
          for a in ("--dataset", f"{tmp_path}/{role}.bin:{role}")],
        "--format", "binary", "--normalize", "--out-dir", tmp_path / "norm",
        "--out-manifest", tmp_path / "m.json",
    )
    assert rc == 0
    entries = load_manifest(tmp_path / "m.json").entries
    assert [(e.path, e.fmt) for e in entries] == [
        (f"{tmp_path}/norm/{role}.norm.bin", "binary") for role in ("anchor", "na1", "na2")
    ]
    for role, entry in zip(("anchor", "na1", "na2"), entries):
        copy = load_matrix(entry.path, fmt="binary")
        expected = normalize_rows(load_matrix(tmp_path / f"{role}.bin", fmt="binary"))
        assert copy.values.tobytes() == expected.values.tobytes()


@pytest.mark.parametrize("where", ["manifest", "manifest entry", "out", "embed input"])
def test_a_directory_where_a_file_belongs_is_an_error(tmp_path, capsys, where):
    manifest = _synth_manifest(tmp_path, scenario="null", seed=5, n=40)
    if where == "manifest entry":
        (manifest.parent / "nonanchor_1.csv").unlink()
        (manifest.parent / "nonanchor_1.csv").mkdir()
    battery = ("battery", "--manifest", manifest, "--k-grid", 2, "--permutations", 19,
               "--baselines", "none", "--out", tmp_path / "b.csv")
    argv = {
        "manifest": ("battery", "--manifest", tmp_path),
        "manifest entry": battery,
        "out": battery[:-1] + (tmp_path,),
        "embed input": ("embed", "--input", tmp_path, "--out", tmp_path / "e.csv",
                        "--cache-dir", tmp_path / "cache"),
    }[where]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert "error: [Errno 21] Is a directory" in err and "Traceback" not in err
