import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from anchorstat.battery import format_p
from anchorstat.cli import main
from anchorstat.corpus import EmbeddingMatrix, load_manifest, load_matrix, save_matrix


def run_cli(*argv):
    return main([str(a) for a in argv])


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
    manifest_path = _synth_manifest(tmp_path, scenario="null", seed=3)
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
    assert "seed: 9" in capsys.readouterr().out


def test_cmd_test_alt_rejects(tmp_path):
    manifest = _synth_manifest(tmp_path, scenario="alt", seed=1)
    out = tmp_path / "report.json"
    rc = run_cli(
        "test", "--manifest", manifest,
        "--k", 2, "--permutations", 199, "--seed", 5,
        "--baselines", "hotelling,energy",
        "--out", out,
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["anchored"]["reject"] is True
    assert set(doc) == {"anchored", "hotelling", "energy"}


def test_cmd_test_identical_nonanchors_exits_nonzero(tmp_path, capsys):
    manifest_path = _synth_manifest(tmp_path, scenario="null", seed=2)
    base = manifest_path.parent
    shutil.copyfile(base / "nonanchor_1.csv", base / "nonanchor_2.csv")
    rc = run_cli("test", "--manifest", manifest_path, "--k", 2, "--seed", 0)
    assert rc != 0
    assert "vacuous" in capsys.readouterr().err


def test_cmd_test_agrees_with_battery(tmp_path):
    # `test` is a one-pair battery: same cell seeds, same p-values
    manifest = _synth_manifest(tmp_path, scenario="null", seed=0, n=200)
    single, table = tmp_path / "test.json", tmp_path / "battery.json"
    rc = run_cli(
        "test", "--manifest", manifest, "--k", 2, "--seed", 1,
        "--baselines", "hotelling,nploc,energy", "--out", single,
    )
    assert rc == 0
    rc = run_cli(
        "battery", "--manifest", manifest, "--k-grid", 2, "--seed", 1,
        "--format", "json", "--out", table,
    )
    assert rc == 0
    reports = json.loads(single.read_text())
    row = json.loads(table.read_text())["rows"][0]
    assert reports["anchored"]["p_value"] == row["anchored"]["2"]["p_value"] == 0.525
    for b in ("hotelling", "nploc", "energy"):
        assert reports[b]["p_value"] == row["baselines"][b]["p_value"]


def test_cli_import_loads_no_http_client():
    code = (
        "import sys, anchorstat.cli\n"
        "print([m for m in ('requests', 'urllib.request') if m in sys.modules])\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    assert out.stdout.strip() == "[]"


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


def test_battery_thread_count_invariance(tmp_path):
    manifest = _synth_manifest(tmp_path, scenario="alt", seed=6)
    outs = []
    for jobs in (1, 4):
        out = tmp_path / f"battery-j{jobs}.json"
        rc = run_cli(
            "battery", "--manifest", manifest,
            "--k-grid", "2,3", "--permutations", 199, "--seed", 11,
            "--format", "json", "--jobs", jobs, "--out", out,
        )
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


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


def _family_manifest(tmp_path, seed=0):
    from anchorstat.corpus import DatasetManifest, ExperimentGrid, ManifestEntry, save_manifest
    from anchorstat.synth import ScenarioConfig, generate_drift_family

    cfg = ScenarioConfig(n=250, dim=2, K_true=2, community_separation=8.0, seed=seed)
    fam = generate_drift_family(cfg, [(0.1, 0.02), (0.7, 0.3), (1.5, 0.85)])
    entries = []
    for role in fam.roles:
        save_matrix(fam.member(role), tmp_path / f"{role}.csv")
        entries.append(
            ManifestEntry(
                path=f"{role}.csv",
                role=role,
                temperature=fam.temperatures.get(role),
            )
        )
    manifest = DatasetManifest(
        entries=tuple(entries), grid=ExperimentGrid(k_values=(2,)), label="family"
    )
    path = tmp_path / "manifest.json"
    save_manifest(manifest, path)
    return path


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
    # partition, so the mapped distance sets coincide exactly
    from anchorstat.corpus import DatasetManifest, ExperimentGrid, ManifestEntry, save_manifest
    from anchorstat.synth import ScenarioConfig, generate_drift_family

    cfg = ScenarioConfig(n=100, dim=2, K_true=2, community_separation=40.0, seed=4)
    fam = generate_drift_family(cfg, [(0.5, 0.0)])
    entries = []
    for role in fam.roles:
        save_matrix(fam.member(role), tmp_path / f"{role}.csv")
        entries.append(
            ManifestEntry(path=f"{role}.csv", role=role, temperature=fam.temperatures.get(role))
        )
    save_manifest(
        DatasetManifest(entries=tuple(entries), grid=ExperimentGrid(k_values=(2,)), label="zero"),
        tmp_path / "m.json",
    )
    out = tmp_path / "curves.csv"
    assert run_cli("distances", "--manifest", tmp_path / "m.json", "--out", out) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[2]) == pytest.approx(0.0, abs=1e-9)
    assert float(row[3]) == pytest.approx(0.0, abs=1e-9)


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


def test_mc_has_no_k_grid_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("mc", "--scenario", "null", "--m", 1, "--k-grid", "x")
    assert exc.value.code == 2
    assert "--k-grid" in capsys.readouterr().err


def test_reduce_single_matrix_shape(tmp_path):
    rng = np.random.default_rng(0)
    m = EmbeddingMatrix(values=rng.normal(size=(40, 1536)))
    src = tmp_path / "wide.bin"
    save_matrix(m, src, fmt="binary")
    out = tmp_path / "narrow.csv"
    rc = run_cli(
        "reduce", "--input", src, "--format", "binary",
        "--pca-dim", 10, "--out", out,
        "--model-out", tmp_path / "model.json",
    )
    assert rc == 0
    reduced = load_matrix(out)
    assert (reduced.n, reduced.p) == (40, 10)
    assert (tmp_path / "model.json").exists()


def test_reduce_manifest_mode(tmp_path):
    manifest = _synth_manifest(tmp_path, scenario="null", seed=8, n=60)
    out_dir = tmp_path / "reduced"
    rc = run_cli(
        "reduce", "--manifest", manifest, "--pca-dim", 1,
        "--pca-mode", "joint", "--out-dir", out_dir,
    )
    assert rc == 0
    reduced = load_manifest(out_dir / "manifest.json").load_collection(out_dir)
    assert all(reduced.member(r).p == 1 for r in reduced.roles)


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


def test_every_command_prints_seed(tmp_path, capsys):
    _synth_manifest(tmp_path, scenario="null", seed=13)
    out = capsys.readouterr().out
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
