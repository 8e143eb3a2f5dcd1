"""Smoke runs of the experiment scripts at tiny sizes, so that a moved
import or a changed signature cannot break them silently."""

import importlib.util
import sys

import pytest

from anchorstat import cli
from plumbing import SCRIPTS, run_python, write_collection


@pytest.mark.parametrize(
    "script, args",
    [
        ("size_power_study.py", ["--n", "60", "--m", "2", "--permutations", "99", "--seed", "1"]),
        ("synthetic_battery.py", ["--seeds", "1", "--n", "60", "--k-grid", "2,3",
                                  "--permutations", "99"]),
        ("divergence_curves.py", ["--n", "60", "--k-grid", "2", "--rhos", "0.1,1.0",
                                  "--seed", "1"]),
    ],
)
def test_script_runs(script, args, tmp_path):
    out = run_python(SCRIPTS / script, *args, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert "seed: " in out.stdout + out.stderr


@pytest.mark.parametrize(
    "script, args",
    [
        ("size_power_study.py", ["--n", "40", "--m", "1", "--permutations", "19"]),
        ("divergence_curves.py", ["--n", "40", "--k-grid", "2", "--rhos", "0.5"]),
    ],
)
def test_script_out_creates_missing_directories(script, args, tmp_path):
    out = run_python(SCRIPTS / script, *args, "--out", "missing/dir/x", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "missing" / "dir" / "x").read_text()


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_battery_script_rejects_seed_counts_below_one(seeds, tmp_path):
    out = run_python(SCRIPTS / "synthetic_battery.py", "--seeds", seeds, cwd=tmp_path)
    assert out.returncode == 2
    assert "argument --seeds: must be at least 1" in out.stderr
    assert "Traceback" not in out.stderr


def test_size_power_study_out_is_byte_identical_across_reruns(tmp_path):
    written = []
    for run in range(2):
        out = run_python(SCRIPTS / "size_power_study.py", "--n", "40", "--m", "2",
                         "--permutations", "19", "--out", f"run{run}.json", cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        assert "mean_runtime=" in out.stdout  # printed, not written
        written.append((tmp_path / f"run{run}.json").read_bytes())
    assert written[0] == written[1]


def test_synthetic_battery_tables_equal_the_cli_battery(tmp_path):
    # the script's table for seed s is `anchorstat battery --seed s` on
    # the same quad, written as a manifest labelled synthetic-{s}
    from anchorstat.corpus import ExperimentGrid
    from anchorstat.synth import ScenarioConfig, generate_battery_quad

    out = run_python(SCRIPTS / "synthetic_battery.py", "--seeds", "2", "--n", "60",
                     "--k-grid", "2,3", "--permutations", "99", "--out-dir", "script",
                     cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    for seed in range(2):
        quad = generate_battery_quad(ScenarioConfig(n=60, community_separation=10.0, seed=seed))
        d = tmp_path / f"quad{seed}"
        manifest = write_collection(d, quad, f"synthetic-{seed}",
                                    ExperimentGrid(k_values=(2, 3), permutations=99))
        rc = cli.main(["battery", "--manifest", str(manifest), "--seed", str(seed),
                       "--out", str(d / "battery.csv")])
        assert rc == 0
        script_table = (tmp_path / "script" / f"battery-{seed}.csv").read_bytes()
        assert (d / "battery.csv").read_bytes() == script_table


# each script's bad inputs, for the flags it declares: the CLI's refusals
_BAD_INPUTS = {
    "size_power_study.py": [["--alpha", "0"], ["--permutations", "0"], ["--seed", "-1"]],
    "synthetic_battery.py": [["--k-grid", "2,2"], ["--k-grid", "1"], ["--alpha", "0"],
                             ["--permutations", "0"]],
    "divergence_curves.py": [["--k-grid", "2,2"], ["--k-grid", "1"], ["--seed", "-1"]],
}


@pytest.mark.parametrize(
    "script, bad",
    [(script, bad) for script, bads in _BAD_INPUTS.items() for bad in bads],
    ids=lambda v: v if isinstance(v, str) else " ".join(v),
)
def test_script_refuses_what_the_cli_refuses(script, bad, tmp_path):
    out = run_python(SCRIPTS / script, "--n", "40", *bad, cwd=tmp_path)
    assert out.returncode == 1
    assert "error: " in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("rhos, message", [
    ("x", "bad temperature 'x' in --rhos 'x'"),
    ("0.1,nan", "bad temperature 'nan' in --rhos '0.1,nan'"),
    ("inf", "bad temperature 'inf' in --rhos 'inf'"),
    ("0.1,0.1", "temperature 0.1 repeats the member 'nonanchor_rho_0.1'"),
    ("0.10,0.1", "temperature 0.1 repeats the member 'nonanchor_rho_0.1'"),
])
def test_divergence_curves_refuses_bad_rhos(rhos, message, tmp_path):
    out = run_python(SCRIPTS / "divergence_curves.py", "--n", "40", "--k-grid", "2",
                     "--rhos", rhos, "--out", "c.csv", cwd=tmp_path)
    assert out.returncode == 1
    assert f"error: {message}" in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "c.csv").exists()


def test_divergence_curves_skips_blank_rhos(tmp_path):
    out = run_python(SCRIPTS / "divergence_curves.py", "--n", "40", "--k-grid", "2",
                     "--rhos", " 0.5,, 1.0,", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert [row.split(",")[1] for row in out.stdout.splitlines()[1:]] == ["0.5", "1"]


@pytest.mark.parametrize("script", sorted(_BAD_INPUTS))
def test_script_geometry_flags_match_mc(script, monkeypatch):
    spec = importlib.util.spec_from_file_location("script", SCRIPTS / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    parsed = []
    monkeypatch.setattr(cli, "_run", lambda study, args: parsed.append(args) or 0)
    monkeypatch.setattr(sys, "argv", [script])
    assert module.main() == 0
    geometry = ("n", "dim", "k_true", "separation", "noise")
    mc = vars(cli.build_parser().parse_args(["mc", "--scenario", "null"]))
    expected = {name: mc[name] for name in geometry}
    if script == "synthetic_battery.py":
        expected["separation"] = 10.0
    assert {name: vars(parsed[0])[name] for name in geometry} == expected
