"""`mc` sharded over processes: the same report for every process count,
the serial loop's error, and jobs validation for `monte_carlo` and
`battery`."""

import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from anchorstat import cli, preprocess, synth
from anchorstat.battery import battery_csv, battery_json, run_battery
from anchorstat.cli import main
from anchorstat.corpus import load_manifest
from anchorstat.errors import ParameterError
from anchorstat.stattests import _child_seed
from anchorstat.synth import ScenarioConfig, monte_carlo

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def fork_start():
    """Workers forked from this process, so they see its monkeypatches."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the fork start method is not available")
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("fork", force=True)
    yield
    multiprocessing.set_start_method(previous, force=True)


@pytest.mark.parametrize("flags", [
    ("--scenario", "null", "--n", 100),
    ("--scenario", "alt", "--n", 100),
    ("--scenario", "null", "--n", 80, "--separation", 40),  # every replicate vacuous
])
def test_mc_json_identical_across_jobs(tmp_path, monkeypatch, flags):
    # `mc` runs on usable_cpus() processes; pin that count to 1, 2 and 3
    outs = {}
    for jobs in (1, 2, 3, None):
        if jobs is not None:
            monkeypatch.setattr(cli, "usable_cpus", lambda jobs=jobs: jobs)
        else:
            monkeypatch.undo()
        out = tmp_path / f"mc-{jobs}.json"
        rc = run_cli("mc", *flags, "--m", 5, "--permutations", 49, "--seed", 4,
                     "--out", out)
        assert rc == 0
        outs[jobs] = out.read_bytes()
    assert outs[2] == outs[1] and outs[3] == outs[1] and outs[None] == outs[1]
    if "--separation" in flags:
        assert json.loads(outs[1])["vacuous"] == 5


def test_mc_runs_on_the_usable_cpus(tmp_path, monkeypatch):
    seen = []
    run = synth.monte_carlo

    def monte_carlo_spy(*args, jobs=1, **kwargs):
        seen.append(jobs)
        return run(*args, jobs=jobs, **kwargs)

    monkeypatch.setattr(cli, "monte_carlo", monte_carlo_spy)
    rc = run_cli("mc", "--scenario", "null", "--n", 60, "--m", 2, "--permutations", 19,
                 "--out", tmp_path / "mc.json")
    assert rc == 0
    assert seen == [synth.usable_cpus()]


def test_monte_carlo_jobs_uneven_chunks():
    cfg = ScenarioConfig(n=80, seed=9)
    serial = monte_carlo("alt", cfg, M=7, R=49)
    sharded = monte_carlo("alt", cfg, M=7, R=49, jobs=3)
    assert sharded.to_dict(volatile=False) == serial.to_dict(volatile=False)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_monte_carlo_jobs_without_fork(method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"the {method} start method is not available")
    code = (
        "import multiprocessing, sys\n"
        "from anchorstat.synth import ScenarioConfig, monte_carlo\n"
        f"multiprocessing.set_start_method({method!r})\n"
        "report = monte_carlo('null', ScenarioConfig(n=60, seed=3), M=4, R=49, jobs=2)\n"
        "sys.stdout.write(report.to_json(volatile=False))\n"
    )
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    serial = monte_carlo("null", ScenarioConfig(n=60, seed=3), M=4, R=49)
    assert out.stdout == serial.to_json(volatile=False)


@pytest.mark.parametrize("failing", [(5, 6), (2, 5), (7,)])
def test_sharded_error_is_the_serial_loops(monkeypatch, fork_start, failing):
    # M=8, jobs=2: this process runs replicates 0-3 and one worker 4-7
    cfg = ScenarioConfig(n=60, seed=5)
    fail_at = {_child_seed(cfg.seed, m): m for m in failing}
    generate = synth.generate_null_triple

    def failing_generate(c):
        if c.seed in fail_at:
            raise ParameterError(f"replicate {fail_at[c.seed]} failed")
        return generate(c)

    monkeypatch.setattr(synth, "generate_null_triple", failing_generate)
    raised = []
    for jobs in (1, 2):
        with pytest.raises(ParameterError) as exc:
            monte_carlo("null", cfg, M=8, R=19, jobs=jobs)
        raised.append((type(exc.value), str(exc.value)))
    assert raised[0] == raised[1] == (ParameterError, f"replicate {failing[0]} failed")
    assert multiprocessing.active_children() == []  # the pool is shut down


@pytest.mark.parametrize("error", [ParameterError, KeyboardInterrupt])
def test_sharded_error_in_callers_share_ends_workers(monkeypatch, fork_start, error):
    # M=4, jobs=2: this process runs replicates 0-1, which fail at once,
    # and one worker 2-3, which would take a minute each
    cfg = ScenarioConfig(n=60, seed=5)
    first, slow = _child_seed(cfg.seed, 0), {_child_seed(cfg.seed, m) for m in (2, 3)}
    generate = synth.generate_null_triple

    def generate_or_stall(c):
        if c.seed == first:
            raise error("replicate 0 failed")
        if c.seed in slow:
            time.sleep(60)
        return generate(c)

    monkeypatch.setattr(synth, "generate_null_triple", generate_or_stall)
    start = time.perf_counter()
    with pytest.raises(error, match="replicate 0 failed"):
        monte_carlo("null", cfg, M=4, R=19, jobs=2)
    assert time.perf_counter() - start < 20
    assert multiprocessing.active_children() == []


def test_worker_dying_without_a_result(monkeypatch, fork_start):
    cfg = ScenarioConfig(n=60, seed=5)
    dies = _child_seed(cfg.seed, 3)
    generate = synth.generate_null_triple

    def generate_or_exit(c):
        if c.seed == dies:
            os._exit(7)
        return generate(c)

    monkeypatch.setattr(synth, "generate_null_triple", generate_or_exit)
    with pytest.raises(RuntimeError, match="replicates 2-3 exited with code 7"):
        monte_carlo("null", cfg, M=4, R=19, jobs=2)
    assert multiprocessing.active_children() == []


def test_mean_runtime_is_one_replicates(monkeypatch, fork_start):
    # a clock that advances 1 s per reading: each replicate reads it twice
    class Clock:
        t = 0.0

        def perf_counter(self):
            self.t += 1.0
            return self.t

    monkeypatch.setattr(synth, "time", Clock())
    cfg = ScenarioConfig(n=60, seed=1)
    for jobs in (1, 2, 3):
        assert monte_carlo("null", cfg, M=5, R=19, jobs=jobs).mean_runtime_s == 1.0


@pytest.mark.parametrize("jobs", [0, -3])
def test_monte_carlo_rejects_jobs_below_one(monkeypatch, jobs):
    def no_replicate(cfg):
        raise AssertionError("a replicate ran before jobs was validated")

    monkeypatch.setattr(synth, "generate_null_triple", no_replicate)
    with pytest.raises(ParameterError, match="jobs must be >= 1"):
        monte_carlo("null", ScenarioConfig(n=60), M=2, jobs=jobs)


def _synth_manifest(tmp_path, dim=2):
    out = tmp_path / "synth"
    rc = run_cli("synth", "--scenario", "alt", "--n", 80, "--dim", dim, "--seed", 2,
                 "--out-dir", out)
    assert rc == 0
    return out / "manifest.json"


@pytest.mark.parametrize("jobs", [0, -3])
def test_battery_rejects_jobs_below_one(tmp_path, capsys, jobs):
    out = tmp_path / "out"
    rc = run_cli("battery", "--manifest", _synth_manifest(tmp_path), "--k-grid", 2,
                 "--permutations", 19, "--jobs", jobs, "--out", out)
    assert rc == 1
    assert f"error: jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_run_battery_rejects_jobs_below_one(tmp_path):
    manifest_path = _synth_manifest(tmp_path)
    collection = load_manifest(manifest_path).load_collection(manifest_path.parent)
    with pytest.raises(ParameterError, match="jobs must be >= 1"):
        run_battery(collection, "d", (2,), R=19, jobs=0)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_battery_joint_mode_reduces_once(tmp_path, monkeypatch, fmt):
    manifest_path = _synth_manifest(tmp_path, dim=4)
    modes = []
    reduce = preprocess.reduce_collection

    def reduce_spy(collection, p, mode="per_dataset"):
        modes.append(mode)
        return reduce(collection, p, mode=mode)

    monkeypatch.setattr(preprocess, "reduce_collection", reduce_spy)
    out = tmp_path / f"battery.{fmt}"
    rc = run_cli("battery", "--manifest", manifest_path, "--k-grid", "2,3",
                 "--permutations", 49, "--seed", 3, "--pca-dim", 2, "--pca-mode", "joint",
                 "--format", fmt, "--out", out)
    assert rc == 0
    assert modes == ["joint"]

    # the same cells as with a second, separate joint reduction for the baselines
    manifest = load_manifest(manifest_path)
    collection = manifest.load_collection(manifest_path.parent)
    result = run_battery(
        reduce(collection, 2, mode="joint"), manifest.label, (2, 3), R=49,
        alpha=manifest.grid.alpha, seed=3,
        baseline_collection=reduce(collection, 2, mode="joint"),
    )
    expected = battery_json(result) if fmt == "json" else battery_csv(result)
    assert out.read_text() == expected
