"""`mc` sharded over processes: the same report for every process count
and the serial loop's error. The process count is
``sharding.usable_cpus()``, which the tests pin with ``pin_cpus``."""

import json
import multiprocessing
import os
import time
import weakref

import numpy as np
import pytest

from anchorstat import battery, cli, corpus, preprocess, sharding, synth
from anchorstat.battery import (
    BASELINE_NAMES,
    battery_csv,
    battery_json,
    run_battery,
    run_distance_curves,
)
from anchorstat.corpus import EmbeddingMatrix, ExperimentGrid, load_manifest, save_matrix
from anchorstat.errors import AnchorstatError, DegeneracyError, ParameterError
from anchorstat.stattests import _child_seed
from anchorstat.synth import ScenarioConfig, monte_carlo
from plumbing import run_cli, run_python


@pytest.mark.parametrize("flags", [
    ("--scenario", "null", "--n", 100),
    ("--scenario", "alt", "--n", 100),
    ("--scenario", "null", "--n", 80, "--separation", 40),  # every replicate vacuous
])
def test_mc_json_identical_across_jobs(tmp_path, monkeypatch, pin_cpus, flags):
    # `mc` runs on usable_cpus() processes; pin that count to 1, 2 and 3
    outs = {}
    for jobs in (1, 2, 3, None):
        if jobs is not None:
            pin_cpus(jobs)
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


def test_mc_runs_on_the_usable_cpus(tmp_path, monkeypatch, pin_cpus):
    # the replicates' runs, one per process, as `run_sharded` cuts them; the
    # split of a replicate's own (member, K) tasks is not counted
    seen, replicates = [], []
    split, run_sharded = sharding.split_range, synth.run_sharded

    def split_range_spy(count, jobs):
        runs = split(count, jobs)
        if replicates:
            seen.append([len(run) for run in runs])
            replicates.clear()
        return runs

    def run_sharded_spy(*args):
        replicates.append(True)
        return run_sharded(*args)

    monkeypatch.setattr(sharding, "split_range", split_range_spy)
    monkeypatch.setattr(synth, "run_sharded", run_sharded_spy)
    pin_cpus(3)
    for M in (1, 2, 5):
        rc = run_cli("mc", "--scenario", "null", "--n", 60, "--m", M,
                     "--permutations", 19, "--out", tmp_path / "mc.json")
        assert rc == 0
    assert seen == [[1], [1, 1], [1, 2, 2]]


def test_monte_carlo_jobs_uneven_chunks(pin_cpus):
    cfg = ScenarioConfig(n=80, seed=9)
    pin_cpus(1)
    serial = monte_carlo("alt", cfg, M=7, R=49)
    pin_cpus(3)
    sharded = monte_carlo("alt", cfg, M=7, R=49)
    assert sharded.to_dict() == serial.to_dict()


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_monte_carlo_jobs_without_fork(pin_cpus, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"the {method} start method is not available")
    code = (
        "import multiprocessing, sys\n"
        "from anchorstat import sharding\n"
        "from anchorstat.synth import ScenarioConfig, monte_carlo\n"
        f"multiprocessing.set_start_method({method!r})\n"
        "sharding.usable_cpus = lambda: 2\n"
        "report = monte_carlo('null', ScenarioConfig(n=60, seed=3), M=4, R=49)\n"
        "sys.stdout.write(report.to_json())\n"
    )
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    pin_cpus(1)
    serial = monte_carlo("null", ScenarioConfig(n=60, seed=3), M=4, R=49)
    assert out.stdout == serial.to_json()


@pytest.mark.parametrize("failing", [(5, 6), (2, 5), (7,)])
def test_sharded_error_is_the_serial_loops(monkeypatch, fork_start, pin_cpus, failing):
    # M=8 on 2 processes: this process runs replicates 0-3 and one worker 4-7
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
        pin_cpus(jobs)
        with pytest.raises(ParameterError) as exc:
            monte_carlo("null", cfg, M=8, R=19)
        raised.append((type(exc.value), str(exc.value)))
    assert raised[0] == raised[1] == (ParameterError, f"replicate {failing[0]} failed")
    assert multiprocessing.active_children() == []  # the pool is shut down


@pytest.mark.parametrize("failing", [(5, 6), (2, 5), (7,)])
def test_error_in_a_replicates_cell_is_the_serial_loops(monkeypatch, fork_start, pin_cpus,
                                                        failing):
    # a replicate's battery turns a k-means error into an ERROR cell, which
    # ends the study with its message, the lowest failing replicate's
    cfg = ScenarioConfig(n=60, seed=5)
    fail_at = {battery._cell_seed(_child_seed(cfg.seed, m, 1), "nonanchor_2", 2): m
               for m in failing}
    kmeans = battery.kmeans

    def failing_kmeans(m, K, seed):
        if seed in fail_at:
            raise DegeneracyError(f"replicate {fail_at[seed]} failed")
        return kmeans(m, K, seed=seed)

    monkeypatch.setattr(battery, "kmeans", failing_kmeans)
    raised = []
    for jobs in (1, 2):
        pin_cpus(jobs)
        with pytest.raises(AnchorstatError) as exc:
            monte_carlo("null", cfg, M=8, R=19)
        raised.append(str(exc.value))
    assert raised == [f"replicate {failing[0]} failed"] * 2
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("error", [ParameterError, KeyboardInterrupt])
def test_sharded_error_in_callers_share_ends_workers(monkeypatch, fork_start, pin_cpus, error):
    # M=4 on 2 processes: this process runs replicates 0-1, which fail at once,
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
    pin_cpus(2)
    start = time.perf_counter()
    with pytest.raises(error, match="replicate 0 failed"):
        monte_carlo("null", cfg, M=4, R=19)
    assert time.perf_counter() - start < 20
    assert multiprocessing.active_children() == []


def test_worker_dying_without_a_result(monkeypatch, fork_start, pin_cpus):
    cfg = ScenarioConfig(n=60, seed=5)
    dies = _child_seed(cfg.seed, 3)
    generate = synth.generate_null_triple

    def generate_or_exit(c):
        if c.seed == dies:
            os._exit(7)
        return generate(c)

    monkeypatch.setattr(synth, "generate_null_triple", generate_or_exit)
    pin_cpus(2)
    with pytest.raises(RuntimeError, match="replicates 2-3 exited with code 7"):
        monte_carlo("null", cfg, M=4, R=19)
    assert multiprocessing.active_children() == []


def test_mean_runtime_is_one_replicates(monkeypatch, fork_start, pin_cpus):
    # a clock that advances 1 s per reading: each replicate reads it twice
    class Clock:
        t = 0.0

        def perf_counter(self):
            self.t += 1.0
            return self.t

    monkeypatch.setattr(synth, "time", Clock())
    cfg = ScenarioConfig(n=60, seed=1)
    for jobs in (1, 2, 3):
        pin_cpus(jobs)
        assert monte_carlo("null", cfg, M=5, R=19).mean_runtime_s == 1.0


def _synth_manifest(tmp_path, dim=2):
    out = tmp_path / "synth"
    rc = run_cli("synth", "--scenario", "alt", "--n", 80, "--dim", dim, "--seed", 2,
                 "--out-dir", out)
    assert rc == 0
    return out / "manifest.json"


@pytest.mark.parametrize("fmt, baselines", [
    pytest.param("csv", None, id="per_dataset-csv"),
    pytest.param("json", None, id="per_dataset-json"),
    pytest.param("csv", "none", id="baselines-none-csv"),
    pytest.param("json", "none", id="baselines-none-json"),
])
def test_battery_joint_mode_reduces_once(tmp_path, monkeypatch, fmt, baselines):
    # one `reduce_members` call reduces each member once on its own for the
    # anchored cells first, then, only when a baseline runs, all of them
    # jointly for the paired baselines; every projection is `apply_pca`
    manifest_path = _synth_manifest(tmp_path, dim=4)
    calls, modes, stage = [], [], ["per_dataset"]
    reduce_members = battery.reduce_members
    apply_pca, reduce_jointly = preprocess.apply_pca, preprocess.reduce_jointly

    def reduce_members_spy(members, p, temperatures, baselines):
        calls.append(baselines)
        return reduce_members(members, p, temperatures, baselines)

    def apply_pca_spy(model, m):
        modes.append(stage[0])
        return apply_pca(model, m)

    def reduce_jointly_spy(members, p, temperatures):
        stage[0] = "joint"
        return reduce_jointly(members, p, temperatures)

    monkeypatch.setattr(cli, "reduce_members", reduce_members_spy)
    monkeypatch.setattr(preprocess, "apply_pca", apply_pca_spy)
    monkeypatch.setattr(preprocess, "reduce_jointly", reduce_jointly_spy)
    out = tmp_path / f"battery.{fmt}"
    flags = () if baselines is None else ("--baselines", baselines)
    rc = run_cli("battery", "--manifest", manifest_path, "--k-grid", "2,3",
                 "--permutations", 49, "--seed", 3, "--pca-dim", 2,
                 "--format", fmt, "--out", out, *flags)
    assert rc == 0
    names = BASELINE_NAMES if baselines is None else ()
    assert calls == [names]
    assert modes == ["per_dataset"] * 3 + (["joint"] * 3 if names else [])

    # the same cells as the library path: `run_battery` on what
    # `reduce_members` returns
    manifest = load_manifest(manifest_path)
    collection = manifest.load_collection(manifest_path.parent)
    members = reduce_members(collection.members, 2, collection.temperatures, names)
    grid = ExperimentGrid((2, 3), manifest.grid.alpha, 49, 3)
    result = run_battery(members, manifest.label, grid, baselines=names)
    expected = battery_json(result) if fmt == "json" else battery_csv(result)
    assert out.read_text() == expected


def test_battery_without_a_joint_half_refuses_baselines_before_kmeans(monkeypatch, pin_cpus):
    # the (own, None) pair has no common space, so a paired baseline is
    # refused before the first (member, K) task clusters a member
    quad = synth.generate_battery_quad(ScenarioConfig(n=60, dim=4, seed=2))
    own, joint = battery.reduce_members(dict(quad.members), 2, quad.temperatures, ())
    assert joint is None
    fits = []
    pin_cpus(1)
    monkeypatch.setattr(battery, "kmeans", lambda *a, **k: fits.append(a))
    with pytest.raises(ParameterError, match=r"baselines \['hotelling'\] need the joint"):
        run_battery((own, None), "quad", ExperimentGrid((2,), permutations=19),
                    baselines=("hotelling",))
    assert fits == []


def _family_manifest(tmp_path):
    """The synthetic triple with a temperature on each non-anchor."""
    manifest_path = _synth_manifest(tmp_path, dim=4)
    doc = json.loads(manifest_path.read_text())
    for i, entry in enumerate(doc["datasets"]):
        if entry["role"] != "anchor":
            entry["temperature"] = 0.5 * i
    manifest_path.write_text(json.dumps(doc))
    return manifest_path


@pytest.mark.parametrize("command, baselines", [
    pytest.param("battery", None, id="None"),
    pytest.param("battery", "none", id="none"),
    pytest.param("distances", None, id="distances"),
])
def test_battery_holds_no_full_dimension_member(tmp_path, monkeypatch, command, baselines):
    # with --pca-dim, every loaded full-dimension array is freed before
    # the battery or the curves start, so their (member, K) workers do
    # not carry them
    manifest_path = _family_manifest(tmp_path)
    loaded = []
    load_matrix = corpus.load_matrix

    def load_spy(*args, **kwargs):
        m = load_matrix(*args, **kwargs)
        loaded.append(weakref.ref(m.values))
        return m

    alive = []
    run = {"battery": run_battery, "distances": run_distance_curves}[command]

    def run_spy(*args, **kwargs):
        alive.extend(ref() is not None for ref in loaded)
        return run(*args, **kwargs)

    monkeypatch.setattr(corpus, "load_matrix", load_spy)
    monkeypatch.setattr(cli, run.__name__, run_spy)
    flags = () if baselines is None else ("--baselines", baselines)
    if command == "battery":
        flags += ("--permutations", 9)
    rc = run_cli(command, "--manifest", manifest_path, "--k-grid", "2",
                 "--pca-dim", 2, "--out", tmp_path / "out.csv", *flags)
    assert rc == 0
    assert alive == [False, False, False]


def test_battery_refuses_unequal_widths_before_any_fit(tmp_path, monkeypatch, capsys):
    # the joint reduction needs one width; a baseline that reads it is
    # refused before the per-member fits
    rng = np.random.default_rng(4)
    datasets = []
    for role, width in (("anchor", 40), ("nonanchor_1", 40), ("nonanchor_2", 41)):
        save_matrix(EmbeddingMatrix(rng.normal(size=(30, width))), tmp_path / f"{role}.csv")
        datasets.append({"path": f"{role}.csv", "role": role})
    (tmp_path / "manifest.json").write_text(json.dumps({"datasets": datasets}))
    fits = []
    fit_pca = preprocess.fit_pca
    monkeypatch.setattr(preprocess, "fit_pca", lambda *a: fits.append(a) or fit_pca(*a))
    rc = run_cli("battery", "--manifest", tmp_path / "manifest.json", "--k-grid", "2",
                 "--pca-dim", 3, "--baselines", "hotelling")
    assert rc == 1
    assert "joint reduction needs equal ambient dims, got [40, 41]" in capsys.readouterr().err
    assert fits == []
