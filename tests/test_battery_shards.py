"""The battery's and the distance curves' (member, K) partitions, computed
in one process below the stage's break-even and over several above it:
the same bytes on either side of it and for every process count and
BLAS thread count, and one BLAS thread in every process while sharded
work runs."""

import multiprocessing
import os
import pickle

import numpy as np
import pytest

from anchorstat import battery, sharding
from anchorstat.cluster import Partition
from anchorstat.corpus import EmbeddingMatrix, save_matrix
from anchorstat.errors import ParameterError
from anchorstat.synth import ScenarioConfig, generate_battery_quad, generate_drift_family
from plumbing import run_cli, run_python, write_collection


def _quad_manifest(tmp_path):
    """A battery quad whose drifted member has two distinct rows, so it
    cannot be clustered at K=3 or K=4 and shows ERROR cells there."""
    quad = generate_battery_quad(ScenarioConfig(n=60, dim=4, seed=2))
    path = write_collection(tmp_path, quad, "quad")
    rows = np.zeros((quad.n, 4))
    rows[::2] = 1.0
    save_matrix(EmbeddingMatrix(values=rows), tmp_path / "nonanchor_drifted.csv")
    return path


def _outputs_per_stage(monkeypatch, pin_cpus, run):
    """``run()``'s output bytes for each (member stage, CPU count): the
    stage below its break-even, which runs in this process, and the stage
    with the break-even at 0, which shards whenever there are 2 CPUs."""
    sharded = []

    def run_sharded_spy(*args):
        sharded.append(args[-1])
        return sharding.run_sharded(*args)

    monkeypatch.setattr(battery, "run_sharded", run_sharded_spy)
    outs = {}
    for stage, shard_work in (("in process", battery._SHARD_WORK), ("sharded", 0)):
        monkeypatch.setattr(battery, "_SHARD_WORK", shard_work)
        for cpus in (1, 2, 3):
            pin_cpus(cpus)
            del sharded[:]
            outs[stage, cpus] = run()
            assert bool(sharded) == (stage == "sharded")
    return outs


@pytest.mark.parametrize("pca", [(), ("--pca-dim", 2)])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_battery_identical_across_process_counts(tmp_path, monkeypatch, pin_cpus, pca, fmt):
    manifest = _quad_manifest(tmp_path)
    out = tmp_path / f"battery.{fmt}"

    def run():
        rc = run_cli("battery", "--manifest", manifest, "--k-grid", "2,3,4",
                     "--permutations", 49, "--seed", 5, *pca, "--format", fmt, "--out", out)
        assert rc == 0
        return out.read_bytes()

    outs = _outputs_per_stage(monkeypatch, pin_cpus, run)
    assert len(set(outs.values())) == 1
    if not pca:  # the drifted member's cells, which a worker computes at 2 and 3 CPUs
        assert outs["sharded", 2].count(b"ERROR: fewer than K=3 distinct rows") == 2


def test_distances_identical_across_process_counts(tmp_path, monkeypatch, pin_cpus):
    cfg = ScenarioConfig(n=120, dim=2, K_true=2, community_separation=8.0, seed=4)
    family = generate_drift_family(cfg, [(0.1, 0.02), (0.7, 0.3), (1.5, 0.85)])
    manifest = write_collection(tmp_path, family, "family")
    out = tmp_path / "curves.csv"

    def run():
        rc = run_cli("distances", "--manifest", manifest, "--k-grid", "2,3,4", "--seed", 6,
                     "--out", out)
        assert rc == 0
        return out.read_bytes()

    outs = _outputs_per_stage(monkeypatch, pin_cpus, run)
    assert len(set(outs.values())) == 1
    assert len(outs["sharded", 2].splitlines()) == 1 + 3 * 3


def test_paper_scale_battery_leaves_multiprocessing_unloaded(tmp_path):
    # n=300, p=2, K 2-5 is below the (member, K) stage's break-even
    quad = generate_battery_quad(ScenarioConfig(n=300, dim=2, seed=8))
    manifest = write_collection(tmp_path, quad, "quad")
    code = (
        "import sys\n"
        "from anchorstat import cli, sharding\n"
        "sharding.usable_cpus = lambda: 2\n"
        f"rc = cli.main(['battery', '--manifest', {str(manifest)!r}, '--k-grid', '2,3,4,5',\n"
        f"              '--permutations', '99', '--out', {str(tmp_path / 'b.csv')!r}])\n"
        "print(rc, 'multiprocessing' in sys.modules)\n"
    )
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "False"]


def test_pca_outputs_identical_across_blas_threads(tmp_path, blas):
    cfg = ScenarioConfig(n=400, dim=256, seed=3)
    manifest = write_collection(tmp_path, generate_drift_family(cfg, [(0.7, 0.3)]), "family")
    flags = {
        "battery": ("--k-grid", "2,3", "--permutations", 49, "--format", "json",
                    "--baselines", "hotelling,nploc"),
        "distances": ("--k-grid", "2,3"),
    }

    def outputs(threads):
        assert blas() == threads
        for command, extra in flags.items():
            rc = run_cli(command, "--manifest", manifest, "--pca-dim", 16,
                         *extra, "--out", tmp_path / f"{command}-{threads}")
            assert rc == 0
        return [(tmp_path / f"{command}-{threads}").read_bytes() for command in flags]

    two = outputs(2)
    _, set_ = sharding._openblas()
    set_(1)
    assert outputs(1) == two


def test_member_set_from_a_worker_is_read_only():
    # partitions come back from worker processes pickled
    sent = Partition(assignment=np.array([1, 0, 1]), K=2, wcss=0.5)
    got = pickle.loads(pickle.dumps(sent))
    assert got.assignment.tolist() == [1, 0, 1]
    assert (got.K, got.wcss) == (2, 0.5)
    assert not got.assignment.flags.writeable


def _threads_for_item(fail_at, item):
    """The BLAS thread count this item runs with; item ``fail_at`` raises."""
    if item == fail_at:
        raise ParameterError(f"item {fail_at} failed")
    get, _ = sharding._openblas()
    return get()


@pytest.fixture(params=["fork", "spawn", "forkserver"])
def start_method(request):
    """Each start method in turn: a fresh worker must set one thread itself."""
    if request.param not in multiprocessing.get_all_start_methods():
        pytest.skip(f"the {request.param} start method is not available")
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(request.param, force=True)
    yield
    multiprocessing.set_start_method(previous, force=True)


def test_sharded_chunks_run_on_one_blas_thread(blas, start_method, pin_cpus):
    callers = blas()
    pin_cpus(3)
    assert sharding.run_sharded(_threads_for_item, (None,), range(3), "items") == [1, 1, 1]
    assert blas() == callers


@pytest.mark.parametrize("fail_at", [0, 2])
def test_callers_blas_threads_restored_after_an_error(blas, pin_cpus, fail_at):
    callers = blas()
    pin_cpus(3)
    with pytest.raises(ParameterError, match=f"item {fail_at} failed"):
        sharding.run_sharded(_threads_for_item, (fail_at,), range(3), "items")
    assert blas() == callers


def test_one_chunk_keeps_the_callers_blas_threads(blas, pin_cpus):
    callers = blas()
    pin_cpus(1)
    assert sharding.run_sharded(_threads_for_item, (None,), range(3), "items") == [callers] * 3


def _pid(item):
    return os.getpid()


def _pids_of_a_nested_call(item):
    """This process's id and the ids a nested sharded call ran its items in."""
    return os.getpid(), sharding.run_sharded(_pid, (), range(3), "inner items")


def test_nested_sharded_call_stays_in_its_process(start_method, pin_cpus):
    # the caller's share and the worker's each run the nested call's items
    # serially: a daemonic worker cannot start processes of its own
    pin_cpus(2)
    got = sharding.run_sharded(_pids_of_a_nested_call, (), range(4), "outer items")
    assert [inner for _, inner in got] == [[pid] * 3 for pid, _ in got]
    pids = [pid for pid, _ in got]
    assert pids[:2] == [os.getpid()] * 2 and pids[2] == pids[3] != os.getpid()
    assert multiprocessing.active_children() == []
    # a later call that is not nested shards again
    assert sharding.run_sharded(_pid, (), range(2), "items")[1] != os.getpid()


@pytest.mark.parametrize("count, jobs, sizes", [
    (8, 2, [4, 4]), (7, 3, [2, 2, 3]), (2, 5, [1, 1]), (0, 2, [0]),
])
def test_split_range(count, jobs, sizes):
    chunks = sharding.split_range(count, jobs)
    assert [len(c) for c in chunks] == sizes
    assert [i for c in chunks for i in c] == list(range(count))
