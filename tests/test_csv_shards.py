"""The CSV reader's parallel path: a file is cut into byte ranges that end
at line ends, each range is parsed on its own, and the rows come back
with the bits, errors and warnings of the serial parse."""

import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from anchorstat import corpus
from anchorstat.corpus import EmbeddingMatrix, load_matrix, save_matrix
from anchorstat.errors import CorpusFormatError
from anchorstat.sharding import run_sharded

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def fork_start():
    """Workers forked from this process, so they see its monkeypatches."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the fork start method is not available")
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("fork", force=True)
    yield
    multiprocessing.set_start_method(previous, force=True)


def _serial(path):
    """The serial parse: these files are far below the default threshold."""
    assert path.stat().st_size < 2 * corpus._SHARD_BYTES
    return load_matrix(path, fmt="csv").values


def _parallel(monkeypatch, path, cpus):
    """Read ``path`` in ``cpus`` ranges; returns the values and the
    ranges that were handed out."""
    spans, parts = [], []

    def spy(fn, args, chunks, label):
        spans.extend(chunks)
        parts.extend(run_sharded(fn, args, chunks, label))
        return parts

    with monkeypatch.context() as patch:
        patch.setattr(corpus, "usable_cpus", lambda: cpus)
        patch.setattr(corpus, "_SHARD_BYTES", max(1, path.stat().st_size // cpus))
        patch.setattr(corpus, "run_sharded", spy)
        values = load_matrix(path, fmt="csv").values
    # the values are the ranges' own rows, not those of a serial re-parse
    _assert_same_bits(np.concatenate([rows for rows in parts if rows is not None]), values)
    return values, spans


def _assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def _rows(n, p=3, seed=0):
    rng = np.random.default_rng(seed)
    return [",".join(f"{v:.17g}" for v in row) for row in rng.normal(size=(n, p))]


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("trailing", [True, False])
def test_ranges_through_blank_runs_give_the_serial_bits(tmp_path, monkeypatch, newline, trailing):
    # runs of blank and whitespace-only lines between the rows; padding
    # the end shifts every range boundary through them
    blank = ["", "   ", "\t", " \t ", ""]
    lines = []
    for i, row in enumerate(_rows(12, p=2)):
        lines.append(row)
        lines += blank[: 2 + i % 4]
    path = tmp_path / "m.csv"
    boundary_in_blank_run = False
    for pad in range(0, 60, 3):
        text = newline.join(lines + [" "] * pad)
        path.write_bytes((text + newline if trailing else text).encode())
        serial = _serial(path)
        assert serial.shape == (12, 2)
        raw = path.read_bytes()
        for cpus in (2, 3):
            values, spans = _parallel(monkeypatch, path, cpus)
            assert len(spans) > 1
            _assert_same_bits(values, serial)
            for span in spans[1:]:
                before = raw[: span.start - 1].rsplit(b"\n", 1)[-1]
                after = raw[span.start:].split(b"\n", 1)[0]
                boundary_in_blank_run |= not before.strip() and not after.strip()
    assert boundary_in_blank_run


def test_crlf_ranges_read_like_lf(tmp_path, monkeypatch):
    text = "\n".join(_rows(50)) + "\n"
    (tmp_path / "lf.csv").write_bytes(text.encode())
    (tmp_path / "crlf.csv").write_bytes(text.replace("\n", "\r\n").encode())
    lf = _serial(tmp_path / "lf.csv")
    for cpus in (2, 3):
        values, spans = _parallel(monkeypatch, tmp_path / "crlf.csv", cpus)
        assert len(spans) == cpus
        _assert_same_bits(values, lf)


def test_range_of_blank_lines_only(tmp_path, monkeypatch):
    rows = _rows(2)
    path = tmp_path / "m.csv"
    path.write_text(rows[0] + "\n" + "  \n\n\t\n" * 60 + rows[1] + "\n")
    values, spans = _parallel(monkeypatch, path, 3)
    raw = path.read_bytes()
    assert any(not raw[s.start:s.stop].strip() for s in spans)
    _assert_same_bits(values, _serial(path))


def test_row_longer_than_a_range(tmp_path, monkeypatch):
    # one row with long cells among short ones: the ranges after it collapse
    short = ",".join(["0"] * 40)
    long = ",".join(f"{v:.17g}" for v in np.random.default_rng(1).normal(size=40))
    path = tmp_path / "m.csv"
    path.write_text("\n".join([short, long, short, short]) + "\n")
    for cpus in (3, 4):
        assert len(long) > path.stat().st_size // cpus
        values, spans = _parallel(monkeypatch, path, cpus)
        assert len(spans) < cpus
        _assert_same_bits(values, _serial(path))


@pytest.mark.parametrize("bad, match", [("1,2", "ragged rows"), ("1,zap,3", "non-numeric")])
def test_error_in_a_workers_range_is_the_serial_message(tmp_path, monkeypatch, bad, match):
    lines = _rows(30)
    lines[25] = bad
    path = tmp_path / "m.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusFormatError, match=match) as serial:
        load_matrix(path)
    bad_at = path.read_bytes().index(bad.encode())
    for cpus in (2, 3):
        # the bad row sits in a worker's range, not this process's
        assert bad_at >= corpus._line_spans(path, path.stat().st_size, cpus)[1].start
        with pytest.raises(CorpusFormatError) as parallel:
            _parallel(monkeypatch, path, cpus)
        assert str(parallel.value) == str(serial.value)


@pytest.mark.parametrize("text", ["\n" * 64, "  \n\t\n" * 32])
def test_blank_only_file_raises_no_rows_without_warning(tmp_path, monkeypatch, text):
    path = tmp_path / "blank.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cpus in (2, 3):
            with pytest.raises(CorpusFormatError, match="no rows"):
                _parallel(monkeypatch, path, cpus)


def test_worker_dying_without_a_result(tmp_path, monkeypatch, fork_start):
    path = tmp_path / "m.csv"
    path.write_text("\n".join(_rows(40)) + "\n")
    parse = corpus._parse_span

    def parse_or_exit(p, span):
        if span.start > 0:
            os._exit(7)
        return parse(p, span)

    monkeypatch.setattr(corpus, "_parse_span", parse_or_exit)
    with pytest.raises(RuntimeError, match=r"bytes \d+-\d+ exited with code 7 without a result"):
        _parallel(monkeypatch, path, 2)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_parallel_read_without_fork(tmp_path, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"the {method} start method is not available")
    path = tmp_path / "m.csv"
    path.write_text("\n".join(_rows(60)) + "\n")
    code = (
        "import multiprocessing, sys\n"
        "from pathlib import Path\n"
        "from anchorstat import corpus\n"
        f"multiprocessing.set_start_method({method!r})\n"
        f"path = Path({str(path)!r})\n"
        "corpus.usable_cpus = lambda: 2\n"
        "corpus._SHARD_BYTES = path.stat().st_size // 2\n"
        "assert len(corpus._line_spans(path, path.stat().st_size, 2)) == 2\n"
        "sys.stdout.buffer.write(corpus.load_matrix(path).values.tobytes())\n"
    )
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout == _serial(path).tobytes()


def test_parallel_read_peak_memory_is_bounded(tmp_path, monkeypatch):
    m = EmbeddingMatrix(values=np.random.default_rng(5).normal(size=(2000, 64)))
    path = tmp_path / "big.csv"
    save_matrix(m, path, fmt="csv")
    _parallel(monkeypatch, path, 2)  # warm up: the imports are not data copies
    for cpus in (2, 3):
        monkeypatch.setattr(corpus, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(corpus, "_SHARD_BYTES", path.stat().st_size // cpus)
        assert len(corpus._line_spans(path, path.stat().st_size, cpus)) == cpus
        tracemalloc.start()
        try:
            values = load_matrix(path, fmt="csv").values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _assert_same_bits(values, m.values)
        # the ranges' rows plus their concatenation
        assert peak <= 2.5 * m.values.nbytes


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    code = "import sys, anchorstat.cli; print('multiprocessing' in sys.modules)"
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_small_files_stay_in_this_process(tmp_path, monkeypatch):
    path = tmp_path / "m.csv"
    path.write_text("\n".join(_rows(40)) + "\n")

    def no_shards(*args):
        raise AssertionError("a small file was sharded")

    monkeypatch.setattr(corpus, "run_sharded", no_shards)
    assert load_matrix(path).n == 40
