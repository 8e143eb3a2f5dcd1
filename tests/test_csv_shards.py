"""The CSV reader's and writer's ranges. The reader cuts every file
into byte ranges that end at line ends, one range for a small file,
parses each range on its own, and gives back the rows with the bits,
errors and warnings of one whole-file parse; a file that does not parse
is read once more, line by line, to name the fault. The writer cuts a
matrix into row ranges, formats each into its own part file, and joins
the parts into the bytes of ``np.savetxt``."""

import multiprocessing
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from anchorstat import corpus, sharding
from anchorstat.corpus import EmbeddingMatrix, load_matrix, save_matrix
from anchorstat.errors import CorpusFormatError
from anchorstat.sharding import run_sharded
from plumbing import run_python


def _serial(path):
    """The parse in one range: these files are far below the default threshold."""
    assert path.stat().st_size < 2 * corpus._SHARD_BYTES
    return load_matrix(path, fmt="csv").values


def _parallel(monkeypatch, pin_cpus, path, cpus):
    """Read ``path`` in ``cpus`` ranges; returns the values and the
    ranges that were handed out."""
    spans, parts = [], []

    def spy(fn, args, items, label):
        spans.extend(items)
        parts.extend(run_sharded(fn, args, items, label))
        return parts

    pin_cpus(cpus)
    with monkeypatch.context() as patch:
        patch.setattr(corpus, "_SHARD_BYTES", max(1, path.stat().st_size // cpus))
        patch.setattr(sharding, "run_sharded", spy)
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
def test_ranges_through_blank_runs_give_the_serial_bits(tmp_path, monkeypatch, pin_cpus,
                                                       newline, trailing):
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
            values, spans = _parallel(monkeypatch, pin_cpus, path, cpus)
            assert len(spans) > 1
            _assert_same_bits(values, serial)
            for span in spans[1:]:
                before = raw[: span.start - 1].rsplit(b"\n", 1)[-1]
                after = raw[span.start:].split(b"\n", 1)[0]
                boundary_in_blank_run |= not before.strip() and not after.strip()
    assert boundary_in_blank_run


def test_crlf_ranges_read_like_lf(tmp_path, monkeypatch, pin_cpus):
    text = "\n".join(_rows(50)) + "\n"
    (tmp_path / "lf.csv").write_bytes(text.encode())
    (tmp_path / "crlf.csv").write_bytes(text.replace("\n", "\r\n").encode())
    lf = _serial(tmp_path / "lf.csv")
    for cpus in (2, 3):
        values, spans = _parallel(monkeypatch, pin_cpus, tmp_path / "crlf.csv", cpus)
        assert len(spans) == cpus
        _assert_same_bits(values, lf)


def test_range_of_blank_lines_only(tmp_path, monkeypatch, pin_cpus):
    rows = _rows(2)
    path = tmp_path / "m.csv"
    path.write_text(rows[0] + "\n" + "  \n\n\t\n" * 60 + rows[1] + "\n")
    values, spans = _parallel(monkeypatch, pin_cpus, path, 3)
    raw = path.read_bytes()
    assert any(not raw[s.start:s.stop].strip() for s in spans)
    _assert_same_bits(values, _serial(path))


def test_row_longer_than_a_range(tmp_path, monkeypatch, pin_cpus):
    # one row with long cells among short ones: the ranges after it collapse
    short = ",".join(["0"] * 40)
    long = ",".join(f"{v:.17g}" for v in np.random.default_rng(1).normal(size=40))
    path = tmp_path / "m.csv"
    path.write_text("\n".join([short, long, short, short]) + "\n")
    for cpus in (3, 4):
        assert len(long) > path.stat().st_size // cpus
        values, spans = _parallel(monkeypatch, pin_cpus, path, cpus)
        assert len(spans) < cpus
        _assert_same_bits(values, _serial(path))


@pytest.mark.parametrize("bad, match", [("1,2", "ragged rows"), ("1,zap,3", "non-numeric")])
def test_error_in_a_workers_range_is_the_serial_message(tmp_path, monkeypatch, pin_cpus,
                                                        bad, match):
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
            _parallel(monkeypatch, pin_cpus, path, cpus)
        assert str(parallel.value) == str(serial.value)


@pytest.mark.parametrize("text", ["\n" * 64, "  \n\t\n" * 32])
def test_blank_only_file_raises_no_rows_without_warning(tmp_path, monkeypatch, pin_cpus, text):
    path = tmp_path / "blank.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cpus in (2, 3):
            with pytest.raises(CorpusFormatError, match="no rows"):
                _parallel(monkeypatch, pin_cpus, path, cpus)


def test_worker_dying_without_a_result(tmp_path, monkeypatch, pin_cpus, fork_start):
    path = tmp_path / "m.csv"
    path.write_text("\n".join(_rows(40)) + "\n")
    parse = corpus._parse_span

    def parse_or_exit(p, span):
        if span.start > 0:
            os._exit(7)
        return parse(p, span)

    monkeypatch.setattr(corpus, "_parse_span", parse_or_exit)
    with pytest.raises(RuntimeError, match="byte ranges 1-1 exited with code 7 without a result"):
        _parallel(monkeypatch, pin_cpus, path, 2)
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
        "from anchorstat import corpus, sharding\n"
        f"multiprocessing.set_start_method({method!r})\n"
        f"path = Path({str(path)!r})\n"
        "sharding.usable_cpus = lambda: 2\n"
        "corpus._SHARD_BYTES = path.stat().st_size // 2\n"
        "assert len(corpus._line_spans(path, path.stat().st_size, 2)) == 2\n"
        "sys.stdout.buffer.write(corpus.load_matrix(path).values.tobytes())\n"
    )
    out = run_python("-c", code, text=False)
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout == _serial(path).tobytes()


def test_parallel_read_peak_memory_is_bounded(tmp_path, monkeypatch, pin_cpus):
    m = EmbeddingMatrix(values=np.random.default_rng(5).normal(size=(2000, 64)))
    path = tmp_path / "big.csv"
    save_matrix(m, path, fmt="csv")
    _parallel(monkeypatch, pin_cpus, path, 2)  # warm up: the imports are not data copies
    for cpus in (2, 3):
        pin_cpus(cpus)
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
    out = run_python("-c", code, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def _parse_spy(monkeypatch):
    """The byte ranges that `_parse_span` parses in this process from then on."""
    parsed = []
    parse = corpus._parse_span

    def spy(path, span):
        parsed.append(span)
        return parse(path, span)

    monkeypatch.setattr(corpus, "_parse_span", spy)
    return parsed


def test_small_files_stay_in_this_process(tmp_path, monkeypatch, pin_cpus):
    path = tmp_path / "m.csv"
    path.write_text("\n".join(_rows(40)) + "\n")
    ranges = []
    pin_cpus(4)
    monkeypatch.setattr(sharding, "run_sharded", _spy(ranges))
    parsed = _parse_spy(monkeypatch)
    assert load_matrix(path).n == 40
    # one range, and the spy saw it parsed: a worker's calls stay in the worker
    assert ranges == parsed == [range(path.stat().st_size)]


@pytest.mark.parametrize("bad_row", [3, 25])
def test_a_malformed_file_is_parsed_once_per_range_and_never_whole(tmp_path, monkeypatch,
                                                                    pin_cpus, bad_row):
    lines = _rows(30)
    lines[bad_row] = "1,zap,3"
    path = tmp_path / "m.csv"
    path.write_text("\n".join(lines) + "\n")
    size = path.stat().st_size
    spans = corpus._line_spans(path, size, 2)
    bad_at = path.read_bytes().index(b"zap")
    pin_cpus(2)
    monkeypatch.setattr(corpus, "_SHARD_BYTES", size // 2)
    # every range in this process, so the spy sees each parse
    monkeypatch.setattr(sharding, "run_sharded",
                        lambda fn, args, items, label: [fn(*args, item) for item in items])
    parsed = _parse_spy(monkeypatch)
    with pytest.raises(CorpusFormatError, match=f"non-numeric cell 'zap' at row {bad_row}, col 1"):
        load_matrix(path)
    # the ranges up to the one that holds the bad cell, each once
    assert parsed == [span for span in spans if span.start <= bad_at]


def test_a_malformed_file_is_named_within_the_parse_bound(tmp_path):
    m = EmbeddingMatrix(values=np.random.default_rng(6).normal(size=(2000, 64)))
    path = tmp_path / "bad.csv"
    save_matrix(m, path, fmt="csv")
    text = path.read_text()
    path.write_text(text[: text.rstrip("\n").rindex(",") + 1] + "zap\n")
    with pytest.raises(CorpusFormatError):  # warm up: the imports are not data copies
        load_matrix(path)
    tracemalloc.start()
    try:
        with pytest.raises(CorpusFormatError, match="non-numeric cell 'zap' at row 1999, col 63"):
            load_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the bound of a good file's parse: the diagnostic holds one line at a time
    assert peak <= 2.5 * m.values.nbytes


# the writer

_EDGE_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16 + 1]


def _edge_matrix(n, p):
    values = np.random.default_rng(n * 10 + p).normal(size=(n, p))
    flat = values.reshape(-1)
    flat[:5] = _EDGE_VALUES
    flat[-5:] = [-v for v in _EDGE_VALUES]
    return EmbeddingMatrix(values=values)


def _spy(ranges):
    """``run_sharded``, recording in ``ranges`` the row ranges it is handed."""

    def spy(fn, args, items, label):
        ranges.extend(items)
        return run_sharded(fn, args, items, label)

    return spy


def _write(monkeypatch, pin_cpus, m, path, cpus):
    """Write ``m`` in ``cpus`` row ranges; returns the ranges handed out."""
    ranges = []
    pin_cpus(cpus)
    with monkeypatch.context() as patch:
        patch.setattr(corpus, "_SHARD_BYTES", max(1, m.values.nbytes // cpus))
        patch.setattr(sharding, "run_sharded", _spy(ranges))
        save_matrix(m, path, fmt="csv")
    return ranges


@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_written_ranges_join_into_the_savetxt_bytes(tmp_path, monkeypatch, pin_cpus, cpus, p):
    m = _edge_matrix(7 if p == 4 else 11, p)  # no row count divisible by 2 or 3
    expected = tmp_path / "savetxt.csv"
    np.savetxt(expected, m.values, delimiter=",", fmt="%.17g")
    path = tmp_path / "m.csv"
    ranges = _write(monkeypatch, pin_cpus, m, path, cpus)
    assert len(ranges) == cpus and ranges[-1].stop == m.n
    assert path.read_bytes() == expected.read_bytes()
    _assert_same_bits(load_matrix(path).values, m.values)
    assert sorted(tmp_path.iterdir()) == [path, expected]


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_parallel_write_without_fork(tmp_path, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"the {method} start method is not available")
    m = _edge_matrix(30, 4)
    expected = tmp_path / "savetxt.csv"
    np.savetxt(expected, m.values, delimiter=",", fmt="%.17g")
    np.save(tmp_path / "m.npy", m.values)
    code = (
        "import multiprocessing\n"
        "import numpy as np\n"
        "from anchorstat import corpus, sharding\n"
        f"multiprocessing.set_start_method({method!r})\n"
        f"m = corpus.EmbeddingMatrix(values=np.load({str(tmp_path / 'm.npy')!r}))\n"
        "sharding.usable_cpus = lambda: 2\n"
        "corpus._SHARD_BYTES = m.values.nbytes // 2\n"
        "run = sharding.run_sharded\n"
        "def spy(fn, args, items, label):\n"
        "    print(len(items))\n"
        "    return run(fn, args, items, label)\n"
        "sharding.run_sharded = spy\n"
        f"corpus.save_matrix(m, {str(tmp_path / 'm.csv')!r})\n"
    )
    out = run_python("-c", code, text=False)
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout == b"2\n"
    assert (tmp_path / "m.csv").read_bytes() == expected.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv", "m.npy", "savetxt.csv"]


def test_a_small_matrix_is_written_in_one_range(tmp_path, monkeypatch, pin_cpus):
    m = _edge_matrix(300, 2)
    ranges = []
    pin_cpus(4)
    monkeypatch.setattr(sharding, "run_sharded", _spy(ranges))
    save_matrix(m, tmp_path / "m.csv")
    assert ranges == [range(300)]
    _assert_same_bits(load_matrix(tmp_path / "m.csv").values, m.values)


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_failed_write_keeps_the_old_file_and_leaves_no_part(tmp_path, monkeypatch, pin_cpus,
                                                             fork_start, failing):
    path = tmp_path / "m.csv"
    path.write_text("old contents\n")
    write_rows = corpus._write_rows

    def write_then_raise(values, prefix, rows):
        write_rows(values, prefix, rows)  # leaves a whole part file behind
        if (rows.start == 0) == (failing == "caller"):
            raise OSError(f"disk full in rows from {rows.start}")

    monkeypatch.setattr(corpus, "_write_rows", write_then_raise)
    with pytest.raises(OSError, match="disk full in rows from"):
        _write(monkeypatch, pin_cpus, _edge_matrix(40, 3), path, 3)
    assert path.read_text() == "old contents\n"
    assert list(tmp_path.iterdir()) == [path]
    assert multiprocessing.active_children() == []
