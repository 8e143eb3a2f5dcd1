import json
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorstat import corpus
from anchorstat.corpus import (
    DatasetManifest,
    EmbeddingMatrix,
    ExperimentGrid,
    ManifestEntry,
    load_manifest,
    load_matrix,
    normalize_rows,
    save_manifest,
    save_matrix,
    validate_pairing,
)
from anchorstat.errors import (
    CorpusFormatError,
    DegeneracyError,
    DimensionError,
    ManifestError,
    PairingError,
    ParameterError,
)


def test_load_csv_direct_readback(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("0,1\n1,0\n1,1\n")
    m = load_matrix(path, fmt="csv")
    assert (m.n, m.p) == (3, 2)
    np.testing.assert_array_equal(m.values, [[0, 1], [1, 0], [1, 1]])


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(CorpusFormatError, match="no rows"):
        load_matrix(path, fmt="csv")


def test_load_csv_skips_whitespace_only_lines(tmp_path):
    path = tmp_path / "spaced.csv"
    path.write_text("0,1\n   \n1,0\n\t\n\n1,1\n  ")
    m = load_matrix(path, fmt="csv")
    np.testing.assert_array_equal(m.values, [[0, 1], [1, 0], [1, 1]])


def test_load_csv_whitespace_only_file(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("  \n\t\n")
    with pytest.raises(CorpusFormatError, match="no rows"):
        load_matrix(path, fmt="csv")


def test_load_csv_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("0,1\n1,2,3\n")
    with pytest.raises(CorpusFormatError, match="ragged"):
        load_matrix(path, fmt="csv")


def test_load_csv_non_numeric_cell_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1\n1,zap\n")
    with pytest.raises(CorpusFormatError, match="row 1, col 1"):
        load_matrix(path, fmt="csv")


def test_load_missing_file(tmp_path):
    with pytest.raises(CorpusFormatError, match="not found"):
        load_matrix(tmp_path / "nope.csv")


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_save_load_round_trip(tmp_path, fmt):
    rng = np.random.default_rng(0)
    m = EmbeddingMatrix(values=rng.normal(size=(7, 5)), label="rt")
    path = tmp_path / f"m.{fmt}"
    save_matrix(m, path, fmt=fmt)
    back = load_matrix(path, fmt=fmt)
    np.testing.assert_allclose(back.values, m.values, rtol=0, atol=1e-12)


def test_binary_rejects_corrupt_header(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 8)
    with pytest.raises(CorpusFormatError, match="magic"):
        load_matrix(path, fmt="binary")


def test_binary_rejects_truncation(tmp_path):
    m = EmbeddingMatrix(values=np.ones((3, 2)), label="t")
    path = tmp_path / "m.bin"
    save_matrix(m, path, fmt="binary")
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CorpusFormatError, match="size mismatch"):
        load_matrix(path, fmt="binary")


def test_matrix_rejects_nan():
    with pytest.raises(CorpusFormatError, match="non-finite"):
        EmbeddingMatrix(values=np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_matrix_rejects_single_row():
    with pytest.raises(DimensionError):
        EmbeddingMatrix(values=np.array([[1.0, 2.0]]))


def test_matrix_values_are_immutable():
    m = EmbeddingMatrix(values=np.eye(3))
    with pytest.raises(ValueError):
        m.values[0, 0] = 5.0


def test_normalize_three_four_five():
    m = EmbeddingMatrix(values=np.array([[3.0, 4.0], [1.0, 0.0]]))
    out = normalize_rows(m)
    np.testing.assert_allclose(out.values[0], [0.6, 0.8])
    np.testing.assert_array_equal(out.values[1], [1.0, 0.0])


def test_normalize_zero_row_names_index():
    m = EmbeddingMatrix(values=np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(DegeneracyError, match="row 1"):
        normalize_rows(m)


@pytest.mark.filterwarnings("error")  # a numpy warning fails the test
@pytest.mark.parametrize("row, what", [
    ([1e200, 1e200], "has a squared norm that overflows"),
    ([1e-320, 0.0], "has a squared norm that underflows to 0"),
    ([-1e-170, 1e-170], "has a squared norm that underflows to 0"),
    ([1e-160, 0.0], "has a norm too small to compute to full precision"),
])
def test_normalize_refuses_a_row_whose_squared_norm_leaves_the_floats(row, what):
    m = EmbeddingMatrix(values=np.array([[3.0, 4.0], row, [0.0, 0.0]]), label="x")
    with pytest.raises(DegeneracyError, match=re.escape(f"row 1 of 'x' {what}")):
        normalize_rows(m)


@pytest.mark.parametrize("p", [1, 2, 768, 3072])
def test_normalize_rows_twice_gives_the_bytes_of_once(p):
    # rows from 1e-100 to 1e100 in size: the second call keeps every
    # row the first made
    rng = np.random.default_rng(p)
    scale = 10.0 ** rng.integers(-100, 101, size=(64, 1))
    once = normalize_rows(EmbeddingMatrix(values=rng.normal(size=(64, p)) * scale))
    assert normalize_rows(once).values.tobytes() == once.values.tobytes()


def _members(*counts):
    rng = np.random.default_rng(2)
    return {
        f"m{i}": EmbeddingMatrix(values=rng.normal(size=(n, 3)), label=f"m{i}")
        for i, n in enumerate(counts)
    }


def test_pairing_equal_counts():
    coll = validate_pairing(_members(100, 100, 100))
    assert coll.n == 100
    assert len(coll.members) == 3


def test_pairing_mismatch_lists_counts():
    with pytest.raises(PairingError, match=r"m0: n=100.*m1: n=99"):
        validate_pairing(_members(100, 99))


def test_pairing_single_member_arity():
    with pytest.raises(PairingError, match="at least 2"):
        validate_pairing(_members(10))


def test_pairing_never_reorders_rows():
    rng = np.random.default_rng(3)
    a = EmbeddingMatrix(values=rng.normal(size=(6, 2)), label="a")
    b = EmbeddingMatrix(values=rng.normal(size=(6, 2)), label="b")
    coll = validate_pairing({"anchor": a, "x": b})
    np.testing.assert_array_equal(coll.member("anchor").values, a.values)
    np.testing.assert_array_equal(coll.member("x").values, b.values)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_round_trip_property(tmp_path_factory, n, p, seed):
    rng = np.random.default_rng(seed)
    m = EmbeddingMatrix(values=rng.normal(size=(n, p)) * 10.0 ** float(rng.integers(-6, 6)))
    root = tmp_path_factory.mktemp("rt")
    for fmt in ("csv", "binary"):
        save_matrix(m, root / f"m.{fmt}", fmt=fmt)
        back = load_matrix(root / f"m.{fmt}", fmt=fmt)
        np.testing.assert_allclose(back.values, m.values, rtol=0, atol=1e-12)


def _manifest(tmp_path, temps=(None, 0.1, 0.7)):
    rng = np.random.default_rng(4)
    entries = []
    for i, temp in enumerate(temps):
        role = "anchor" if i == 0 else f"nonanchor_{i}"
        m = EmbeddingMatrix(values=rng.normal(size=(8, 3)), label=role)
        save_matrix(m, tmp_path / f"{role}.csv")
        entries.append(
            ManifestEntry(path=f"{role}.csv", role=role, temperature=temp)
        )
    return DatasetManifest(entries=tuple(entries), grid=ExperimentGrid(), label="demo")


def test_manifest_round_trip(tmp_path):
    manifest = _manifest(tmp_path)
    save_manifest(manifest, tmp_path / "manifest.json")
    back = load_manifest(tmp_path / "manifest.json")
    assert back.label == "demo"
    assert back.grid == manifest.grid
    assert [e.role for e in back.entries] == [e.role for e in manifest.entries]
    coll = back.load_collection(tmp_path)
    assert coll.n == 8
    assert coll.temperatures["nonanchor_2"] == 0.7
    doc = json.loads((tmp_path / "manifest.json").read_text())
    del doc["label"]
    (tmp_path / "study.json").write_text(json.dumps(doc))
    assert load_manifest(tmp_path / "study.json").label == "study"


def test_manifest_requires_one_anchor():
    with pytest.raises(ManifestError, match="anchor"):
        DatasetManifest(
            entries=(
                ManifestEntry(path="a.csv", role="x"),
                ManifestEntry(path="b.csv", role="y"),
                ManifestEntry(path="c.csv", role="z"),
            ),
            grid=ExperimentGrid(),
        )


def test_manifest_requires_two_nonanchors():
    with pytest.raises(ManifestError, match="non-anchor"):
        DatasetManifest(
            entries=(
                ManifestEntry(path="a.csv", role="anchor"),
                ManifestEntry(path="b.csv", role="y"),
            ),
            grid=ExperimentGrid(),
        )


def test_manifest_rejects_small_k():
    with pytest.raises(ParameterError, match=">= 2"):
        ExperimentGrid(k_values=(1, 2))


def test_manifest_rejects_empty_k_grid():
    with pytest.raises(ParameterError, match="grid K values must not be empty"):
        ExperimentGrid(k_values=())


@pytest.mark.parametrize("args, message", [
    (((2.0, 3),), "grid K values must be integers, got (2.0, 3)"),
    (((True, 3),), "grid K values must be integers, got (True, 3)"),
    (((2,), "0.05"), "alpha must be a real number, got '0.05'"),
    (((2,), 0.05, 19.5), "permutation count must be an integer, got 19.5"),
    (((2,), 0.05, True), "permutation count must be an integer, got True"),
    (((2,), 0.05, 19, 1.0), "seed must be an integer, got 1.0"),
    (((2,), 0.05, 19, False), "seed must be an integer, got False"),
])
def test_grid_refuses_a_setting_of_the_wrong_type(args, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        ExperimentGrid(*args)


@pytest.mark.parametrize("field, value, message", [
    ("temperature", "0.7", "'temperature' must be null or a finite number, got '0.7'"),
    ("temperature", float("nan"), "'temperature' must be null or a finite number, got nan"),
    ("temperature", float("inf"), "'temperature' must be null or a finite number, got inf"),
    ("temperature", True, "'temperature' must be null or a finite number, got True"),
    ("path", 5, "'path' must be a string, got 5"),
    ("role", ["x"], "'role' must be a string"),
    ("format", None, "'format' must be a string, got None"),
    ("format", "bin", "unknown matrix format 'bin'"),
    pytest.param("temperature", 10**400, "'temperature' must be null or a finite number, got 1000",
                 id="temperature-integer-too-large-for-a-float"),
])
def test_load_manifest_checks_field_types(tmp_path, field, value, message):
    save_manifest(_manifest(tmp_path), tmp_path / "manifest.json")
    doc = json.loads((tmp_path / "manifest.json").read_text())
    doc["datasets"][1][field] = value
    (tmp_path / "manifest.json").write_text(json.dumps(doc))  # NaN and Infinity as Python writes them
    with pytest.raises(ManifestError, match=re.escape(f"datasets[1]: {message}")):
        load_manifest(tmp_path / "manifest.json")


@pytest.mark.parametrize("field", ["path", "role"])
def test_load_manifest_refuses_an_empty_path_or_role(tmp_path, field):
    save_manifest(_manifest(tmp_path), tmp_path / "manifest.json")
    doc = json.loads((tmp_path / "manifest.json").read_text())
    doc["datasets"][1][field] = ""
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match=re.escape(f"datasets[1]: '{field}' must not be empty")):
        load_manifest(tmp_path / "manifest.json")


@pytest.mark.parametrize("field, value, message", [
    ("permutations", 19.5, "permutation count must be an integer, got 19.5"),
    ("permutations", True, "permutation count must be an integer, got True"),
    ("k_values", [2.5], "grid K values must be integers, got (2.5,)"),
    ("k_values", [True, 3], "grid K values must be integers, got (True, 3)"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("alpha", "0.05", "alpha must be a real number, got '0.05'"),
    ("alpha", float("nan"), "alpha must be in (0,1), got nan"),
    ("alpha", True, "alpha must be in (0,1), got True"),
])
def test_load_manifest_checks_grid_types(tmp_path, field, value, message):
    # the manifest's grid settings are checked by the grid itself
    save_manifest(_manifest(tmp_path), tmp_path / "manifest.json")
    doc = json.loads((tmp_path / "manifest.json").read_text())
    doc["grid"][field] = value
    (tmp_path / "manifest.json").write_text(json.dumps(doc))  # NaN as Python writes it
    with pytest.raises(ParameterError, match=re.escape(message)):
        load_manifest(tmp_path / "manifest.json")


@pytest.mark.parametrize("k_values, kind", [(5, "number"), ("2,3", "string"), (None, "null")])
def test_load_manifest_refuses_k_values_that_are_not_an_array(tmp_path, k_values, kind):
    save_manifest(_manifest(tmp_path), tmp_path / "manifest.json")
    doc = json.loads((tmp_path / "manifest.json").read_text())
    doc["grid"]["k_values"] = k_values
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    message = f"manifest grid.k_values must be a JSON array, got {kind}"
    with pytest.raises(ManifestError, match=re.escape(message)):
        load_manifest(tmp_path / "manifest.json")


def test_load_manifest_ignores_an_unknown_grid_key(tmp_path):
    save_manifest(_manifest(tmp_path), tmp_path / "manifest.json")
    doc = json.loads((tmp_path / "manifest.json").read_text())
    doc["grid"]["bins"] = "ten"
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    assert load_manifest(tmp_path / "manifest.json").grid == ExperimentGrid()


@pytest.mark.parametrize("grid", [[], "x", 3, None])
def test_load_manifest_refuses_a_grid_that_is_not_an_object(tmp_path, grid):
    save_manifest(_manifest(tmp_path), tmp_path / "manifest.json")
    doc = json.loads((tmp_path / "manifest.json").read_text())
    doc["grid"] = grid
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    message = f"manifest grid must be a JSON object, got {grid!r}"
    with pytest.raises(ManifestError, match=re.escape(message)):
        load_manifest(tmp_path / "manifest.json")


@pytest.mark.parametrize("doc, message", [
    ([], "manifest must be a JSON object, got array"),
    ({"datasets": 3}, "manifest datasets must be a JSON array, got number"),
    ({"datasets": ["x"]}, "manifest datasets[0] must be a JSON object, got string"),
    ({"datasets": [], "label": None}, "manifest label must be a JSON string, got null"),
    ({"datasets": [], "label": ["a", "b"]}, "manifest label must be a JSON string, got array"),
    ({"datasets": [], "label": 7}, "manifest label must be a JSON string, got number"),
])
def test_load_manifest_names_the_part_of_the_wrong_shape(tmp_path, doc, message):
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match=re.escape(message)):
        load_manifest(tmp_path / "manifest.json")


@pytest.mark.parametrize("raw, detail", [
    (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0"),
    (b"[" * 200000 + b"]" * 200000, "maximum recursion depth exceeded"),
    (b'{"datasets": [], "x": ' + b"1" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
], ids=["not-utf-8", "nested-200000-deep", "integer-of-5000-digits"])
def test_load_manifest_refuses_bytes_json_cannot_read(tmp_path, raw, detail):
    (tmp_path / "manifest.json").write_bytes(raw)
    with pytest.raises(ManifestError, match=re.escape(f"manifest is not valid JSON: {detail}")):
        load_manifest(tmp_path / "manifest.json")


def test_manifest_missing_path(tmp_path):
    manifest = _manifest(tmp_path)
    (tmp_path / "nonanchor_1.csv").unlink()
    with pytest.raises(ManifestError, match="does not exist"):
        manifest.load_collection(tmp_path)


@pytest.mark.parametrize("text", ["", "  \n\t\n\n"])
def test_load_csv_no_rows_raises_without_warning(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CorpusFormatError, match="no rows"):
            load_matrix(path, fmt="csv")


def test_load_csv_crlf_reads_like_lf(tmp_path):
    text = "0.5,1e-3\n-2,3.25\n\n7,8\n"
    (tmp_path / "lf.csv").write_bytes(text.encode())
    (tmp_path / "crlf.csv").write_bytes(text.replace("\n", "\r\n").encode())
    lf = load_matrix(tmp_path / "lf.csv", fmt="csv")
    crlf = load_matrix(tmp_path / "crlf.csv", fmt="csv")
    assert crlf.values.shape == (3, 2)
    np.testing.assert_array_equal(crlf.values, lf.values)


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_csv_peak_memory_is_bounded(tmp_path):
    rng = np.random.default_rng(5)
    m = EmbeddingMatrix(values=rng.normal(size=(2000, 64)))
    path = tmp_path / "big.csv"
    save_matrix(m, path, fmt="csv")
    back, peak = _traced_peak(load_matrix, path, fmt="csv")
    np.testing.assert_array_equal(back.values, m.values)
    # the text is parsed as a stream: no full-size copy of the file is held
    assert peak <= 2.5 * m.values.nbytes


def test_binary_reader_holds_one_copy(tmp_path):
    rng = np.random.default_rng(6)
    m = EmbeddingMatrix(values=rng.normal(size=(2000, 64)))
    path = tmp_path / "big.bin"
    save_matrix(m, path, fmt="binary")
    values, peak = _traced_peak(corpus._read_binary, path)
    np.testing.assert_array_equal(values, m.values)
    assert peak <= 1.5 * m.values.nbytes


def test_unknown_save_format_creates_no_directory(tmp_path):
    m = EmbeddingMatrix(values=np.ones((2, 2)))
    with pytest.raises(CorpusFormatError, match="unknown matrix format 'bogus'"):
        save_matrix(m, tmp_path / "a" / "b" / "x", fmt="bogus")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("order", ["C", "F"])
def test_binary_writer_writes_the_arrays_buffer(tmp_path, order):
    rng = np.random.default_rng(9)
    m = EmbeddingMatrix(values=np.asarray(rng.normal(size=(2000, 64)), order=order))
    path = tmp_path / "big.bin"
    _, peak = _traced_peak(save_matrix, m, path, fmt="binary")
    assert path.read_bytes() == (
        corpus._BINARY_MAGIC + struct.pack("<II", m.n, m.p)
        + np.ascontiguousarray(m.values, dtype="<f8").tobytes()
    )
    if order == "C":
        # no bytes copy of the matrix is made on the way to the file
        assert peak < m.values.nbytes


def test_binary_load_matrix_takes_over_the_read_array(tmp_path):
    rng = np.random.default_rng(7)
    m = EmbeddingMatrix(values=rng.normal(size=(2000, 64)))
    path = tmp_path / "big.bin"
    save_matrix(m, path, fmt="binary")
    back, peak = _traced_peak(load_matrix, path, fmt="binary")
    np.testing.assert_array_equal(back.values, m.values)
    # the matrix keeps the array the reader built instead of copying it
    assert peak <= 1.5 * m.values.nbytes


def test_normalize_rows_takes_over_its_quotient():
    rng = np.random.default_rng(8)
    m = EmbeddingMatrix(values=rng.normal(size=(2000, 64)))
    unit, peak = _traced_peak(normalize_rows, m)
    np.testing.assert_allclose(np.linalg.norm(unit.values, axis=1), 1.0)
    # the squares inside the norm and the quotient, which the matrix keeps
    assert peak <= 2.2 * m.values.nbytes


def test_matrix_copies_the_callers_array():
    values = np.arange(6.0).reshape(3, 2)
    m = EmbeddingMatrix(values=values)
    values[0, 0] = 99.0
    assert m.values[0, 0] == 0.0
