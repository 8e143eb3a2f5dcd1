"""Data model and file formats for paired embedding datasets.

An embedding matrix holds one row per text; the row index is the pairing
key across datasets. A paired collection groups role-tagged matrices
(one anchor, any number of non-anchors) sharing a single index set.
"""

from __future__ import annotations

import io
import itertools
import json
import numbers
import os
import shutil
import struct
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, NoReturn

import numpy as np

from .errors import (
    CorpusFormatError,
    DegeneracyError,
    DimensionError,
    ManifestError,
    PairingError,
    ParameterError,
)
from . import sharding

ANCHOR_ROLE = "anchor"

_BINARY_MAGIC = b"EMBMAT01"
# CSV files of at least twice this many bytes are parsed, and matrices of
# at least twice this many bytes of values written, in ranges of at least
# this size, at most one per `sharding.usable_cpus()`, so `run_sharded`
# gives each range a process of its own (the reader's break-even under
# each start method is measured in CHANGES.md)
_SHARD_BYTES = 8 << 20


class _Fresh:
    """A float64 array that the matrix may take over without a copy: one
    that a loader or ``normalize_rows`` has just built and holds no
    other reference to."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _as_readonly(values) -> np.ndarray:
    # anything a caller passes is copied, so the caller keeps no handle
    # on the stored values
    if isinstance(values, _Fresh):
        arr = values.array
    else:
        arr = np.array(values, dtype=np.float64, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class EmbeddingMatrix:
    """n x p real matrix of embedding coordinates, immutable once built.
    Whether its rows have unit norm is not recorded: ``normalize_rows``
    makes them so each time it is called."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        arr = _as_readonly(self.values)
        if arr.ndim != 2:
            raise DimensionError(f"embedding matrix must be 2-D, got ndim={arr.ndim}")
        n, p = arr.shape
        if n < 2:
            raise DimensionError(f"embedding matrix needs at least 2 rows, got {n}")
        if p < 1:
            raise DimensionError(f"embedding matrix needs at least 1 column, got {p}")
        _check_finite(arr, self.label)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


def _check_finite(arr: np.ndarray, label: str) -> None:
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise CorpusFormatError(f"non-finite entry at row {bad[0]}, col {bad[1]} in '{label}'")


def _sample_rows(x) -> np.ndarray:
    """A sample as an (n, p) array: an `EmbeddingMatrix`'s values, or an
    array whose flat form is n 1-D points. The one rule by which
    ``kmeans`` and the baselines read their input; an array entry that
    is not finite is refused."""
    if isinstance(x, EmbeddingMatrix):
        return x.values
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DimensionError(f"sample must be 1-D or 2-D, got ndim={arr.ndim}")
    _check_finite(arr, "sample")
    return arr


def load_matrix(path, fmt: str = "csv", label: str | None = None) -> EmbeddingMatrix:
    """Read an embedding matrix from ``path`` in the given format.

    csv: headerless, comma-separated, one row per text.
    binary: 8-byte magic + uint32-LE n + uint32-LE p, then row-major
    little-endian float64.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusFormatError(f"matrix file not found: {path}")
    if label is None:
        label = path.stem
    if fmt == "csv":
        values = _read_csv(path)
    elif fmt == "binary":
        values = _read_binary(path)
    else:
        raise CorpusFormatError(f"unknown matrix format '{fmt}'")
    return EmbeddingMatrix(values=_Fresh(values.astype(np.float64, copy=False)), label=label)


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path``, creating missing parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def save_matrix(m: EmbeddingMatrix, path, fmt: str = "csv") -> None:
    """Write ``m`` to ``path`` in a format ``load_matrix`` reads back bit
    for bit. A CSV file appears whole or not at all: matrices of at least
    2 * ``_SHARD_BYTES`` of values are formatted in row ranges on the
    usable CPUs, each range into a part file beside ``path``, and the
    joined parts replace ``path``."""
    if fmt not in ("csv", "binary"):
        raise CorpusFormatError(f"unknown matrix format '{fmt}'")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "binary":
        header = _BINARY_MAGIC + struct.pack("<II", m.n, m.p)
        with open(path, "wb") as fh:
            fh.write(header)
            # the array's own buffer, not a bytes copy of it
            fh.write(memoryview(np.ascontiguousarray(m.values, dtype="<f8")))
        return
    ranges = sharding.split_range(
        m.n, min(sharding.usable_cpus(), m.values.nbytes // _SHARD_BYTES)
    )
    prefix = str(path.with_name(f".{path.name}.{os.getpid()}"))
    parts = [_part_path(prefix, rows) for rows in ranges]
    try:
        sharding.run_sharded(_write_rows, (m.values, prefix), ranges, f"{path} row ranges")
        with open(parts[0], "ab") as out:
            for part in parts[1:]:
                with open(part, "rb") as fh:
                    shutil.copyfileobj(fh, out)
        os.replace(parts[0], path)
    finally:
        for part in parts:
            part.unlink(missing_ok=True)


def _part_path(prefix: str, rows: range) -> Path:
    return Path(f"{prefix}.{rows.start}.part")


def _write_rows(values: np.ndarray, prefix: str, rows: range) -> None:
    """Write rows ``rows`` of ``values`` as ``np.savetxt(fmt="%.17g",
    delimiter=",")`` does (17 significant digits round-trip float64),
    formatting blocks of about 2**16 values so no full-size text is held."""
    line = ",".join(["%.17g"] * values.shape[1]) + "\n"
    step = max(1, (1 << 16) // values.shape[1])
    with open(_part_path(prefix, rows), "w") as fh:
        for start in range(rows.start, rows.stop, step):
            block = values[start : min(start + step, rows.stop)].tolist()
            fh.write("".join([line % tuple(row) for row in block]))


def _nonblank_lines(fh):
    # blank and whitespace-only lines are skipped
    return (ln for ln in fh if ln.strip())


class _Span(io.RawIOBase):
    """The next ``size`` bytes of an open binary file, as a stream."""

    def __init__(self, raw, size: int):
        self._raw, self._left = raw, size

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        got = self._raw.readinto(memoryview(buf)[: self._left])
        self._left -= got
        return got


def _parse_span(path: Path, span: range) -> np.ndarray | None:
    """The rows on the non-blank lines of bytes ``span`` of the file, or
    None if there are none. The bytes are decoded and split into lines
    as ``open(path)`` does, and parsed as a stream, so no full-size copy
    of the text is held."""
    with open(path, "rb", buffering=0) as raw:
        raw.seek(span.start)
        with io.TextIOWrapper(io.BufferedReader(_Span(raw, len(span)))) as fh:
            lines = _nonblank_lines(fh)
            first = next(lines, None)
            if first is None:
                return None  # loadtxt only warns on input with no data
            return np.loadtxt(itertools.chain([first], lines), delimiter=",", ndmin=2)


def _line_spans(path: Path, size: int, jobs: int) -> list[range]:
    """Up to ``jobs`` nonempty byte ranges that cover the file, each
    ending at a line end: range j starts at the first line start at or
    after size*j/jobs."""
    bounds = [0]
    with open(path, "rb") as fh:
        for j in range(1, jobs):
            fh.seek(size * j // jobs - 1)
            fh.readline()
            bounds.append(fh.tell())
    bounds.append(size)
    return [range(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


def _read_csv(path: Path) -> np.ndarray:
    """The file's rows, parsed by ``run_sharded`` in the byte ranges that
    ``_line_spans`` cuts (a small file is one range, parsed in this
    process), so every value has the bits of one whole-file parse."""
    size = path.stat().st_size
    spans = _line_spans(path, size, min(sharding.usable_cpus(), size // _SHARD_BYTES))
    try:
        parts = sharding.run_sharded(_parse_span, (path,), spans, f"{path} byte ranges")
        parts = [rows for rows in parts if rows is not None]
        if len(parts) > 1:
            return np.concatenate(parts)
    except ValueError as exc:  # a bad cell, undecodable bytes or ranges of different widths
        _raise_fault(path, exc.with_traceback(None))  # its frames hold the ranges' rows
    if not parts:
        raise CorpusFormatError(f"no rows in {path}")
    return parts[0]  # one range's rows, not a copy


def _raise_fault(path: Path, error: ValueError) -> NoReturn:
    """Raise the CorpusFormatError that names ragged rows in ``path``, else
    its first non-numeric cell in row-major order, else ``error``. The
    file is read line by line, keeping only the row widths and the first
    non-numeric cell; undecodable bytes read as U+FFFD."""
    widths, bad = set(), None
    with open(path, errors="replace") as fh:
        for i, line in enumerate(_nonblank_lines(fh)):
            cells = line.split(",")
            widths.add(len(cells))
            for j, cell in enumerate(cells if bad is None else ()):
                try:
                    float(cell)
                except ValueError:
                    bad = f"non-numeric cell {cell.strip()!r} at row {i}, col {j} in {path}"
                    break
    if len(widths) > 1:
        bad = f"ragged rows in {path}: row lengths {min(widths)} and {max(widths)} both present"
    if bad is not None:
        raise CorpusFormatError(bad) from None
    raise CorpusFormatError(f"cannot parse {path}: {error}") from error


def _read_binary(path: Path) -> np.ndarray:
    # the payload is read straight into the array that is returned
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise CorpusFormatError(f"no rows in {path} (truncated header)")
        if header[:8] != _BINARY_MAGIC:
            raise CorpusFormatError(f"bad magic in {path}; not a matrix file")
        n, p = struct.unpack("<II", header[8:16])
        expected = 16 + 8 * n * p
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise CorpusFormatError(
                f"size mismatch in {path}: header says {n}x{p} "
                f"({expected} bytes), file has {size}"
            )
        values = np.fromfile(fh, dtype="<f8", count=n * p)
    if values.size != n * p:
        raise CorpusFormatError(f"size mismatch in {path}: file shrank while read")
    return values.reshape(n, p)


def normalize_rows(m: EmbeddingMatrix) -> EmbeddingMatrix:
    """Scale every row to unit l2 norm. A row whose computed norm is
    within p * machine epsilon of 1 is kept as it is, so a second call
    returns the bytes of the first. A row whose norm overflows or is below
    sqrt(p) * 2**-511, where subnormal squares lose bits, is first divided
    by its largest magnitude; an all-zero row is refused."""
    with np.errstate(over="ignore"):  # such rows are rescaled below
        norms = np.linalg.norm(m.values, axis=1)
    floor = m.p**0.5 * 2.0**-511
    rows = np.flatnonzero((norms < floor) | (norms == np.inf))
    peaks = np.abs(m.values[rows]).max(axis=1)
    if not peaks.all():
        i = rows[np.argmin(peaks)]
        raise DegeneracyError(f"row {i} of '{m.label}' is all zeros; cannot normalize")
    scaled = m.values[rows] / peaks[:, None]
    norms[rows] = np.linalg.norm(scaled, axis=1)
    # dividing by 1.0 is exact
    norms[np.abs(norms - 1.0) <= m.p * np.finfo(np.float64).eps] = 1.0
    values = m.values / norms[:, None]
    values[rows] = scaled / norms[rows, None]
    return EmbeddingMatrix(values=_Fresh(values), label=m.label)


@dataclass(frozen=True)
class PairedCollection:
    """Role-tagged embedding matrices sharing one index set.

    Row i of every member refers to the same underlying text.
    """

    members: Mapping[str, EmbeddingMatrix]
    n: int
    temperatures: Mapping[str, float | None] = field(default_factory=dict)

    @property
    def roles(self) -> list[str]:
        return sorted(self.members)

    @property
    def anchor(self) -> EmbeddingMatrix:
        if ANCHOR_ROLE not in self.members:
            raise PairingError("collection has no anchor member")
        return self.members[ANCHOR_ROLE]

    @property
    def nonanchor_roles(self) -> list[str]:
        return sorted(r for r in self.members if r != ANCHOR_ROLE)

    def member(self, role: str) -> EmbeddingMatrix:
        return self.members[role]


def validate_pairing(
    members: Mapping[str, EmbeddingMatrix],
    temperatures: Mapping[str, float | None] | None = None,
) -> PairedCollection:
    """Check the pairing contract and assemble a PairedCollection.

    All members must have the same row count; rows are never reordered.
    """
    if len(members) < 2:
        raise PairingError(f"pairing needs at least 2 members, got {len(members)}")
    counts = {role: m.n for role, m in members.items()}
    distinct = set(counts.values())
    if len(distinct) > 1:
        detail = ", ".join(f"{role}: n={n}" for role, n in sorted(counts.items()))
        raise PairingError(f"row counts disagree across members ({detail})")
    n = distinct.pop()
    return PairedCollection(members=dict(members), n=n, temperatures=dict(temperatures or {}))


@dataclass(frozen=True)
class ManifestEntry:
    """One member of a manifest, built only from fields ``load_manifest`` reads."""

    path: str
    role: str
    temperature: float | None = None
    fmt: str = "csv"

    def __post_init__(self):
        for name, value in (("path", self.path), ("role", self.role), ("format", self.fmt)):
            if not isinstance(value, str):
                raise ManifestError(f"'{name}' must be a string, got {value!r}")
        for name in ("path", "role"):
            if not getattr(self, name):
                raise ManifestError(f"'{name}' must not be empty")
        if self.fmt not in ("csv", "binary"):
            raise ManifestError(f"unknown matrix format {self.fmt!r}")
        t = self.temperature
        # numbers that json writes: a numpy float64 is a float, a bool is not a
        # temperature, and the bound turns away NaN, infinities and huge ints
        if t is not None and (isinstance(t, bool) or not isinstance(t, (int, float))
                              or not abs(t) <= sys.float_info.max):
            raise ManifestError(f"'temperature' must be null or a finite number, got {t!r}")


def _require_int(what: str, value) -> None:
    # bools are ints to Python, but not counts, sizes or seeds
    if type(value) is not int:
        raise ParameterError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ExperimentGrid:
    """The test settings of one experiment: every K of the battery, the
    level, the permutation count and the root seed. The one place that
    checks them: a value of the wrong type or out of range is a
    ParameterError, raised when the grid is built. Its defaults are the
    tests' defaults, and ``dataclasses.asdict`` of it is the JSON form
    that manifests and battery tables write."""

    k_values: tuple[int, ...] = (2, 3, 4, 5)
    alpha: float = 0.05
    permutations: int = 999
    seed: int = 0

    def __post_init__(self):
        if not self.k_values:
            raise ParameterError("grid K values must not be empty")
        if not all(type(k) is int for k in self.k_values):
            raise ParameterError(f"grid K values must be integers, got {self.k_values}")
        if not isinstance(self.alpha, numbers.Real):
            raise ParameterError(f"alpha must be a real number, got {self.alpha!r}")
        _require_int("permutation count", self.permutations)
        _require_int("seed", self.seed)
        if any(k < 2 for k in self.k_values):
            raise ParameterError(f"grid K values must be >= 2, got {self.k_values}")
        if len(set(self.k_values)) != len(self.k_values):
            raise ParameterError(f"grid K values must be distinct, got {self.k_values}")
        if not 0 < self.alpha < 1:
            raise ParameterError(f"alpha must be in (0,1), got {self.alpha}")
        if self.permutations < 1:
            raise ParameterError(f"permutation count must be >= 1, got {self.permutations}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class DatasetManifest:
    """Paths, roles and experiment grid for one paired dataset collection."""

    entries: tuple[ManifestEntry, ...]
    grid: ExperimentGrid
    label: str = ""

    def __post_init__(self):
        roles = [e.role for e in self.entries]
        anchors = roles.count(ANCHOR_ROLE)
        if anchors != 1:
            raise ManifestError(f"manifest needs exactly one anchor role, found {anchors}")
        if len(roles) - anchors < 2:
            raise ManifestError("manifest needs at least two non-anchor members")
        if len(set(roles)) != len(roles):
            raise ManifestError("manifest roles must be unique")

    def load_collection(self, base: Path) -> PairedCollection:
        """Each member read from ``base / entry.path``, once every path exists."""
        paths = [Path(base) / e.path for e in self.entries]
        for p in paths:
            if not p.exists():
                raise ManifestError(f"manifest path does not exist: {p}")
        members = {e.role: load_matrix(p, fmt=e.fmt, label=e.role)
                   for e, p in zip(self.entries, paths)}
        temps = {e.role: e.temperature for e in self.entries}
        return validate_pairing(members, temperatures=temps)


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"manifest file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    # bytes that are not UTF-8, a number json cannot convert, or nesting
    # deeper than the interpreter's recursion limit
    except (ValueError, RecursionError) as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    _check_json_type("manifest", doc, dict)
    try:
        datasets = _check_json_type("manifest datasets", doc["datasets"], list)
        entries = tuple(
            _manifest_entry(i, _check_json_type(f"manifest datasets[{i}]", d, dict))
            for i, d in enumerate(datasets)
        )
        grid = _manifest_grid(doc.get("grid", {}))
    except KeyError as exc:
        raise ManifestError(f"manifest missing required field: {exc}") from exc
    label = _check_json_type("manifest label", doc.get("label", path.stem), str)
    return DatasetManifest(entries=entries, grid=grid, label=label)


_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean",
               int: "number", float: "number", type(None): "null"}


def _check_json_type(what: str, value, kind: type):
    """``value``, if json read it as ``kind``; else a ManifestError that
    names ``what`` and the JSON type it has."""
    if type(value) is not kind:
        raise ManifestError(
            f"{what} must be a JSON {_JSON_TYPES[kind]}, got {_JSON_TYPES[type(value)]}"
        )
    return value


def _manifest_grid(g: dict) -> ExperimentGrid:
    """A manifest's grid object as the ``ExperimentGrid``, which checks
    every setting it gives; the manifest checks only that K is an array.
    Unknown keys are ignored."""
    if type(g) is not dict:
        raise ManifestError(f"manifest grid must be a JSON object, got {g!r}")
    settings = {n: g[n] for n in ("alpha", "permutations", "seed") if n in g}
    if "k_values" in g:  # a string or a number would not make a tuple of Ks
        k_values = _check_json_type("manifest grid.k_values", g["k_values"], list)
        settings["k_values"] = tuple(k_values)
    return ExperimentGrid(**settings)


def _manifest_entry(i: int, d: dict) -> ManifestEntry:
    """Entry i of a manifest's datasets; a refused field names i."""
    try:
        return ManifestEntry(d["path"], d["role"], d.get("temperature"), d.get("format", "csv"))
    except ManifestError as exc:
        raise ManifestError(f"manifest datasets[{i}]: {exc}") from None


def save_manifest(manifest: DatasetManifest, path) -> None:
    doc = {
        "label": manifest.label,
        "datasets": [
            {
                "path": e.path,
                "role": e.role,
                "temperature": e.temperature,
                "format": e.fmt,
            }
            for e in manifest.entries
        ],
        "grid": asdict(manifest.grid),
    }
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
