"""Data model and file formats for paired embedding datasets.

An embedding matrix holds one row per text; the row index is the pairing
key across datasets. A paired collection groups role-tagged matrices
(one anchor, any number of non-anchors) sharing a single index set.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    CorpusFormatError,
    DegeneracyError,
    DimensionError,
    ManifestError,
    PairingError,
)
from .sharding import run_sharded, usable_cpus

ANCHOR_ROLE = "anchor"

_BINARY_MAGIC = b"EMBMAT01"
_UNIT_NORM_TOL = 1e-6
# CSV files of at least twice this many bytes are parsed in ranges of at
# least this size, one per usable CPU (break-even measured in CHANGES.md)
_SHARD_BYTES = 8 << 20


class _Fresh:
    """A float64 array that a loader has just built and holds no other
    reference to, so the matrix may take it over without a copy."""

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

    ``unit_norm`` asserts that every row has unit l2 norm (within 1e-6).
    """

    values: np.ndarray
    label: str = ""
    unit_norm: bool = False

    def __post_init__(self):
        arr = _as_readonly(self.values)
        if arr.ndim != 2:
            raise DimensionError(f"embedding matrix must be 2-D, got ndim={arr.ndim}")
        n, p = arr.shape
        if n < 2:
            raise DimensionError(f"embedding matrix needs at least 2 rows, got {n}")
        if p < 1:
            raise DimensionError(f"embedding matrix needs at least 1 column, got {p}")
        if not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise CorpusFormatError(
                f"non-finite entry at row {bad[0]}, col {bad[1]} in '{self.label}'"
            )
        if self.unit_norm:
            norms = np.linalg.norm(arr, axis=1)
            off = np.abs(norms - 1.0)
            if np.any(off > _UNIT_NORM_TOL):
                i = int(np.argmax(off))
                raise CorpusFormatError(
                    f"unit_norm flagged but row {i} has norm {norms[i]:.8f}"
                )
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def with_label(self, label: str) -> "EmbeddingMatrix":
        return replace(self, label=label)


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


def save_matrix(m: EmbeddingMatrix, path, fmt: str = "csv") -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        # 17 significant digits round-trips float64 exactly
        np.savetxt(path, m.values, delimiter=",", fmt="%.17g")
    elif fmt == "binary":
        header = _BINARY_MAGIC + struct.pack("<II", m.n, m.p)
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(np.ascontiguousarray(m.values, dtype="<f8").tobytes())
    else:
        raise CorpusFormatError(f"unknown matrix format '{fmt}'")


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
    size = path.stat().st_size
    jobs = min(usable_cpus(), size // _SHARD_BYTES)
    if jobs > 1:
        # each range parses its own lines, so every value has the bits of
        # the serial parse; a bad cell or ranges of different widths raise
        # ValueError, and the serial parse below then names the fault
        try:
            spans = _line_spans(path, size, jobs)
            parts = run_sharded(_parse_span, (path,), spans, f"{path} bytes")
            parts = [rows for rows in parts if rows is not None]
            if parts:
                return np.concatenate(parts)
        except ValueError:
            pass
    try:
        values = _parse_span(path, range(size))
    except ValueError as exc:
        error = exc
    else:
        if values is None:
            raise CorpusFormatError(f"no rows in {path}")
        return values
    # slow diagnostic pass to say what failed; reads the file again
    with open(path) as fh:
        rows = [ln.split(",") for ln in _nonblank_lines(fh)]
    widths = sorted({len(cells) for cells in rows})
    if len(widths) > 1:
        raise CorpusFormatError(
            f"ragged rows in {path}: row lengths {widths[0]} and {widths[-1]} both present"
        )
    for i, cells in enumerate(rows):
        for j, cell in enumerate(cells):
            try:
                float(cell)
            except ValueError:
                raise CorpusFormatError(
                    f"non-numeric cell {cell.strip()!r} at row {i}, col {j} in {path}"
                ) from None
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
    """Scale every row to unit l2 norm and set the ``unit_norm`` flag.

    A matrix already flagged ``unit_norm`` is returned unchanged, which
    makes the operation exactly idempotent.
    """
    if m.unit_norm:
        return m
    norms = np.linalg.norm(m.values, axis=1)
    if np.any(norms == 0.0):
        i = int(np.argmin(norms))
        raise DegeneracyError(f"row {i} of '{m.label}' is all zeros; cannot normalize")
    return EmbeddingMatrix(values=m.values / norms[:, None], label=m.label, unit_norm=True)


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
    members: Mapping[str, EmbeddingMatrix] | Sequence[tuple[str, EmbeddingMatrix]],
    temperatures: Mapping[str, float | None] | None = None,
) -> PairedCollection:
    """Check the pairing contract and assemble a PairedCollection.

    All members must have the same row count; rows are never reordered.
    """
    if not isinstance(members, Mapping):
        members = dict(members)
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
    path: str
    role: str
    temperature: float | None = None
    fmt: str = "csv"


@dataclass(frozen=True)
class ExperimentGrid:
    k_values: tuple[int, ...] = (2, 3, 4, 5)
    alpha: float = 0.05
    permutations: int = 999
    seed: int = 0

    def __post_init__(self):
        if any(k < 2 for k in self.k_values):
            raise ManifestError(f"grid K values must be >= 2, got {self.k_values}")
        if not 0 < self.alpha < 1:
            raise ManifestError(f"alpha must be in (0,1), got {self.alpha}")
        if self.permutations < 1:
            raise ManifestError("permutations must be >= 1")


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

    def validate_paths(self, base: Path | None = None) -> None:
        for e in self.entries:
            p = _resolve(e.path, base)
            if not p.exists():
                raise ManifestError(f"manifest path does not exist: {p}")

    def load_collection(self, base: Path | None = None) -> PairedCollection:
        members = {}
        temps = {}
        for e in self.entries:
            p = _resolve(e.path, base)
            members[e.role] = load_matrix(p, fmt=e.fmt, label=e.role)
            temps[e.role] = e.temperature
        return validate_pairing(members, temperatures=temps)


def _resolve(path: str, base: Path | None) -> Path:
    p = Path(path)
    if not p.is_absolute() and base is not None:
        p = Path(base) / p
    return p


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"manifest file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    try:
        entries = tuple(
            ManifestEntry(
                path=d["path"],
                role=d["role"],
                temperature=d.get("temperature"),
                fmt=d.get("format", "csv"),
            )
            for d in doc["datasets"]
        )
        g = doc.get("grid", {})
        grid = ExperimentGrid(
            k_values=tuple(g.get("k_values", (2, 3, 4, 5))),
            alpha=g.get("alpha", 0.05),
            permutations=g.get("permutations", 999),
            seed=g.get("seed", 0),
        )
    except (KeyError, TypeError) as exc:
        raise ManifestError(f"manifest missing required field: {exc}") from exc
    return DatasetManifest(entries=entries, grid=grid, label=doc.get("label", path.stem))


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
        "grid": {
            "k_values": list(manifest.grid.k_values),
            "alpha": manifest.grid.alpha,
            "permutations": manifest.grid.permutations,
            "seed": manifest.grid.seed,
        },
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
