"""What the tests share to run the package and to write its inputs:

- ``run_python(*argv, env=...)``: a fresh interpreter on ``argv`` with
  this checkout's ``src`` first on ``PYTHONPATH``, output captured;
- ``run_cli(*argv)``: ``anchorstat.cli.main`` in this process on the
  arguments as strings;
- ``write_collection(directory, collection, label, grid)``: each member
  as ``<role>.csv`` with its temperature, then ``manifest.json``;
- ``ROOT`` and ``SCRIPTS``: the checkout and its experiment scripts.

The reference computations the package is checked against (the k-means,
PCA and W1 transport oracles) are in ``brute_force.py``."""

import os
import subprocess
import sys
from pathlib import Path

from anchorstat.cli import main
from anchorstat.corpus import (
    DatasetManifest,
    ExperimentGrid,
    ManifestEntry,
    save_manifest,
    save_matrix,
)

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run_python(*argv, env=None, cwd=None, timeout=300, text=True, check=False):
    """``python argv...`` with ``src`` first on ``PYTHONPATH``; ``env``
    adds variables to this process's environment, and a ``None`` value
    removes one."""
    full = dict(os.environ)
    for name, value in (env or {}).items():
        if value is None:
            full.pop(name, None)
        else:
            full[name] = value
    full["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), full.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *map(str, argv)], env=full, cwd=cwd,
                          capture_output=True, text=text, timeout=timeout, check=check)


def run_cli(*argv):
    return main([str(a) for a in argv])


def write_collection(directory, collection, label, grid=ExperimentGrid(k_values=(2,))):
    """The manifest path of ``collection`` written to ``directory``."""
    directory = Path(directory)
    entries = []
    for role in collection.roles:
        save_matrix(collection.member(role), directory / f"{role}.csv")
        entries.append(ManifestEntry(path=f"{role}.csv", role=role,
                                     temperature=collection.temperatures.get(role)))
    path = directory / "manifest.json"
    save_manifest(DatasetManifest(tuple(entries), grid, label), path)
    return path
