"""What the tests share to run the package and to write its inputs:

- ``run_python(*argv, env=...)``: a fresh interpreter on ``argv`` with
  this checkout's ``src`` first on ``PYTHONPATH``, output captured;
- ``run_cli(*argv)``: ``anchorstat.cli.main`` in this process on the
  arguments as strings;
- ``write_collection(directory, collection, label, grid)``: each member
  as ``<role>.csv`` with its temperature, then ``manifest.json``, as
  `anchorstat synth` writes them;
- ``ROOT``: the checkout.

The reference computations the package is checked against (the k-means,
PCA and W1 transport oracles) are in ``brute_force.py``."""

import os
import subprocess
import sys
from pathlib import Path

from anchorstat.cli import _write_collection, main
from anchorstat.corpus import ExperimentGrid

ROOT = Path(__file__).resolve().parents[1]


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
    return _write_collection(directory, collection, label, grid)
