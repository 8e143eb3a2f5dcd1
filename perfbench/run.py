"""anchorstat benchmark: drives the public ``anchorstat`` CLI, one fresh
process per invocation, and reports end-to-end or per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload battery-paper --seed 1 --seconds 16 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the same invocations
a second time through ``traced_cli.py`` and reports the per-layer ones.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
TRACED_CLI = HERE / "traced_cli.py"

# A unit fails when its cell does not render as a p-value or "identical".
CELL_RE = re.compile(r"^(?:< \de-\d+|[01]\.\d{3})\*?$|^identical$")

BATTERY_BASELINES = ("hotelling", "nploc", "energy")
EMBED_BASELINES = ("hotelling", "nploc")

# Criterion 7's bound on the null rejection rate, checked on the pooled
# replicates of one run.
MC_RATE_BOUNDS = (0.01, 0.10)

# Per-layer metrics: (function, stats). ``calls``/``s``/``self_s`` are
# reported for every function named here; the extra stats only where listed.
LAYER_FUNCTIONS = {
    "stattests.energy_test": ("replicates_per_s",),
    "stattests.nploc_mean_test": (),
    "stattests.hotelling_paired": (),
    "stattests.sign_flip_pvalue": ("replicates_per_s", "peak_mb"),
    "stattests.anchored_test": (),
    "cluster.kmeans": ("ms_p50", "ms_p90"),
    "anchor.mapped_distances": (),
    "corpus.load_matrix": ("mb_per_s",),
    "preprocess.fit_pca": (),
    "preprocess.apply_pca": (),
    "synth.generate_null_triple": (),
    "synth.monte_carlo": (),
}
STAT_UNITS = {
    "calls": "count",
    "s": "s",
    "self_s": "s",
    "replicates_per_s": "1/s",
    "peak_mb": "MB",
    "ms_p50": "ms",
    "ms_p90": "ms",
    "mb_per_s": "MB/s",
}


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    out_name: str
    units: int


class Workload:
    """One closed-loop client issuing ``count`` CLI invocations in turn.

    ``nominal_s`` is one invocation's wall time at the seed commit on a
    2-core machine. A run makes seconds / nominal_s invocations, rounded
    half up and at least two, so the work in a run is fixed by
    ``--seconds`` and does not depend on how fast the code under test
    is. Two invocations average two inputs, and give the mc-null rate
    check 400 pooled replicates. Set-up is timed per invocation input and
    repeated until there are ``setup_samples`` timings.
    """

    name = ""
    nominal_s = 1.0
    min_invocations = 2
    setup_samples = 2
    expected_calls: tuple[str, ...] = ()

    def __init__(self, size: str):
        self.size = size

    def count(self, seconds: float) -> int:
        if self.size == "tiny":
            return 1
        return max(self.min_invocations, int(seconds / self.nominal_s + 0.5))

    def setup_one(self, directory: Path, q: int) -> Invocation:
        """Write the inputs of the invocation with input seed ``q``."""
        raise NotImplementedError

    def check(self, inv: Invocation, text: str) -> tuple[int, list[str]]:
        """Return (failed units, notes) for one invocation's output."""
        raise NotImplementedError

    def check_run(self) -> tuple[bool, list[str]]:
        """Checks over the whole run; a failure fails every unit."""
        return True, []


def _arg(inv: Invocation, flag: str) -> str:
    return inv.argv[inv.argv.index(flag) + 1]


def _write_collection(anchorstat, coll, directory: Path, label: str, grid, normalize=False):
    entries = []
    for role in coll.roles:
        m = coll.member(role)
        if normalize:
            m = anchorstat.normalize_rows(m)
        fname = f"{role}.csv"
        anchorstat.save_matrix(m, directory / fname, fmt="csv")
        entries.append(anchorstat.ManifestEntry(path=fname, role=role, fmt="csv"))
    manifest = anchorstat.DatasetManifest(entries=tuple(entries), grid=grid, label=label)
    anchorstat.save_manifest(manifest, directory / "manifest.json")
    return directory / "manifest.json"


def _check_battery_csv(text: str, label: str, k_values, baselines, pairs) -> tuple[int, list[str], dict]:
    """Validate one battery CSV; return (bad cells, notes, row -> cells)."""
    lines = text.splitlines()
    header = ["dataset", "hypothesis"] + [f"anchored_K{k}" for k in k_values]
    header += list(baselines) + ["ball_external"]
    width = len(k_values) + len(baselines)
    total = width * len(pairs)
    if not lines or lines[0].split(",") != header:
        return total, [f"{label}: bad header {lines[:1]}"], {}
    rows = {}
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header) or cells[0] != label or cells[-1] != "":
            return total, [f"{label}: malformed row {ln!r}"], {}
        rows[cells[1]] = cells[2:-1]
    expected = [f"H0(anchor; {a} vs {b})" for a, b in pairs]
    if list(rows) != expected:
        return total, [f"{label}: rows {list(rows)} != {expected}"], {}
    bad = [c for cells in rows.values() for c in cells if not CELL_RE.match(c)]
    notes = [f"{label}: bad cell {c!r}" for c in bad]
    return len(bad), notes, rows


class BatteryPaper(Workload):
    """The paper's battery pattern study (criterion 9's inputs)."""

    name = "battery-paper"
    nominal_s = 8.0
    setup_samples = 25
    expected_calls = (
        "stattests.energy_test", "stattests.nploc_mean_test",
        "stattests.hotelling_paired", "stattests.sign_flip_pvalue",
        "stattests.anchored_test", "cluster.kmeans",
        "anchor.mapped_distances", "corpus.load_matrix",
    )
    roles = ("nonanchor_aligned_1", "nonanchor_aligned_2", "nonanchor_drifted")

    def __init__(self, size):
        super().__init__(size)
        tiny = size == "tiny"
        self.n = 60 if tiny else 300
        self.k_values = (2, 3) if tiny else (2, 3, 4, 5)
        self.permutations = 99 if tiny else 999
        self.pairs = [
            (a, b) for i, a in enumerate(self.roles) for b in self.roles[i + 1:]
        ]
        self.fractions = {"drifted_rejected": [0, 0], "aligned_accepted": [0, 0]}

    def setup_one(self, directory, q):
        import anchorstat

        cfg = anchorstat.ScenarioConfig(
            n=self.n, dim=2, K_true=2, community_separation=10.0, noise_sd=1.0, seed=q
        )
        grid = anchorstat.ExperimentGrid(
            k_values=self.k_values, permutations=self.permutations, seed=q
        )
        manifest = _write_collection(
            anchorstat, anchorstat.generate_battery_quad(cfg), directory, f"synthetic-{q}", grid
        )
        argv = ("battery", "--manifest", str(manifest), "--seed", str(q),
                "--baselines", ",".join(BATTERY_BASELINES))
        units = len(self.pairs) * (len(self.k_values) + len(BATTERY_BASELINES))
        return Invocation(argv, f"battery-{q}.csv", units)

    def check(self, inv, text):
        label = f"synthetic-{_arg(inv, '--seed')}"
        bad, notes, rows = _check_battery_csv(
            text, label, self.k_values, BATTERY_BASELINES, self.pairs
        )
        if rows:
            # criterion 9's fractions, recorded (BASELINE.md says why not gated)
            drift = rows["H0(anchor; nonanchor_aligned_1 vs nonanchor_drifted)"]
            aligned = rows["H0(anchor; nonanchor_aligned_1 vs nonanchor_aligned_2)"]
            aligned = aligned[: len(self.k_values)]
            self.fractions["drifted_rejected"][0] += sum(c.endswith("*") for c in drift)
            self.fractions["drifted_rejected"][1] += len(drift)
            self.fractions["aligned_accepted"][0] += sum(not c.endswith("*") for c in aligned)
            self.fractions["aligned_accepted"][1] += len(aligned)
        return bad, notes

    def check_run(self):
        notes = [
            f"criterion 9 {k}: {hit}/{tot} = {hit / tot:.3f}"
            for k, (hit, tot) in self.fractions.items() if tot
        ]
        return True, notes


class McNull(Workload):
    """``anchorstat mc --scenario null`` at criterion 7's inputs."""

    name = "mc-null"
    nominal_s = 12.5
    setup_samples = 25
    expected_calls = (
        "stattests.sign_flip_pvalue", "stattests.anchored_test", "cluster.kmeans",
        "anchor.mapped_distances", "synth.generate_null_triple", "synth.monte_carlo",
    )

    def __init__(self, size):
        super().__init__(size)
        tiny = size == "tiny"
        self.n = 60 if tiny else 300
        self.m = 40 if tiny else 200
        self.permutations = 99 if tiny else 999
        self.tallies = []

    def setup_one(self, directory, q):
        # `mc` reads no files. Its set-up writes the invocation's null
        # triple the way `synth --scenario null` does, so set-up time
        # covers generation and the writers at this workload's scale.
        import anchorstat

        cfg = anchorstat.ScenarioConfig(
            n=self.n, dim=2, K_true=2, community_separation=8.0, noise_sd=1.0, seed=q
        )
        grid = anchorstat.ExperimentGrid(k_values=(2,), permutations=self.permutations, seed=q)
        _write_collection(
            anchorstat, anchorstat.generate_null_triple(cfg), directory, "synth-null", grid
        )
        argv = ("mc", "--scenario", "null", "--n", str(self.n), "--dim", "2",
                "--k-true", "2", "--separation", "8", "--noise", "1", "--k", "2",
                "--m", str(self.m), "--seed", str(q))
        if self.permutations != 999:
            argv += ("--permutations", str(self.permutations))
        return Invocation(argv, f"mc-{q}.json", self.m)

    def check(self, inv, text):
        q = int(_arg(inv, "--seed"))
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return inv.units, [f"mc seed {q}: output is not JSON ({exc})"]
        expect = {"scenario": "null", "M": self.m, "K": 2, "seed": q,
                  "replicates": self.permutations, "alpha": 0.05}
        wrong = {k: doc.get(k) for k, v in expect.items() if doc.get(k) != v}
        rej, vac = doc.get("rejections"), doc.get("vacuous")
        if wrong or not isinstance(rej, int) or not isinstance(vac, int) \
                or not 0 <= rej + vac <= self.m or doc.get("rate") != rej / self.m:
            return inv.units, [f"mc seed {q}: unexpected fields {wrong or doc}"]
        self.tallies.append((rej, vac))
        return 0, []

    def check_run(self):
        if not self.tallies:
            return False, ["mc: no valid report"]
        rej = sum(r for r, _ in self.tallies)
        vac = sum(v for _, v in self.tallies)
        total = self.m * len(self.tallies)
        rate = rej / total
        lo, hi = MC_RATE_BOUNDS
        ok = lo <= rate <= hi
        note = f"criterion 7 pooled null rate {rej}/{total} = {rate:.4f} (vacuous {vac}); bound [{lo}, {hi}]"
        return ok, [note + ("" if ok else " VIOLATED")]


class EmbedCorpus(Workload):
    """The real-data path at embedding scale, read from headerless CSV."""

    name = "embed-corpus"
    nominal_s = 25.0
    expected_calls = (
        "stattests.nploc_mean_test", "stattests.hotelling_paired",
        "stattests.sign_flip_pvalue", "stattests.anchored_test", "cluster.kmeans",
        "anchor.mapped_distances", "corpus.load_matrix", "preprocess.fit_pca",
        "preprocess.apply_pca",
    )

    def __init__(self, size):
        super().__init__(size)
        tiny = size == "tiny"
        self.n = 200 if tiny else 3000
        self.dim = 64 if tiny else 768
        self.pca_dim = 8 if tiny else 32
        self.k_values = (2, 3) if tiny else (2, 3, 4, 5)
        self.permutations = 99 if tiny else 999
        self.pairs = [("nonanchor_1", "nonanchor_2")]

    def setup_one(self, directory, q):
        import anchorstat

        cfg = anchorstat.ScenarioConfig(n=self.n, dim=self.dim, K_true=3, seed=q)
        grid = anchorstat.ExperimentGrid(
            k_values=self.k_values, permutations=self.permutations, seed=q
        )
        manifest = _write_collection(
            anchorstat, anchorstat.generate_null_triple(cfg), directory,
            f"embed-{q}", grid, normalize=True,
        )
        argv = ("battery", "--manifest", str(manifest), "--seed", str(q),
                "--pca-dim", str(self.pca_dim),
                "--k-grid", ",".join(map(str, self.k_values)),
                "--baselines", ",".join(EMBED_BASELINES))
        units = len(self.k_values) + len(EMBED_BASELINES)
        return Invocation(argv, f"embed-{q}.csv", units)

    def check(self, inv, text):
        label = f"embed-{_arg(inv, '--seed')}"
        bad, notes, _ = _check_battery_csv(
            text, label, self.k_values, EMBED_BASELINES, self.pairs
        )
        return bad, notes


WORKLOADS = {w.name: w for w in (BatteryPaper, McNull, EmbedCorpus)}


# ---------------------------------------------------------------------------
# running


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _timed_phase(invocations, out_dir: Path, traced: bool, spans_dir: Path | None = None):
    """Run every invocation in a fresh process, one after another.

    Returns (wall seconds of the whole phase, per-invocation results),
    where a result is (returncode, output text or None, stderr tail,
    wall seconds).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    env = _child_env()
    results = []
    start = time.perf_counter()
    for i, inv in enumerate(invocations):
        out = out_dir / inv.out_name
        argv = list(inv.argv) + ["--out", str(out)]
        if traced:
            cmd = [sys.executable, str(TRACED_CLI), str(spans_dir / f"spans-{i}.json"),
                   repr(time.monotonic()), *argv]
        else:
            cmd = [sys.executable, "-m", "anchorstat.cli", *argv]
        t = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        elapsed = time.perf_counter() - t
        text = out.read_text() if out.is_file() and out.stat().st_size > 0 else None
        results.append((proc.returncode, text, proc.stderr[-2000:], elapsed))
    return time.perf_counter() - start, results


def _digest(invocations, results) -> str:
    h = hashlib.sha256()
    for inv, (_, text, _, _) in zip(invocations, results):
        h.update(inv.out_name.encode() + b"\0" + (text or "").encode() + b"\0")
    return h.hexdigest()


def _score(workload, invocations, results):
    """Apply the output checks; return (attempted, failed, notes)."""
    attempted = sum(inv.units for inv in invocations)
    failed = 0
    notes = []
    for inv, (rc, text, err, _) in zip(invocations, results):
        if rc != 0 or text is None:
            failed += inv.units
            notes.append(f"{inv.out_name}: exit {rc}, output {'missing' if text is None else 'ok'}; {err.strip()}")
            continue
        bad, inv_notes = workload.check(inv, text)
        failed += bad
        notes += inv_notes
    ok, run_notes = workload.check_run()
    notes += run_notes
    if not ok:
        failed = attempted
    return attempted, failed, notes


def _source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "anchorstat").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _check_digest(key: str, digest: str) -> str | None:
    """Compare with the digest an earlier run of the same code and seed
    recorded in this checkout; record it when it is the first."""
    store = WORK / "digests.json"
    seen = json.loads(store.read_text()) if store.is_file() else {}
    if key in seen and seen[key] != digest:
        return f"output digest {digest[:16]} differs from earlier run {seen[key][:16]} ({key})"
    seen[key] = digest
    store.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")
    return None


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for lib_path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def _layer_metrics(workload, spans_dir: Path, count: int, traced_s: float, untraced_s: float):
    """Aggregate the traced invocations' span files into per-layer metrics.

    Returns (metrics, notes, missing) where ``missing`` lists functions the
    workload should call but that recorded no call.
    """
    funcs: dict[str, dict] = {}
    startup = []
    for i in range(count):
        path = spans_dir / f"spans-{i}.json"
        if not path.is_file():
            continue
        doc = json.loads(path.read_text())
        startup.append(doc["startup_s"])
        for name, st in doc["functions"].items():
            agg = funcs.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "replicates": 0,
                                          "bytes": 0, "peak_mb": 0.0, "durations": []})
            for k in ("calls", "s", "self_s", "replicates", "bytes"):
                agg[k] += st[k]
            agg["peak_mb"] = max(agg["peak_mb"], st["peak_mb"])
            agg["durations"] += st["durations"]

    def lookup(name):
        # prefer the listed module; fall back to the same function name in
        # any module, so moving a function does not drop its metrics
        if name in funcs:
            return funcs[name]
        short = name.split(".", 1)[1]
        for full, st in sorted(funcs.items()):
            if full.split(".", 1)[1] == short:
                return st
        return None

    metrics = {}
    missing = []
    for name, extras in LAYER_FUNCTIONS.items():
        st = lookup(name)
        if st is None or st["calls"] == 0:
            if name in workload.expected_calls:
                missing.append(name)
            st = {"calls": 0, "s": 0.0, "self_s": 0.0, "replicates": 0, "bytes": 0,
                  "peak_mb": 0.0, "durations": []}
        values = {"calls": st["calls"], "s": st["s"], "self_s": st["self_s"]}
        for extra in extras:
            if extra == "replicates_per_s":
                values[extra] = st["replicates"] / st["s"] if st["s"] > 0 else 0.0
            elif extra == "peak_mb":
                values[extra] = st["peak_mb"]
            elif extra == "mb_per_s":
                values[extra] = st["bytes"] / 1e6 / st["s"] if st["s"] > 0 else 0.0
            elif extra in ("ms_p50", "ms_p90"):
                ds = sorted(st["durations"])
                if len(ds) >= 2:
                    q = statistics.quantiles(ds, n=10, method="inclusive")
                    values[extra] = 1e3 * (q[4] if extra == "ms_p50" else q[8])
                else:
                    values[extra] = 1e3 * ds[0] if ds else 0.0
        for stat, v in values.items():
            metrics[f"{name}.{stat}"] = {"value": v, "unit": STAT_UNITS[stat]}

    cli_self = sum(st["self_s"] for full, st in funcs.items() if full.startswith("cli."))
    metrics["cli.startup_s"] = {
        "value": statistics.median(startup) if startup else 0.0, "unit": "s"}
    metrics["cli.self_s"] = {"value": cli_self, "unit": "s"}
    metrics["trace.overhead_frac"] = {
        "value": (traced_s - untraced_s) / untraced_s, "unit": "ratio"}

    total_self = sum(st["self_s"] for st in funcs.values())
    ranked = sorted(funcs.items(), key=lambda kv: -kv[1]["self_s"])
    notes = [f"traced self time by function (of {total_self:.3f} s):"]
    notes += [f"  {full:40s} calls={st['calls']:7d} self_s={st['self_s']:9.4f} s={st['s']:9.4f}"
              for full, st in ranked[:12]]
    if ranked:
        notes.append(f"largest self time: {ranked[0][0]}")
    return metrics, notes, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("paper", "tiny"), default="paper",
                        help="'tiny' shrinks every input for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "anchorstat" / "cli.py").is_file():
        print(f"error: no anchorstat sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import compileall

    # compile once up front, as an installed package would be, so that no
    # timed invocation pays for byte-compiling the sources
    compileall.compile_dir(str(SRC / "anchorstat"), quiet=1)
    import anchorstat  # noqa: F401  (imported here so set-up timing excludes it)

    workload = WORKLOADS[args.workload](args.size)
    count = workload.count(args.seconds)
    seeds = [args.seed * 1000 + i for i in range(count)]
    run_dir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    inputs = run_dir / "inputs"
    try:
        # set up each invocation's inputs, cycling through them until there
        # are enough timings; a repeat rewrites its inputs from scratch
        setup_times = []
        invocations = {}
        while len(setup_times) < max(count, workload.setup_samples):
            q = seeds[len(setup_times) % count]
            directory = inputs / str(q)
            shutil.rmtree(directory, ignore_errors=True)
            t = time.perf_counter()
            invocations[q] = workload.setup_one(directory, q)
            setup_times.append(time.perf_counter() - t)
        invocations = [invocations[q] for q in seeds]

        run_s, results = _timed_phase(invocations, run_dir / "out", traced=False)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        attempted, failed, notes = _score(workload, invocations, results)
        digest = _digest(invocations, results)
        notes.append("invocation wall s: " + ", ".join(f"{r[3]:.3f}" for r in results))

        key = f"{workload.name}:{args.size}:{args.seed}:{count}:{_source_hash()}"
        mismatch = _check_digest(key, digest)
        if mismatch:
            notes.append(mismatch)
            failed = attempted

        if args.trace:
            spans_dir = run_dir / "spans"
            spans_dir.mkdir()
            traced_s, traced_results = _timed_phase(
                invocations, run_dir / "out-traced", traced=True, spans_dir=spans_dir
            )
            if _digest(invocations, traced_results) != digest:
                notes.append("traced outputs differ from untraced outputs")
                failed = attempted
            metrics, trace_notes, missing = _layer_metrics(
                workload, spans_dir, count, traced_s, run_s
            )
            notes += trace_notes
            if missing:
                notes.append(f"expected calls missing on {workload.name}: {', '.join(missing)}")
                failed = attempted
        else:
            metrics = {
                "run_s": {"value": run_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"machine: {json.dumps(machine_info(), sort_keys=True)}")
    print(f"workload {workload.name} size={args.size} seed={args.seed} invocations={count} "
          f"input seeds={seeds}")
    for note in notes:
        print(note)
    print(f"output digest: {digest}")
    print(f"failed_frac: {failed / attempted:.6g} ratio ({failed}/{attempted} units)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
