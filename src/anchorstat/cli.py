"""Command-line surface: ingest -> embed -> reduce -> test/battery/
distances/synth/mc, emitting p-value tables and divergence curves.

Every command takes --seed and prints it; reruns with identical inputs,
flags and seed produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import divergence, preprocess, synth
from .cluster import KmeansConfig, kmeans
from .corpus import (
    ANCHOR_ROLE,
    DatasetManifest,
    ExperimentGrid,
    ManifestEntry,
    PairedCollection,
    load_manifest,
    load_matrix,
    normalize_rows,
    save_manifest,
    save_matrix,
    validate_pairing,
)
from .anchor import mapped_distances
from .errors import AnchorstatError, ManifestError, VacuousTestError
from .llmpipeline import ClientConfig, embed_batch
from .stattests import (
    DEFAULT_ALPHA,
    DEFAULT_PERMUTATIONS,
    anchored_test,
    energy_test,
    hotelling_paired,
    nploc_mean_test,
)
from .synth import ScenarioConfig, monte_carlo

BASELINE_NAMES = ("hotelling", "nploc", "energy")


# ---------------------------------------------------------------------------
# battery core


@dataclass(frozen=True)
class BatteryCell:
    p_value: float | None
    reject: bool | None
    display: str
    statistic: float | None = None
    vacuous: bool = False
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "p_value": self.p_value,
            "reject": self.reject,
            "display": self.display,
            "statistic": self.statistic,
            "vacuous": self.vacuous,
            "error": self.error,
        }


@dataclass(frozen=True)
class BatteryRow:
    hypothesis: str
    pair: tuple[str, str]
    anchored: dict[int, BatteryCell]
    baselines: dict[str, BatteryCell]


@dataclass(frozen=True)
class BatteryResult:
    dataset: str
    k_values: tuple[int, ...]
    alpha: float
    permutations: int
    seed: int
    baselines: tuple[str, ...]
    rows: tuple[BatteryRow, ...] = field(default_factory=tuple)


def format_p(p: float, R: int, alpha: float) -> str:
    """Render a p-value the way the battery tables print them: the
    smallest achievable value shows as a "< floor" cell, and significant
    cells carry a trailing star."""
    star = "*" if p < alpha else ""
    floor = 1.0 / (R + 1)
    if p <= floor:
        return f"< {_short_sci(floor)}{star}"
    return f"{p:.3f}{star}"


def _short_sci(x: float) -> str:
    s = f"{x:.0e}"
    return re.sub(r"e([+-])0*(\d)", r"e\1\2", s)


def _cell_seed(seed: int, *names) -> int:
    parts = [zlib.crc32(str(n).encode()) for n in names]
    return int(np.random.SeedSequence([int(seed), *parts]).generate_state(1)[0])


def _report_cell(report, R: int, alpha: float) -> BatteryCell:
    return BatteryCell(
        p_value=report.p_value,
        reject=report.reject,
        display=format_p(report.p_value, R, alpha),
        statistic=report.statistic,
    )


def _error_cell(exc: Exception) -> BatteryCell:
    if isinstance(exc, VacuousTestError):
        return BatteryCell(
            p_value=None, reject=False, display="identical", vacuous=True
        )
    return BatteryCell(
        p_value=None, reject=None, display=f"ERROR: {exc}", error=str(exc)
    )


def run_battery(
    collection: PairedCollection,
    dataset: str,
    k_values: tuple[int, ...],
    R: int = DEFAULT_PERMUTATIONS,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
    baselines: tuple[str, ...] = BASELINE_NAMES,
    kmeans_config: KmeansConfig = KmeansConfig(),
    baseline_collection: PairedCollection | None = None,
    jobs: int = 1,
) -> BatteryResult:
    """Run the anchored test over every non-anchor pair and K, plus each
    enabled baseline once per pair (the baselines do not depend on K).

    ``baseline_collection`` supplies a common-space version of the
    members for the paired baselines; by default the main collection is
    used. Cell seeds derive from (seed, pair, K), so results do not
    depend on scheduling; failed cells render diagnostics without
    aborting the battery.
    """
    unknown = set(baselines) - set(BASELINE_NAMES)
    if unknown:
        raise ManifestError(f"unknown baselines: {sorted(unknown)}")
    anchor = collection.anchor
    pairs = list(itertools.combinations(collection.nonanchor_roles, 2))
    if not pairs:
        raise ManifestError("battery needs at least two non-anchor members")
    base_coll = baseline_collection if baseline_collection is not None else collection

    tasks = []
    for pair in pairs:
        for K in k_values:
            tasks.append(("anchored", pair, K))
        for b in baselines:
            tasks.append((b, pair, None))

    def compute(task):
        kind, pair, K = task
        r1, r2 = pair
        try:
            if kind == "anchored":
                report = anchored_test(
                    anchor,
                    collection.member(r1).with_label(r1),
                    collection.member(r2).with_label(r2),
                    K=K,
                    kmeans_config=kmeans_config,
                    R=R,
                    seed=_cell_seed(seed, dataset, r1, r2, K),
                    alpha=alpha,
                )
            else:
                m1 = base_coll.member(r1)
                m2 = base_coll.member(r2)
                cell_seed = _cell_seed(seed, dataset, r1, r2, kind)
                if kind == "hotelling":
                    report = hotelling_paired(m1, m2, alpha=alpha, seed=cell_seed)
                elif kind == "nploc":
                    report = nploc_mean_test(m1, m2, R=R, seed=cell_seed, alpha=alpha)
                else:
                    report = energy_test(m1, m2, R=R, seed=cell_seed, alpha=alpha)
            return task, _report_cell(report, R, alpha)
        except AnchorstatError as exc:
            return task, _error_cell(exc)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            done = dict(pool.map(compute, tasks))
    else:
        done = dict(compute(t) for t in tasks)

    rows = []
    for pair in pairs:
        anchored = {K: done[("anchored", pair, K)] for K in k_values}
        base_cells = {b: done[(b, pair, None)] for b in baselines}
        rows.append(
            BatteryRow(
                hypothesis=f"H0({ANCHOR_ROLE}; {pair[0]} vs {pair[1]})",
                pair=pair,
                anchored=anchored,
                baselines=base_cells,
            )
        )
    return BatteryResult(
        dataset=dataset,
        k_values=tuple(k_values),
        alpha=alpha,
        permutations=R,
        seed=seed,
        baselines=tuple(baselines),
        rows=tuple(rows),
    )


def battery_csv(result: BatteryResult) -> str:
    header = ["dataset", "hypothesis"]
    header += [f"anchored_K{k}" for k in result.k_values]
    header += list(result.baselines)
    header += ["ball_external"]  # reserved for externally computed results
    lines = [",".join(header)]
    for row in result.rows:
        cells = [result.dataset, row.hypothesis]
        cells += [row.anchored[k].display for k in result.k_values]
        cells += [row.baselines[b].display for b in result.baselines]
        cells += [""]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def battery_json(result: BatteryResult) -> str:
    doc = {
        "dataset": result.dataset,
        "k_values": list(result.k_values),
        "alpha": result.alpha,
        "permutations": result.permutations,
        "seed": result.seed,
        "rows": [
            {
                "hypothesis": row.hypothesis,
                "pair": list(row.pair),
                "anchored": {str(k): c.to_dict() for k, c in row.anchored.items()},
                "baselines": {b: c.to_dict() for b, c in row.baselines.items()},
            }
            for row in result.rows
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# distance curves


def run_distance_curves(
    collection: PairedCollection,
    k_values: tuple[int, ...],
    seed: int = 0,
    kmeans_config: KmeansConfig = KmeansConfig(),
    bins: int = divergence.DEFAULT_BINS,
    smoothing: float = divergence.DEFAULT_SMOOTHING,
) -> list[dict]:
    """KL and order-1 transport distance between the baseline member's
    mapped distances and each temperature-tagged member's, per K."""
    anchor = collection.anchor
    temps = dict(collection.temperatures)
    nonanchors = collection.nonanchor_roles
    tagged = [r for r in nonanchors if temps.get(r) is not None]
    untagged = [r for r in nonanchors if temps.get(r) is None]
    if not tagged:
        raise ManifestError(
            "distance curves need temperature metadata on the non-anchor family"
        )
    if len(untagged) > 1:
        raise ManifestError(
            f"ambiguous baseline: several non-anchors lack a temperature: {untagged}"
        )
    if untagged:
        base_role = untagged[0]
        varying = sorted(tagged, key=lambda r: temps[r])
    else:
        by_temp = sorted(tagged, key=lambda r: temps[r])
        base_role = by_temp[0]
        varying = by_temp[1:]
    if not varying:
        raise ManifestError("distance curves need at least one varying member")

    rows = []
    for K in k_values:
        part_base = kmeans(
            collection.member(base_role),
            K,
            seed=_cell_seed(seed, "curve", base_role, K),
            **vars(kmeans_config),
        )
        set_base = mapped_distances(anchor, part_base, source=base_role)
        for role in varying:
            part = kmeans(
                collection.member(role),
                K,
                seed=_cell_seed(seed, "curve", role, K),
                **vars(kmeans_config),
            )
            set_rho = mapped_distances(anchor, part, source=role)
            kl = divergence.kl_divergence(
                set_base.distances, set_rho.distances, bins=bins, smoothing=smoothing
            )
            w1 = divergence.wasserstein1(set_base.distances, set_rho.distances)
            rows.append(
                {
                    "K": K,
                    "rho": temps[role],
                    "kl": kl.value,
                    "kl_degenerate": kl.degenerate,
                    "wasserstein": w1,
                    "hypothesis_tag": f"H0({ANCHOR_ROLE}; {base_role} vs {role})",
                }
            )
    return rows


def curves_csv(rows: list[dict]) -> str:
    lines = ["K,rho,kl,wasserstein,hypothesis_tag"]
    for r in rows:
        lines.append(
            f"{r['K']},{r['rho']:g},{r['kl']:.12g},{r['wasserstein']:.12g},{r['hypothesis_tag']}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_k_grid(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ManifestError(f"bad K grid '{text}'; expected e.g. 2,3,4,5") from None
    if not values:
        raise ManifestError("K grid is empty")
    return values


def _grid_from_args(args, manifest: DatasetManifest | None = None) -> ExperimentGrid:
    base = manifest.grid if manifest is not None else ExperimentGrid()
    return ExperimentGrid(
        k_values=_parse_k_grid(args.k_grid) if args.k_grid else base.k_values,
        alpha=args.alpha if args.alpha is not None else base.alpha,
        permutations=args.permutations if args.permutations is not None else base.permutations,
        seed=args.seed if args.seed is not None else base.seed,
    )


def _load_collection(args) -> tuple[DatasetManifest, PairedCollection]:
    manifest = load_manifest(args.manifest)
    base = Path(args.manifest).parent
    manifest.validate_paths(base)
    return manifest, manifest.load_collection(base)


def _write_text(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _scenario_from_args(args) -> ScenarioConfig:
    structure = "shared" if args.scenario == "null" else "independent"
    return ScenarioConfig(
        n=args.n,
        dim=args.dim,
        K_true=args.k_true,
        community_separation=args.separation,
        noise_sd=args.noise,
        structure=structure,
        seed=args.seed if args.seed is not None else 0,
    )


# ---------------------------------------------------------------------------
# commands


def cmd_battery(args) -> int:
    manifest, collection = _load_collection(args)
    grid = _grid_from_args(args, manifest)
    print(f"seed: {grid.seed}")
    if args.baselines is None:
        baselines = BASELINE_NAMES
    elif args.baselines in ("", "none"):
        baselines = ()
    else:
        baselines = tuple(args.baselines.split(","))
    baseline_collection = None
    if args.pca_dim:
        anchored_coll = preprocess.reduce_collection(
            collection, args.pca_dim, mode=args.pca_mode
        )
        if baselines:
            # paired baselines need one common space
            baseline_collection = preprocess.reduce_collection(
                collection, args.pca_dim, mode="joint"
            )
    else:
        anchored_coll = collection
    result = run_battery(
        anchored_coll,
        dataset=manifest.label,
        k_values=grid.k_values,
        R=grid.permutations,
        alpha=grid.alpha,
        seed=grid.seed,
        baselines=baselines,
        baseline_collection=baseline_collection,
        jobs=args.jobs,
    )
    text = battery_json(result) if args.format == "json" else battery_csv(result)
    _write_text(args.out, text)
    return 0


def cmd_distances(args) -> int:
    manifest, collection = _load_collection(args)
    grid = _grid_from_args(args, manifest)
    print(f"seed: {grid.seed}")
    if args.pca_dim:
        collection = preprocess.reduce_collection(collection, args.pca_dim, mode=args.pca_mode)
    rows = run_distance_curves(collection, grid.k_values, seed=grid.seed)
    _write_text(args.out, curves_csv(rows))
    return 0


def cmd_test(args) -> int:
    manifest, collection = _load_collection(args)
    grid = _grid_from_args(args, manifest)
    print(f"seed: {grid.seed}")
    nonanchors = collection.nonanchor_roles
    if len(nonanchors) != 2:
        raise ManifestError(
            f"single-triple test needs exactly two non-anchors, got {nonanchors}"
        )
    K = args.k if args.k is not None else grid.k_values[0]
    r1, r2 = nonanchors
    report = anchored_test(
        collection.anchor,
        collection.member(r1).with_label(r1),
        collection.member(r2).with_label(r2),
        K=K,
        R=grid.permutations,
        seed=grid.seed,
        alpha=grid.alpha,
    )
    reports = {"anchored": report.to_dict()}
    for b in args.baselines.split(",") if args.baselines else ():
        m1, m2 = collection.member(r1), collection.member(r2)
        seed_b = _cell_seed(grid.seed, r1, r2, b)
        if b == "hotelling":
            rep = hotelling_paired(m1, m2, alpha=grid.alpha, seed=seed_b)
        elif b == "nploc":
            rep = nploc_mean_test(m1, m2, R=grid.permutations, seed=seed_b, alpha=grid.alpha)
        elif b == "energy":
            rep = energy_test(m1, m2, R=grid.permutations, seed=seed_b, alpha=grid.alpha)
        else:
            raise ManifestError(f"unknown baseline '{b}'")
        reports[b] = rep.to_dict()
    text = json.dumps(reports, indent=2, sort_keys=True) + "\n"
    _write_text(args.out, text)
    if args.out:
        print(f"anchored p-value: {report.p_value:g} (reject={report.reject})")
    return 0


def cmd_synth(args) -> int:
    seed = args.seed if args.seed is not None else 0
    print(f"seed: {seed}")
    cfg = _scenario_from_args(args)
    triple = (
        synth.generate_null_triple(cfg)
        if args.scenario == "null"
        else synth.generate_alt_triple(cfg)
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for role in triple.roles:
        fname = f"{role}.csv"
        save_matrix(triple.member(role), out / fname, fmt="csv")
        entries.append(ManifestEntry(path=fname, role=role, fmt="csv"))
    manifest = DatasetManifest(
        entries=tuple(entries),
        grid=ExperimentGrid(
            k_values=_parse_k_grid(args.k_grid) if args.k_grid else (2, 3, 4, 5),
            alpha=args.alpha if args.alpha is not None else DEFAULT_ALPHA,
            permutations=args.permutations if args.permutations is not None else DEFAULT_PERMUTATIONS,
            seed=seed,
        ),
        label=f"synth-{args.scenario}",
    )
    save_manifest(manifest, out / "manifest.json")
    print(f"wrote {len(entries)} matrices and manifest.json to {out}")
    return 0


def cmd_mc(args) -> int:
    seed = args.seed if args.seed is not None else 0
    print(f"seed: {seed}")
    cfg = _scenario_from_args(args)
    report = monte_carlo(
        args.scenario,
        cfg,
        M=args.m,
        K=args.k,
        R=args.permutations if args.permutations is not None else DEFAULT_PERMUTATIONS,
        alpha=args.alpha if args.alpha is not None else DEFAULT_ALPHA,
    )
    # the written file omits the wall-clock field so reruns are byte-identical
    text = report.to_json(volatile=False) + "\n"
    _write_text(args.out, text)
    print(
        f"{args.scenario}: rejection rate {report.rate:.3f} "
        f"[{report.ci_low:.3f}, {report.ci_high:.3f}] over M={report.M} "
        f"(vacuous={report.vacuous}, mean runtime {report.mean_runtime_s * 1e3:.0f} ms)"
    )
    return 0


def cmd_ingest(args) -> int:
    seed = args.seed if args.seed is not None else 0
    print(f"seed: {seed}")
    entries = []
    members = {}
    temps = {}
    for descriptor in args.dataset:
        parts = descriptor.split(":")
        if len(parts) < 2:
            raise ManifestError(
                f"bad --dataset '{descriptor}'; expected path:role[:temperature]"
            )
        path, role = parts[0], parts[1]
        temp = float(parts[2]) if len(parts) > 2 and parts[2] != "" else None
        m = load_matrix(path, fmt=args.format, label=role)
        if args.normalize:
            m = normalize_rows(m)
            out_dir = Path(args.out_dir or ".")
            out_dir.mkdir(parents=True, exist_ok=True)
            path = str(out_dir / f"{role}.norm.csv")
            save_matrix(m, path, fmt="csv")
        members[role] = m
        temps[role] = temp
        entries.append(
            ManifestEntry(
                path=path,
                role=role,
                temperature=temp,
                fmt="csv" if args.normalize else args.format,
            )
        )
    validate_pairing(members, temperatures=temps)
    manifest = DatasetManifest(
        entries=tuple(entries),
        grid=ExperimentGrid(
            k_values=_parse_k_grid(args.k_grid) if args.k_grid else (2, 3, 4, 5),
            alpha=args.alpha if args.alpha is not None else DEFAULT_ALPHA,
            permutations=args.permutations if args.permutations is not None else DEFAULT_PERMUTATIONS,
            seed=seed,
        ),
        label=args.label or "ingested",
    )
    save_manifest(manifest, args.out_manifest)
    print(f"validated {len(entries)} members (n={members[entries[0].role].n}); wrote {args.out_manifest}")
    return 0


def cmd_embed(args) -> int:
    seed = args.seed if args.seed is not None else 0
    print(f"seed: {seed}")
    texts = [ln for ln in Path(args.input).read_text().splitlines() if ln.strip()]
    config = ClientConfig(
        base_url=args.base_url,
        embed_model=args.embed_model,
        api_key_env=args.api_key_env,
        cache_dir=args.cache_dir,
        embed_batch_size=args.batch_size,
    )
    matrix = embed_batch(texts, config)
    save_matrix(matrix, args.out, fmt=args.format)
    print(f"embedded {matrix.n} texts into {matrix.p}-dim rows -> {args.out}")
    return 0


def cmd_reduce(args) -> int:
    seed = args.seed if args.seed is not None else 0
    print(f"seed: {seed}")
    if args.manifest:
        manifest, collection = _load_collection(args)
        models = preprocess.fit_collection_models(collection, args.pca_dim, mode=args.pca_mode)
        out_dir = Path(args.out_dir or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        entries = []
        for e in manifest.entries:
            reduced = preprocess.apply_pca(models[e.role], collection.member(e.role))
            fname = f"{e.role}.reduced.csv"
            save_matrix(reduced, out_dir / fname, fmt="csv")
            entries.append(
                ManifestEntry(path=fname, role=e.role, temperature=e.temperature, fmt="csv")
            )
        reduced_manifest = DatasetManifest(
            entries=tuple(entries), grid=manifest.grid, label=manifest.label
        )
        save_manifest(reduced_manifest, out_dir / "manifest.json")
        print(f"reduced {len(entries)} members to p={args.pca_dim} in {out_dir}")
        return 0
    if not args.input or not args.out:
        raise ManifestError("reduce needs either --manifest or both --input and --out")
    m = load_matrix(args.input, fmt=args.format)
    model = preprocess.fit_pca(m, args.pca_dim)
    reduced = preprocess.apply_pca(model, m)
    save_matrix(reduced, args.out, fmt="csv")
    if args.model_out:
        model.save(args.model_out)
    print(f"reduced {m.n}x{m.p} -> {reduced.n}x{reduced.p} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k-grid", help="comma-separated cluster counts, e.g. 2,3,4,5")
    p.add_argument("--alpha", type=float, default=None, help="significance level")
    p.add_argument("--permutations", type=int, default=None, help="permutation replicates R")
    p.add_argument("--seed", type=int, default=None, help="root RNG seed")


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", choices=("null", "alt"), required=True)
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--k-true", type=int, default=2)
    p.add_argument("--separation", type=float, default=8.0)
    p.add_argument("--noise", type=float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchorstat",
        description=(
            "Anchored hypothesis testing for latent community structure of "
            "paired embedding datasets"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("battery", help="p-value grid over K plus baselines")
    p.add_argument("--manifest", required=True)
    _add_grid_flags(p)
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--baselines", help="comma list from hotelling,nploc,energy")
    p.add_argument("--pca-dim", type=int, default=None)
    p.add_argument("--pca-mode", choices=("per_dataset", "joint"), default="per_dataset")
    p.add_argument("--jobs", type=int, default=1, help="concurrent battery cells")
    p.set_defaults(func=cmd_battery)

    p = sub.add_parser("distances", help="KL/transport curves vs temperature")
    p.add_argument("--manifest", required=True)
    _add_grid_flags(p)
    p.add_argument("--out", help="output CSV path (stdout if omitted)")
    p.add_argument("--pca-dim", type=int, default=None)
    p.add_argument("--pca-mode", choices=("per_dataset", "joint"), default="per_dataset")
    p.set_defaults(func=cmd_distances)

    p = sub.add_parser("test", help="single anchored test on one triple")
    p.add_argument("--manifest", required=True)
    _add_grid_flags(p)
    p.add_argument("--k", type=int, default=None, help="cluster count (default: first grid value)")
    p.add_argument("--baselines", help="comma list from hotelling,nploc,energy")
    p.add_argument("--out", help="output JSON path (stdout if omitted)")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("synth", help="write a synthetic triple and manifest")
    _add_scenario_flags(p)
    _add_grid_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("mc", help="Monte Carlo rejection-rate study")
    _add_scenario_flags(p)
    _add_grid_flags(p)
    p.add_argument("--m", type=int, default=200, help="number of replicates")
    p.add_argument("--k", type=int, default=None, help="cluster count for the test")
    p.add_argument("--out", help="output JSON path (stdout if omitted)")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("ingest", help="validate matrices and write a manifest")
    p.add_argument(
        "--dataset",
        action="append",
        required=True,
        help="path:role[:temperature], repeatable; exactly one role must be 'anchor'",
    )
    p.add_argument("--format", choices=("csv", "binary"), default="csv")
    p.add_argument("--normalize", action="store_true", help="unit-normalize rows")
    p.add_argument("--out-dir", help="directory for normalized copies")
    p.add_argument("--out-manifest", required=True)
    p.add_argument("--label", help="dataset label for battery rows")
    _add_grid_flags(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("embed", help="embed texts via the configured endpoint")
    p.add_argument("--input", required=True, help="text file, one text per line")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "binary"), default="csv")
    p.add_argument("--base-url", default="http://localhost:8000/v1")
    p.add_argument("--embed-model", default="embedding-model")
    p.add_argument("--api-key-env", default="LLM_API_KEY")
    p.add_argument("--cache-dir", default=".anchorstat-cache")
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("reduce", help="PCA-reduce a matrix or a whole manifest")
    p.add_argument("--input", help="single matrix input path")
    p.add_argument("--out", help="single matrix output path")
    p.add_argument("--manifest", help="reduce every member of a manifest")
    p.add_argument("--out-dir", help="output directory for manifest mode")
    p.add_argument("--format", choices=("csv", "binary"), default="csv")
    p.add_argument("--pca-dim", type=int, required=True)
    p.add_argument("--pca-mode", choices=("per_dataset", "joint"), default="per_dataset")
    p.add_argument("--model-out", help="write the fitted model JSON here")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_reduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VacuousTestError as exc:
        print(f"vacuous test: {exc}", file=sys.stderr)
        return 1
    except AnchorstatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
