"""Command-line surface: ingest -> embed -> reduce -> test/battery/
distances/synth/mc, emitting p-value tables and divergence curves.

Every command takes --seed and prints it; reruns with identical inputs,
flags and seed produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import preprocess, synth
from .battery import (
    BASELINE_NAMES,
    battery_csv,
    battery_json,
    curves_csv,
    run_battery,
    run_cell,
    run_distance_curves,
)
from .corpus import (
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
from .errors import AnchorstatError, ManifestError, VacuousTestError
from .llmpipeline import ClientConfig, embed_batch
from .sharding import usable_cpus
from .stattests import DEFAULT_ALPHA, DEFAULT_PERMUTATIONS
from .synth import ScenarioConfig, monte_carlo


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


def _parse_baselines(text: str | None, default: tuple[str, ...]) -> tuple[str, ...]:
    if text is None:
        return default
    return () if text in ("", "none") else tuple(text.split(","))


def _seed(args, default: int = 0) -> int:
    """The run's seed (the flag, else ``default``), printed as every
    command's first line."""
    seed = args.seed if args.seed is not None else default
    print(f"seed: {seed}")
    return seed


def _grid_from_args(args, base: ExperimentGrid = ExperimentGrid()) -> ExperimentGrid:
    """The run's grid: each grid flag that is given overrides ``base``."""
    return ExperimentGrid(
        k_values=_parse_k_grid(args.k_grid) if args.k_grid else base.k_values,
        alpha=args.alpha if args.alpha is not None else base.alpha,
        permutations=args.permutations if args.permutations is not None else base.permutations,
        seed=_seed(args, base.seed),
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


def _scenario_from_args(args, seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        n=args.n,
        dim=args.dim,
        K_true=args.k_true,
        community_separation=args.separation,
        noise_sd=args.noise,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# commands


def cmd_battery(args) -> int:
    manifest, collection = _load_collection(args)
    grid = _grid_from_args(args, manifest.grid)
    baselines = _parse_baselines(args.baselines, BASELINE_NAMES)
    baseline_collection = None
    if args.pca_dim:
        anchored_coll = preprocess.reduce_collection(
            collection, args.pca_dim, mode=args.pca_mode
        )
        if baselines:
            # paired baselines need one common space: the joint reduction,
            # which the anchored cells already use in joint mode
            baseline_collection = (
                anchored_coll if args.pca_mode == "joint"
                else preprocess.reduce_collection(collection, args.pca_dim, mode="joint")
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
    grid = _grid_from_args(args, manifest.grid)
    if args.pca_dim:
        collection = preprocess.reduce_collection(collection, args.pca_dim, mode=args.pca_mode)
    rows = run_distance_curves(collection, grid.k_values, seed=grid.seed)
    _write_text(args.out, curves_csv(rows))
    return 0


def cmd_test(args) -> int:
    """One battery row restricted to one K: the same cells, seeds and
    p-values as `battery` on the same manifest and seed."""
    manifest, collection = _load_collection(args)
    grid = _grid_from_args(args, manifest.grid)
    nonanchors = collection.nonanchor_roles
    if len(nonanchors) != 2:
        raise ManifestError(
            f"single-triple test needs exactly two non-anchors, got {nonanchors}"
        )
    K = args.k if args.k is not None else grid.k_values[0]
    cell = functools.partial(
        run_cell, collection, manifest.label, nonanchors,
        R=grid.permutations, alpha=grid.alpha, seed=grid.seed,
    )
    report = cell(K)
    reports = {"anchored": report.to_dict()}
    for b in _parse_baselines(args.baselines, ()):
        reports[b] = cell(b).to_dict()
    text = json.dumps(reports, indent=2, sort_keys=True) + "\n"
    _write_text(args.out, text)
    if args.out:
        print(f"anchored p-value: {report.p_value:g} (reject={report.reject})")
    return 0


def cmd_synth(args) -> int:
    grid = _grid_from_args(args)
    triple = synth.generate_scenario(args.scenario, _scenario_from_args(args, grid.seed))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for role in triple.roles:
        fname = f"{role}.csv"
        save_matrix(triple.member(role), out / fname, fmt="csv")
        entries.append(ManifestEntry(path=fname, role=role, fmt="csv"))
    manifest = DatasetManifest(
        entries=tuple(entries), grid=grid, label=f"synth-{args.scenario}"
    )
    save_manifest(manifest, out / "manifest.json")
    print(f"wrote {len(entries)} matrices and manifest.json to {out}")
    return 0


def cmd_mc(args) -> int:
    cfg = _scenario_from_args(args, _seed(args))
    report = monte_carlo(
        args.scenario,
        cfg,
        M=args.m,
        K=args.k,
        R=args.permutations if args.permutations is not None else DEFAULT_PERMUTATIONS,
        alpha=args.alpha if args.alpha is not None else DEFAULT_ALPHA,
        jobs=usable_cpus(),
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


def _manifest_path(path: str, manifest_dir: Path) -> str:
    """``path`` as the manifest in ``manifest_dir`` stores it: absolute
    paths as given, relative ones relative to that directory, where the
    readers resolve them."""
    if Path(path).is_absolute():
        return path
    return os.path.relpath(Path(path).resolve(), manifest_dir.resolve())


def cmd_ingest(args) -> int:
    grid = _grid_from_args(args)
    manifest_dir = Path(args.out_manifest).parent
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
                path=_manifest_path(path, manifest_dir),
                role=role,
                temperature=temp,
                fmt="csv" if args.normalize else args.format,
            )
        )
    validate_pairing(members, temperatures=temps)
    manifest = DatasetManifest(
        entries=tuple(entries), grid=grid, label=args.label or "ingested"
    )
    save_manifest(manifest, args.out_manifest)
    print(f"validated {len(entries)} members (n={members[entries[0].role].n}); wrote {args.out_manifest}")
    return 0


def cmd_embed(args) -> int:
    _seed(args)
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
    _seed(args)
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


_K_GRID_HELP = "comma-separated cluster counts, e.g. 2,3,4,5"


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
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
    p.add_argument("--k-grid", help=_K_GRID_HELP)
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
    p.add_argument("--k-grid", help=_K_GRID_HELP)
    _add_grid_flags(p)
    p.add_argument("--out", help="output CSV path (stdout if omitted)")
    p.add_argument("--pca-dim", type=int, default=None)
    p.add_argument("--pca-mode", choices=("per_dataset", "joint"), default="per_dataset")
    p.set_defaults(func=cmd_distances)

    p = sub.add_parser("test", help="single anchored test on one triple")
    p.add_argument("--manifest", required=True)
    p.add_argument("--k-grid", help=_K_GRID_HELP)
    _add_grid_flags(p)
    p.add_argument("--k", type=int, default=None, help="cluster count (default: first grid value)")
    p.add_argument("--baselines", help="comma list from hotelling,nploc,energy")
    p.add_argument("--out", help="output JSON path (stdout if omitted)")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("synth", help="write a synthetic triple and manifest")
    _add_scenario_flags(p)
    p.add_argument("--k-grid", help=_K_GRID_HELP)
    _add_grid_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("mc", help="Monte Carlo rejection-rate study")
    _add_scenario_flags(p)
    _add_grid_flags(p)  # no --k-grid: `mc` tests one K, set by --k
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
    p.add_argument("--k-grid", help=_K_GRID_HELP)
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
    except (AnchorstatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
