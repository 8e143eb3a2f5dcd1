"""Command-line surface: ingest -> embed -> battery/distances/synth/mc,
emitting p-value tables and divergence curves. PCA reduction
happens only inside `battery` and `distances` (``--pca-dim``), through
`battery.reduce_members`. A command declares only the flags that change
what it writes, and refuses a bad flag value before it reads a matrix.

Every command but `embed` takes --seed; reruns with identical inputs,
flags and seed produce byte-identical output files. Status lines go to
stderr, so stdout holds only a document.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import synth
from .battery import (
    BASELINE_NAMES,
    _check_baselines,
    battery_csv,
    battery_json,
    curves_csv,
    reduce_members,
    run_battery,
    run_distance_curves,
)
from .corpus import (
    DatasetManifest,
    ExperimentGrid,
    ManifestEntry,
    _nonblank_lines,
    load_manifest,
    load_matrix,
    normalize_rows,
    save_manifest,
    save_matrix,
    validate_pairing,
    write_text,
)
from .errors import AnchorstatError, CorpusFormatError, DimensionError, ManifestError
from .llmpipeline import ClientConfig, embed_batch
from .synth import ScenarioConfig, monte_carlo


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_k_grid(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ManifestError(f"bad K grid '{text}'; expected e.g. 2,3,4,5") from None
    return values


def _parse_baselines(text: str | None) -> tuple[str, ...]:
    if text is None:
        return BASELINE_NAMES
    names = () if text in ("", "none") else tuple(text.split(","))
    _check_baselines(names)
    return names


def _grid_from_args(args, base: ExperimentGrid = ExperimentGrid()) -> ExperimentGrid:
    """The run's grid: each grid flag that the command declares and that
    is given overrides ``base``. A command that declares --seed prints
    the seed as its first status line."""
    given = {name: value for name, value in vars(args).items() if value is not None}
    if "seed" in vars(args):
        print(f"seed: {given.get('seed', base.seed)}", file=sys.stderr)
    return ExperimentGrid(
        k_values=_parse_k_grid(given["k_grid"]) if "k_grid" in given else base.k_values,
        alpha=given.get("alpha", base.alpha),
        permutations=given.get("permutations", base.permutations),
        seed=given.get("seed", base.seed),
    )


def _load_collection(args, baselines=()):
    """The manifest, the run's grid and the (own, joint) members: the
    loaded collection twice, or with --pca-dim what `reduce_members`
    makes of the members it takes over. Every flag is checked before a
    matrix is read."""
    if args.pca_dim is not None and args.pca_dim < 1:
        raise DimensionError(f"target dimension p={args.pca_dim} out of range, expected >= 1")
    manifest = load_manifest(args.manifest)
    grid = _grid_from_args(args, manifest.grid)
    collection = manifest.load_collection(Path(args.manifest).parent)
    if args.pca_dim is None:
        return manifest, grid, (collection, collection)
    return manifest, grid, reduce_members(
        collection.members, args.pca_dim, collection.temperatures, baselines
    )


def _write_text(path: str | None, text: str) -> None:
    if path:
        write_text(path, text)
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
    baselines = _parse_baselines(args.baselines)
    manifest, grid, members = _load_collection(args, baselines)
    result = run_battery(members, manifest.label, grid, baselines)
    text = battery_json(result) if args.format == "json" else battery_csv(result)
    _write_text(args.out, text)
    return 0


def cmd_distances(args) -> int:
    _, grid, (collection, _) = _load_collection(args)
    rows = run_distance_curves(collection, grid.k_values, seed=grid.seed)
    _write_text(args.out, curves_csv(rows))
    return 0


def _write_collection(out_dir, collection, label: str, grid: ExperimentGrid) -> Path:
    """Each member of ``collection`` as ``<role>.csv`` in ``out_dir``,
    then a manifest of them with their temperatures; its path."""
    out = Path(out_dir)
    entries = []
    for role in collection.roles:
        save_matrix(collection.member(role), out / f"{role}.csv")
        entries.append(ManifestEntry(f"{role}.csv", role, collection.temperatures.get(role)))
    path = out / "manifest.json"
    save_manifest(DatasetManifest(tuple(entries), grid, label), path)
    return path


def cmd_synth(args) -> int:
    grid = _grid_from_args(args)
    collection = synth.generate_scenario(args.scenario, _scenario_from_args(args, grid.seed))
    path = _write_collection(args.out_dir, collection, f"synth-{args.scenario}", grid)
    print(f"wrote {len(collection.roles)} matrices and {path.name} to {path.parent}",
          file=sys.stderr)
    return 0


def cmd_mc(args) -> int:
    grid = _grid_from_args(args)
    cfg = _scenario_from_args(args, grid.seed)
    report = monte_carlo(
        args.scenario, cfg, M=args.m, K=args.k, R=grid.permutations, alpha=grid.alpha
    )
    # the written file omits the wall-clock field so reruns are byte-identical
    text = report.to_json() + "\n"
    _write_text(args.out, text)
    print(
        f"{args.scenario}: rejection rate {report.rate:.3f} "
        f"[{report.ci_low:.3f}, {report.ci_high:.3f}] over M={report.M} "
        f"(vacuous={report.vacuous}, mean runtime {report.mean_runtime_s * 1e3:.0f} ms)",
        file=sys.stderr,
    )
    return 0


def _manifest_path(path: str, manifest_dir: Path) -> str:
    """``path`` as the manifest in ``manifest_dir`` stores it: absolute
    paths as given, relative ones relative to that directory, where the
    readers resolve them."""
    if Path(path).is_absolute():
        return path
    return os.path.relpath(Path(path).resolve(), manifest_dir.resolve())


def _parse_dataset(descriptor: str) -> tuple[str, str, float | None]:
    """(path, role, temperature) of one ``--dataset path:role[:temperature]``."""
    parts = descriptor.split(":")
    if not 2 <= len(parts) <= 3 or not parts[0] or not parts[1]:
        raise ManifestError(f"bad --dataset '{descriptor}'; expected path:role[:temperature]")
    temp = None
    if len(parts) > 2 and parts[2] != "":
        try:
            temp = float(parts[2])
            if not math.isfinite(temp):  # the manifest is strict JSON
                raise ValueError
        except ValueError:
            raise ManifestError(
                f"bad temperature '{parts[2]}' in --dataset '{descriptor}'"
            ) from None
    return parts[0], parts[1], temp


def cmd_ingest(args) -> int:
    if args.out_dir is not None and not args.normalize:
        raise ManifestError("--out-dir needs --normalize (it holds the normalized copies)")
    grid = _grid_from_args(args)
    datasets = [_parse_dataset(d) for d in args.dataset]  # all refused before any read
    ext = "bin" if args.format == "binary" else "csv"
    # where each member's manifest entry points: its normalized copy or the input
    paths = [
        str(Path(args.out_dir or ".") / f"{role}.norm.{ext}") if args.normalize else path
        for path, role, _ in datasets
    ]
    manifest_dir = Path(args.out_manifest).parent
    manifest = DatasetManifest(  # refuses a bad role set before any read or write
        entries=tuple(
            ManifestEntry(_manifest_path(out, manifest_dir), role, temp, args.format)
            for out, (_, role, temp) in zip(paths, datasets)
        ),
        grid=grid,
        label=args.label or "ingested",
    )
    members = {}
    for out, (path, role, _) in zip(paths, datasets):
        m = load_matrix(path, fmt=args.format, label=role)
        if args.normalize:
            m = normalize_rows(m)
            save_matrix(m, out, fmt=args.format)
        members[role] = m
    n = validate_pairing(members).n
    save_manifest(manifest, args.out_manifest)
    print(f"validated {len(datasets)} members (n={n}); wrote {args.out_manifest}", file=sys.stderr)
    return 0


def cmd_embed(args) -> int:
    # lines cut as the CSV reader cuts them: at newlines only, blank ones skipped
    try:
        with open(args.input, encoding="utf-8") as fh:
            texts = [ln.rstrip("\n") for ln in _nonblank_lines(fh)]
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"--input {args.input} is not UTF-8 text: {exc}") from exc
    config = ClientConfig(
        base_url=args.base_url,
        embed_model=args.embed_model,
        api_key_env=args.api_key_env,
        cache_dir=args.cache_dir,
        embed_batch_size=args.batch_size,
    )
    matrix = embed_batch(texts, config)
    save_matrix(matrix, args.out, fmt=args.format)
    print(f"embedded {matrix.n} texts into {matrix.p}-dim rows -> {args.out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_grid_flags(p: argparse.ArgumentParser, k_grid=True, tests=True) -> None:
    """--k-grid unless the command takes one K, --alpha and --permutations
    if it runs or records a test, and --seed."""
    if k_grid:
        p.add_argument("--k-grid", help="comma-separated cluster counts, e.g. 2,3,4,5")
    if tests:
        p.add_argument("--alpha", type=float, default=None, help="significance level")
        p.add_argument("--permutations", type=int, default=None, help="permutation replicates R")
    p.add_argument("--seed", type=int, default=None, help="root RNG seed")


_PCA_DIM_HELP = "PCA-reduce every member to this dimension first"


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    """The five geometry flags of a synthetic scenario, defaulting to
    `ScenarioConfig`'s fields."""
    p.add_argument("--n", type=int, default=ScenarioConfig.n)
    p.add_argument("--dim", type=int, default=ScenarioConfig.dim)
    p.add_argument("--k-true", type=int, default=ScenarioConfig.K_true)
    p.add_argument("--separation", type=float, default=ScenarioConfig.community_separation)
    p.add_argument("--noise", type=float, default=ScenarioConfig.noise_sd)


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
    p.add_argument("--pca-dim", type=int, default=None, help=_PCA_DIM_HELP)
    p.set_defaults(func=cmd_battery)

    p = sub.add_parser("distances", help="KL/transport curves vs temperature")
    p.add_argument("--manifest", required=True)
    _add_grid_flags(p, tests=False)  # no test, so no --alpha or --permutations
    p.add_argument("--out", help="output CSV path (stdout if omitted)")
    p.add_argument("--pca-dim", type=int, default=None, help=_PCA_DIM_HELP)
    p.set_defaults(func=cmd_distances)

    p = sub.add_parser("synth", help="write a synthetic collection and manifest")
    p.add_argument("--scenario", choices=tuple(synth.SCENARIOS), required=True)
    _add_scenario_flags(p)
    _add_grid_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("mc", help="Monte Carlo rejection-rate study")
    p.add_argument("--scenario", choices=synth.TRIPLE_SCENARIOS, required=True)
    _add_scenario_flags(p)
    _add_grid_flags(p, k_grid=False)  # `mc` tests one K, set by --k
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
    p.add_argument("--out-dir", help="directory for normalized copies (needs --normalize)")
    p.add_argument("--out-manifest", required=True)
    p.add_argument("--label", help="dataset label for battery rows")
    _add_grid_flags(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("embed", help="embed texts via the configured endpoint")
    p.add_argument("--input", required=True, help="text file, one text per line")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "binary"), default="csv")
    p.add_argument("--base-url", default=ClientConfig.base_url)
    p.add_argument("--embed-model", default=ClientConfig.embed_model)
    p.add_argument("--api-key-env", default=ClientConfig.api_key_env)
    p.add_argument("--cache-dir", default=ClientConfig.cache_dir)
    p.add_argument("--batch-size", type=int, default=ClientConfig.embed_batch_size)
    p.set_defaults(func=cmd_embed)

    return parser


def _run(func, args) -> int:
    """``func(args)``; a package or file-system error ends it with one
    line on stderr, status 1."""
    try:
        return func(args)
    except (AnchorstatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _run(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
