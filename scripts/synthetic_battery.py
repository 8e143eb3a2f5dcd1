#!/usr/bin/env python3
"""Battery pattern study on synthetic four-member collections.

Each seed builds an anchor, two non-anchors sharing the anchor's latent
labels ("aligned"), and one non-anchor with independent labels
("drifted"), every member in its own random coordinate frame. The
battery should reject the (aligned, drifted) pair across all methods and
K, while the anchored test should accept the (aligned, aligned) pair;
the direct-comparison baselines reject even that pair because the
members live in unrelated frames.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from anchorstat import cli
from anchorstat.battery import battery_csv, run_battery
from anchorstat.synth import battery_pattern_counts, generate_battery_quad


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def study(args) -> int:
    grid = cli._grid_from_args(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tallies = []
    for seed in range(args.seeds):
        print(f"seed: {seed}", file=sys.stderr)
        quad = generate_battery_quad(cli._scenario_from_args(args, seed))
        result = run_battery(quad, f"synthetic-{seed}", replace(grid, seed=seed))
        (out_dir / f"battery-{seed}.csv").write_text(battery_csv(result))
        tallies.append(battery_pattern_counts(result))
    drift_rejects, drift_total, aligned_accepts, aligned_total = map(sum, zip(*tallies))

    print(
        f"drifted pair rejected in {drift_rejects}/{drift_total} cells "
        f"({drift_rejects / drift_total:.1%})"
    )
    print(
        f"aligned pair accepted by the anchored test in "
        f"{aligned_accepts}/{aligned_total} cells ({aligned_accepts / aligned_total:.1%})"
    )
    print(f"tables in {out_dir}/")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=positive_int, default=20, help="number of grid seeds")
    cli._add_scenario_flags(ap)
    ap.set_defaults(separation=10.0)  # this study's default; `mc` uses 8
    cli._add_grid_flags(ap, seed=False)  # runs seeds 0..--seeds-1
    ap.add_argument("--out-dir", default="battery-out", help="per-seed CSV tables")
    return cli._run(study, ap.parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
