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
from pathlib import Path

from anchorstat.battery import battery_csv, run_battery
from anchorstat.synth import ScenarioConfig, battery_pattern_counts, generate_battery_quad


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=positive_int, default=20, help="number of grid seeds")
    ap.add_argument("--n", type=int, default=300)
    ap.add_argument("--dim", type=int, default=2)
    ap.add_argument("--k-true", type=int, default=2)
    ap.add_argument("--separation", type=float, default=10.0)
    ap.add_argument("--noise", type=float, default=1.0)
    ap.add_argument("--k-grid", default="2,3,4,5")
    ap.add_argument("--permutations", type=int, default=999)
    ap.add_argument("--alpha", type=float, default=0.05)
    ap.add_argument("--out-dir", default="battery-out", help="per-seed CSV tables")
    args = ap.parse_args()

    k_values = tuple(int(v) for v in args.k_grid.split(","))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tallies = []
    for seed in range(args.seeds):
        print(f"seed: {seed}")
        cfg = ScenarioConfig(
            n=args.n,
            dim=args.dim,
            K_true=args.k_true,
            community_separation=args.separation,
            noise_sd=args.noise,
            seed=seed,
        )
        quad = generate_battery_quad(cfg)
        result = run_battery(
            quad,
            dataset=f"synthetic-{seed}",
            k_values=k_values,
            R=args.permutations,
            alpha=args.alpha,
            seed=seed,
        )
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


if __name__ == "__main__":
    raise SystemExit(main())
