#!/usr/bin/env python3
"""Divergence curves on a synthetic label-drift family.

Builds an anchor, a baseline non-anchor, and one non-anchor per
temperature whose labels drift further from the baseline as the
temperature grows, then emits the (K, rho, KL, W1) curve rows used for
plotting divergence against temperature.
"""

import argparse
import sys

from anchorstat.battery import curves_csv, run_distance_curves
from anchorstat.corpus import write_text
from anchorstat.synth import ScenarioConfig, generate_drift_family


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=300)
    ap.add_argument("--dim", type=int, default=2)
    ap.add_argument("--k-true", type=int, default=2)
    ap.add_argument("--separation", type=float, default=8.0)
    ap.add_argument("--noise", type=float, default=1.0)
    ap.add_argument(
        "--rhos", default="0.1,0.4,0.7,1.0,1.5",
        help="comma-separated temperatures; drift fraction is rho/2",
    )
    ap.add_argument("--k-grid", default="2,3,4,5")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", help="output CSV (stdout if omitted)")
    args = ap.parse_args()

    print(f"seed: {args.seed}", file=sys.stderr)
    rhos = [float(v) for v in args.rhos.split(",")]
    cfg = ScenarioConfig(
        n=args.n,
        dim=args.dim,
        K_true=args.k_true,
        community_separation=args.separation,
        noise_sd=args.noise,
        seed=args.seed,
    )
    family = generate_drift_family(cfg, [(rho, min(1.0, rho / 2.0)) for rho in rhos])
    k_values = tuple(int(v) for v in args.k_grid.split(","))
    rows = run_distance_curves(family, k_values, seed=args.seed)
    text = curves_csv(rows)
    if args.out:
        write_text(args.out, text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
