#!/usr/bin/env python3
"""Divergence curves on a synthetic label-drift family.

Builds an anchor, a baseline non-anchor, and one non-anchor per
temperature whose labels drift further from the baseline as the
temperature grows, then emits the (K, rho, KL, W1) curve rows used for
plotting divergence against temperature.
"""

import argparse
import math
import sys

from anchorstat import cli
from anchorstat.battery import curves_csv, run_distance_curves
from anchorstat.errors import ParameterError
from anchorstat.synth import generate_drift_family


def parse_rhos(text: str) -> list[float]:
    """The --rhos temperatures; blank entries are skipped, as in --k-grid."""
    rhos = []
    for v in filter(str.strip, text.split(",")):
        try:
            rho = float(v)
        except ValueError:
            rho = math.nan
        if not math.isfinite(rho):
            raise ParameterError(f"bad temperature '{v}' in --rhos '{text}'")
        rhos.append(rho)
    return rhos


def study(args) -> int:
    grid = cli._grid_from_args(args)
    rhos = parse_rhos(args.rhos)
    cfg = cli._scenario_from_args(args, grid.seed)
    family = generate_drift_family(cfg, [(rho, min(1.0, rho / 2.0)) for rho in rhos])
    cli._write_text(args.out, curves_csv(run_distance_curves(family, grid.k_values, grid.seed)))
    if args.out:
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    cli._add_scenario_flags(ap)
    ap.add_argument(
        "--rhos", default="0.1,0.4,0.7,1.0,1.5",
        help="comma-separated temperatures; drift fraction is rho/2",
    )
    cli._add_grid_flags(ap, tests=False)
    ap.add_argument("--out", help="output CSV (stdout if omitted)")
    return cli._run(study, ap.parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
