#!/usr/bin/env python3
"""Regenerate the three parameter-sweep figure datasets as CSV.

Writes fig_sheswe.csv, fig_tfspde.csv, fig_sfhe.csv (columns x,y,series)
into --outdir.  Full paper-density grids take about 11 s and --coarse
about 2.5 s on a 2-core Xeon.
"""

import argparse
import time
from pathlib import Path

from spde_moments.cli import figure_csv, figure_rows, grid_spec, locate_crossing


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out")
    ap.add_argument("--coarse", action="store_true", help="0.1 grids instead of 0.01")
    args = ap.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    beta_step = 0.1 if args.coarse else 0.01
    alpha_step = 0.25 if args.coarse else 0.05
    jobs = [
        ("sheswe", 1.0, 1.0, grid_spec(f"0.05:2.0:{beta_step}")),
        ("tfspde", 2.0, 1.0, grid_spec(f"0.05:2.0:{beta_step}")),
        ("sfhe", 1.0, 1.0, grid_spec(f"1.05:5.0:{alpha_step}")),
    ]
    for family, nu, lam, grid in jobs:
        t0 = time.time()
        rows = figure_rows(family, nu, lam, grid)
        path = outdir / f"fig_{family}.csv"
        path.write_text(figure_csv(family, nu, lam, rows))
        print(f"{path}: {len(rows)} rows in {time.time()-t0:.1f}s")
        if family == "sfhe":
            xc, yc = locate_crossing(rows, "sfhe_lyapunov", "sfwe_lyapunov")
            print(f"  lyapunov curves cross at alpha={xc:.4f}, value={yc:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
