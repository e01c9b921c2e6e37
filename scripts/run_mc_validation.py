#!/usr/bin/env python3
"""Monte Carlo cross-validation of the closed-form second moments.

Runs the heat simulator (explicit finite differences) and the wave
simulator (mild-form kernel convolution) at desk scale and compares the
empirical E[u(t,0)^2] against the exact formulas.  For the heat case it
also prints the scheme's own exact second moment: MC minus scheme is
sampling error alone, scheme minus exact is the discretisation bias.  The
scheme's exact value on a 1.5x wider domain, as a shift in Monte Carlo
standard errors, shows what the domain truncation adds.
"""

import argparse
import dataclasses
import time

from spde_moments.model import ModelParams
from spde_moments.moments import she_second_moment, swe_second_moment
from spde_moments.simulate import (
    SimConfig, she_scheme_second_moment, simulate_she, simulate_swe,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--paths", type=int, default=10000)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--quick", action="store_true", help="coarser, faster grids")
    args = ap.parse_args()

    she = ModelParams(alpha=2, beta=1, gamma=0, lam=1, nu=1, dim=1, u0=1)
    dx = 0.04 if args.quick else 0.02
    dt = 4e-4 if args.quick else 1e-4
    cfg = SimConfig(dx=dx, dt=dt, domain_half_width=1.2, t_end=0.3,
                    n_paths=args.paths, seed=args.seed)
    t0 = time.time()
    out = simulate_she(she, cfg, [0.1, 0.2, 0.3])
    scheme = she_scheme_second_moment(she, cfg, [0.1, 0.2, 0.3]).values
    wide = dataclasses.replace(
        cfg, domain_half_width=round(1.5 * cfg.domain_half_width / dx) * dx
    )
    scheme_wide = she_scheme_second_moment(she, wide, [0.1, 0.2, 0.3]).values
    print(f"SHE (lam=nu=u0=1), {args.paths} paths, dx={dx}, dt={dt} "
          f"[{time.time()-t0:.1f}s]")
    print(f"  domain_se: scheme at half-width {wide.domain_half_width:g} minus at "
          f"{cfg.domain_half_width:g}, in MC standard errors")
    rows = zip(out.curve.t_grid, out.curve.values, out.curve.stderr, scheme, scheme_wide)
    for t, v, e, s, w in rows:
        exact = she_second_moment(1, 1, 1, t)
        print(f"  t={t:4.2f}  mc={v:.5f} +-{e:.5f}  scheme={s:.5f}  exact={exact:.5f} "
              f" rel={abs(v-exact)/exact*100:5.2f}%  z={(v-s)/e:+.2f}  "
              f"domain_se={(w-s)/e:+.1e}")

    for u1 in (0.0, 1.0):
        swe = ModelParams(alpha=2, beta=2, gamma=0, lam=1, nu=2, dim=1, u0=1, u1=u1)
        cfg = SimConfig(dx=0.02, dt=0.02, domain_half_width=0.6, t_end=0.5,
                        n_paths=args.paths, seed=args.seed + 1)
        t0 = time.time()
        out = simulate_swe(swe, cfg, [0.26, 0.5])
        print(f"SWE (lam=1, nu=2, u0=1, u1={u1}) [{time.time()-t0:.1f}s]")
        for t, v, e in zip(out.curve.t_grid, out.curve.values, out.curve.stderr):
            exact = swe_second_moment(2, 1, 1, u1, t)
            print(f"  t={t:4.2f}  mc={v:.5f} +-{e:.5f}  exact={exact:.5f} "
                  f" rel={abs(v-exact)/exact*100:5.2f}%")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
