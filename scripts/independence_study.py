#!/usr/bin/env python3
"""Measure how the lattice eigenvalue forgets the world-line interior.

For coefficients obeying the flow, the spread of lambda over random
interior perturbations contracts at second order in the lattice spacing.
For frozen (non-flowing) coefficients it does not contract at all.  This
script prints both columns side by side and fits the convergence orders.
Each spread covers the straight line and its perturbations and comes from
the same exact-expansion helper as the `waveline lambda` check.
"""

import argparse

import numpy as np

from waveline.checks import independence_spread, seed_displacements
from waveline.minkowski import interval_squared
from waveline.phase_flow import FlowInitialData, frozen_coefficients, sample_closed_form
from waveline.report import write_csv
from waveline.stationarity import optimal_C, optimal_sigma1
from waveline.worldline import straight_line


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--a", type=float, nargs=4, default=[0.0, 0.0, 0.0, 0.0])
    p.add_argument("--b", type=float, nargs=4, default=[2.0, 0.6, 0.3, 0.1])
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--sigma2", type=float, default=0.5)
    p.add_argument("--sizes", type=int, nargs="+", default=[100, 316, 1000, 3162, 10000])
    p.add_argument("--perturbations", type=int, default=100)
    p.add_argument("--amplitude", type=float, default=0.3,
                   help="peak displacement in units of sqrt((b-a)^2)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default="out/independence_study.csv")
    return p.parse_args()


def main():
    args = parse_args()
    a, b = np.array(args.a), np.array(args.b)
    c_run = optimal_C(a, b, args.m)
    init = FlowInitialData(optimal_sigma1(args.sigma2, a, b, c_run), args.sigma2)
    amp = args.amplitude * np.sqrt(interval_squared(a, b))
    seeds = range(args.seed, args.seed + args.perturbations)
    displacements = seed_displacements(amp, seeds, c_run)

    print(f"{'N':>7}  {'flowing spread':>15}  {'frozen spread':>15}")
    rows = []
    flowing, frozen = [], []
    for n in args.sizes:
        base = straight_line(a, b, c_run, n)
        s_flow = independence_spread(
            base, sample_closed_form(init, base.grid), args.m, displacements
        )
        s_froz = independence_spread(
            base, frozen_coefficients(init, base.grid), args.m, displacements
        )
        flowing.append(s_flow)
        frozen.append(s_froz)
        rows.append((n, s_flow, s_froz))
        print(f"{n:>7}  {s_flow:>15.6e}  {s_froz:>15.6e}")

    logn = np.log(args.sizes)
    print(f"fitted order, flowing coefficients: {-np.polyfit(logn, np.log(flowing), 1)[0]:.3f}")
    print(f"fitted order, frozen coefficients:  {-np.polyfit(logn, np.log(frozen), 1)[0]:.3f}")
    write_csv(args.out, ("N", "flowing_spread", "frozen_spread"), rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
