"""Constrained minimization with a Lagrange multiplier from the KKT Newton solve.

Minimizes the energy of the half-derivative subject to a prescribed
integral of that derivative. For ell = 1 the best derivative profile is
the constant 1, which forces lambda = -2; scaling ell scales lambda
linearly and the objective quadratically.
"""
import argparse

import numpy as np

from fracvar import (
    Constraint,
    Grid,
    VarProblem,
    build_left_rlfd,
    solve_isoperimetric,
)


def run(ell, n_cells):
    problem = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="v^2",
                         constraint=Constraint("v", ell), pins=(0.0, None))
    grid = Grid(0.0, 1.0, n_cells)
    return solve_isoperimetric(problem, grid), grid


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-cells", type=int, default=64)
    ap.add_argument("--targets", type=float, nargs="+", default=[1.0, 2.0])
    args = ap.parse_args()

    print(f"{'ell':>6} {'lambda':>12} {'J':>12} {'gap':>10} {'converged':>10}")
    for ell in args.targets:
        report, grid = run(ell, args.n_cells)
        print(f"{ell:6.2f} {report.lam:12.6f} {report.J:12.6f} "
              f"{report.constraint_gap:10.2e} {str(report.converged):>10}")

    # look at the recovered derivative channel for the last run
    dv = build_left_rlfd(grid, 0.5).apply(report.y.values)
    sl = grid.interior()
    print(f"\nD y on the interior: mean {np.mean(dv[sl]):.4f}, "
          f"spread {np.max(dv[sl]) - np.min(dv[sl]):.2e}")
    print("(the optimal derivative profile is flat: every node carries the")
    print(" same marginal cost, so the constraint spreads evenly)")


if __name__ == "__main__":
    main()
