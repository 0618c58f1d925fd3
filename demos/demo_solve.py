"""Minimize J(y) = integral of (D^0.5 y - 1)^2 and compare with the exact answer.

The minimizer is y(x) = sqrt(x)/Gamma(1.5), whose half-derivative is
identically 1. Newton on the node values finds it from a cold start in
one step; the script reports the objective decay and the recovered channels.
"""
import argparse

import numpy as np

from fracvar import (
    Grid,
    SolveConfig,
    VarProblem,
    build_left_rlfi,
    gamma,
    minimize,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-cells", type=int, default=256)
    ap.add_argument("--max-iters", type=int, default=5000)
    ap.add_argument("--grad-tol", type=float, default=1e-8)
    ap.add_argument("--csv", help="write x,y,exact to this file")
    args = ap.parse_args()

    problem = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5,
                         lagrangian="(v - 1)^2", pins=(0.0, None))
    grid = Grid(0.0, 1.0, args.n_cells)
    cfg = SolveConfig(max_iters=args.max_iters, grad_tol=args.grad_tol)

    report = minimize(problem, grid, cfg)
    y = report.y.values
    exact = np.sqrt(grid.nodes) / gamma(1.5)

    print(f"converged      : {report.converged} after {report.iters} iterations")
    print(f"J              : {report.J:.3e}")
    print(f"residual norm  : {report.residual_norm:.3e}")
    print(f"max |y - exact|: {np.max(np.abs(y - exact)):.3e}")

    I_y = build_left_rlfi(grid, 0.5).apply(y)
    print(f"max |I y - x|  : {np.max(np.abs(I_y - grid.nodes)):.3e}")

    hist = report.history
    marks = [0, len(hist) // 4, len(hist) // 2, 3 * len(hist) // 4, len(hist) - 1]
    print("\nobjective decay:")
    for k in sorted(set(marks)):
        print(f"  iter {int(k):5d}  J = {hist[k, 0]:.6e}  |grad| = {hist[k, 1]:.3e}")

    if args.csv:
        np.savetxt(args.csv, np.column_stack([grid.nodes, y, exact]),
                   delimiter=",", header="x,y,exact", comments="")
        print(f"\nwrote {args.csv}")


if __name__ == "__main__":
    main()
