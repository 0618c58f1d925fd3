"""Direct minimization of discretized fractional functionals.

minimize and solve_isoperimetric run one loop, _newton: damped Newton on
the free node values, whose pinned endpoint values never move, for one
Lagrangian L + lam g (lam = 0 without a constraint).  An iterate carries
its residual r; each step builds one preconditioner and solves
H x = -w r by matrix-free preconditioned CG (DiscreteProblem.
hessian_product and .preconditioner), truncated at the first direction of
nonpositive curvature (Steihaug 1983), so every step descends (_pcg).
Armijo backtracking halves the step from the full Newton step
(_backtrack), so without a constraint the J history is nonincreasing.  It
rejects a trial point where the next step cannot be formed (outside L's
domain, or with a non-finite residual), evaluates the curvature of
L + lam g only where the solve goes on, and ends it as no_progress once
_STALL_STEPS accepted steps have together lowered J (the merit, with a
constraint) by at most _STALL_RTOL of its value.

A constraint int g dx = ell (solve_isoperimetric) adds the gap C - ell,
the residual of C and a second PCG solve, H z = grad C, so that each
step solves the bordered (KKT) system in its multiplier-increment form
(Nocedal & Wright 2006, sec. 18.1)

    [H         grad C] [ d  ]   [  -w r   ]
    [grad C^T     0  ] [dlam] = [-(C - ell)]

by dlam = (grad C^T x + C - ell) / (grad C^T z) and d = x - dlam z; CG
keeps grad C^T z > 0.  Near a solution x is small.  The squared residual
of the optimality conditions replaces J as the line-search merit.  A
vanishing constraint gradient is the abnormal case: it is reported with
lam=None and a RuntimeWarning, not solved.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .expressions import ExprDomainError
from .grids import Grid, SampledFn, weighted_norm
from .problems import VarProblem, assemble, _normalize_samples

__all__ = ["SolveConfig", "SolveReport", "gradient", "minimize", "solve_isoperimetric"]

# line searches try t = _FIRST_STEP * _SHRINK^k >= _MIN_STEP (Armijo 1966)
_FIRST_STEP = 1.0
_SHRINK = 0.5
_MIN_STEP = 1e-18
_ARMIJO_C = 1e-4
# solve_isoperimetric converges only once |C - ell| is at most this
_GAP_TOL = 1e-3
# a constraint gradient at or below this weighted norm is treated as zero
_ABNORMAL_TOL = 1e-10
# the no_progress window and the relative fall it must exceed
_STALL_STEPS = 10
_STALL_RTOL = 1e-13
# CG stops once its residual has fallen by this factor, in the norm of the
# convergence test
_CG_RTOL = 1e-10


@dataclass(frozen=True)
class SolveConfig:
    """Newton stopping parameters.

    max_iters bounds the Newton steps; grad_tol bounds the weighted
    residual norm on free nodes (of the multiplier-augmented problem in
    the isoperimetric mode).
    """

    max_iters: int = 5000
    grad_tol: float = 1e-8

    def __post_init__(self) -> None:
        if int(self.max_iters) < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        object.__setattr__(self, "max_iters", int(self.max_iters))
        grad_tol = float(self.grad_tol)
        if not grad_tol > 0:
            raise ValueError(f"grad_tol must be positive, got {grad_tol}")
        object.__setattr__(self, "grad_tol", grad_tol)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve.

    y is a SampledFn for a single unknown and a tuple of SampledFn otherwise.
    residual_norm is the weighted Euler-Lagrange residual norm over free
    (unpinned) nodes; for constrained solves it refers to the multiplier-
    augmented problem.  history holds one (J, grad_norm) row per visited
    iterate, final point included.  stop_reason is "converged",
    "max_iters", "line_search_stalled" (no step down to 1e-18 was
    accepted), "no_progress" (the last 10 accepted steps together lowered
    J, or the merit with a constraint, by at most 1e-13 of its value) or
    "degenerate_constraint" (the abnormal isoperimetric case); linear_iters
    counts the CG iterations (Hessian products) of the whole solve.
    """

    y: SampledFn | tuple[SampledFn, ...]
    J: float
    residual_norm: float
    lam: float | None
    constraint_gap: float | None
    iters: int
    converged: bool
    history: np.ndarray
    stop_reason: str | None = None
    linear_iters: int = 0

    def __post_init__(self) -> None:
        h = np.asarray(self.history, dtype=float).reshape(-1, 2).copy()
        h.setflags(write=False)
        object.__setattr__(self, "history", h)


def _pack_y(grid: Grid, Y: np.ndarray):
    fns = tuple(SampledFn(grid, row) for row in Y)
    return fns[0] if len(fns) == 1 else fns


def _start(problem: VarProblem, grid: Grid, y0) -> np.ndarray:
    """y0 with the pins written in; by default zero samples bent linearly
    through whatever endpoints are pinned."""
    if y0 is None:
        x = grid.nodes
        Y = np.zeros((problem.n_unknowns, grid.n_nodes))
        for k, (left, right) in enumerate(problem.pins):
            if left is not None or right is not None:
                lo = 0.0 if left is None else left
                hi = 0.0 if right is None else right
                Y[k] = lo + (hi - lo) * (x - grid.a) / (grid.b - grid.a)
    else:
        Y = _normalize_samples(problem, grid, y0).copy()
    for k, (left, right) in enumerate(problem.pins):
        if left is not None:
            Y[k, 0] = left
        if right is not None:
            Y[k, -1] = right
    return Y


def _free_mask(problem: VarProblem, grid: Grid) -> np.ndarray:
    """The free (unpinned) entries of Y; pins sit only at nodes 0 and N."""
    mask = np.ones((problem.n_unknowns, grid.n_nodes), dtype=bool)
    for k, (left, right) in enumerate(problem.pins):
        mask[k, 0] = left is None
        mask[k, -1] = right is None
    return mask


def _pcg(dp, s: np.ndarray, precond, mask: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Truncated preconditioned CG for H d = b on the free entries (mask).

    H is dp's Hessian at the curvature stack s, applied matrix-free, and
    precond applies the step's preconditioner P^-1.  Returns d and the
    number of Hessian products.  Stops once the residual r = b - H d has
    fallen by _CG_RTOL in the norm of the solvers' convergence test,
    sqrt(sum r^2 / w), after as many products as there are free entries,
    or at the first direction p with p^T H p <= 0 (Steihaug 1983): d is
    then the last iterate, or p = P^-1 b itself at the first iteration.
    Every earlier direction had positive curvature, so b^T d > 0 for
    every nonzero d returned.  Where the squares of b overflow, so that
    the stop threshold is not finite, it solves for b / max|b| and scales
    d back.
    """
    w = dp.grid.quad_weights
    stop = _CG_RTOL**2 * float(np.vdot(b, b / w))
    if not np.isfinite(stop):
        # b is finite (the residual of an accepted iterate is), so b / top
        # has squares that fit
        top = float(np.max(np.abs(b)))
        d, n_products = _pcg(dp, s, precond, mask, b / top)
        return top * d, n_products
    d = np.zeros_like(b)
    r = b
    p = rz = None
    n_free = int(mask.sum())
    for i in range(n_free):
        if float(np.vdot(r, r / w)) <= stop:
            return d, i
        z = precond(r) * mask
        rz_new = float(np.vdot(r, z))
        p = z if p is None else z + (rz_new / rz) * p
        rz = rz_new
        Hp = dp.hessian_product(s, p) * mask
        curv = float(np.vdot(p, Hp))
        if not curv > 0.0:
            return (p if i == 0 else d), i + 1
        step = rz / curv
        d = d + step * p
        r = r - step * Hp
    return d, n_free


def gradient(problem: VarProblem, y, grid: Grid) -> np.ndarray:
    """Exact gradient of the discrete functional with respect to node values.

    Equals quad_weights * el_residual values componentwise.  Returns a flat
    vector for one unknown, one row per unknown otherwise.
    """
    dp = assemble(problem, grid)
    g = dp.gradient(_normalize_samples(problem, grid, y))
    return g[0] if problem.n_unknowns == 1 else g


def _backtrack(trial):
    """Backtracking from the full step: the first (t, trial(t)) that is not
    None for t = 1, 1/2, 1/4, ..., or (None, None) once t drops below
    _MIN_STEP.  A trial point outside the Lagrangian's domain counts as
    rejected."""
    t = _FIRST_STEP
    while t >= _MIN_STEP:
        try:
            out = trial(t)
        except ExprDomainError:
            out = None
        if out is not None:
            return t, out
        t *= _SHRINK
    return None, None


def _newton(problem: VarProblem, grid: Grid, cfg: SolveConfig | None, y0) -> SolveReport:
    """The damped Newton-PCG loop of both solvers, as the module docstring
    describes it.

    Without a constraint lam stays 0, the gap is 0 and r_C is None, so
    each iterate is a point of L alone and the line search lowers J.
    """
    cfg = cfg or SolveConfig()
    con = problem.constraint
    dp = assemble(problem, grid)
    w = grid.quad_weights
    mask = _free_mask(problem, grid)
    lowered = []  # what the line search lowers, at each accepted iterate

    def point(c, lam, J, steps):
        """(gap, r, r_C, norm, f, stop) at the channels c, multiplier lam
        and functional value J, reached in steps steps: r is the residual
        of L + lam g, f what the line search lowers (J, or with a
        constraint the merit |w r|^2 + gap^2), and stop why the solve ends
        there, or None where it goes on.  None where r is not finite."""
        r = dp._residual_from(c)
        gap, r_C, f = 0.0, None, J
        if con is not None:
            r_C = dp._residual_from(c, constraint=True)
            gap = dp.value(c, constraint=True) - con.ell
            r = r + lam * r_C
            g = (w * r)[mask]
            f = float(g @ g + gap * gap)
        if not np.all(np.isfinite(r)):
            return None
        norm = weighted_norm(grid, r * mask)
        before = lowered[steps - _STALL_STEPS] if steps >= _STALL_STEPS else None
        if con is not None and weighted_norm(grid, r_C * mask) <= _ABNORMAL_TOL:
            stop = "degenerate_constraint"
        elif norm <= cfg.grad_tol and abs(gap) <= _GAP_TOL:
            stop = "converged"
        elif before is not None and before - f <= _STALL_RTOL * abs(before):
            stop = "no_progress"
        else:
            stop = "max_iters" if steps >= cfg.max_iters else None
        return gap, r, r_C, norm, f, stop

    Y = _start(problem, grid, y0)
    c = dp.channels(Y)
    lam = 0.0
    J = dp.value(c)
    state = point(c, lam, J, 0)
    if state is None or not np.isfinite(J + state[0]):
        raise ArithmeticError("non-finite functional value or gradient at iteration 0")
    # the curvature is evaluated only where the solve goes on
    curv = None if state[-1] else dp.curvature(c, lam)
    history = []
    iters = linear_iters = 0
    while True:
        gap, r, r_C, norm, f, stop = state
        history.append((J, norm))
        lowered.append(f)
        if stop:
            break
        # one preconditioner per step: H x = -w r, and with a constraint
        # H z = grad C gives dlam and d = x - dlam z
        precond = dp.preconditioner(curv)
        g = w * r * mask
        D, n_cg = _pcg(dp, curv, precond, mask, -g)
        linear_iters += n_cg
        dlam = 0.0
        if con is None:
            slope = float(np.vdot(g, D))
        else:
            gC = w * r_C * mask
            z, n_cg = _pcg(dp, curv, precond, mask, gC)
            linear_iters += n_cg
            dlam = (float(np.vdot(gC, D)) + gap) / float(np.vdot(gC, z))
            D = D - dlam * z
        dc = dp.channels(D)

        def trial(t):
            c_t = c + t * dc
            J_t = dp.value(c_t)
            if not np.isfinite(J_t) or (con is None and not J_t <= J + _ARMIJO_C * t * slope):
                return None
            lam_t = lam + t * dlam
            state_t = point(c_t, lam_t, J_t, iters + 1)
            if state_t is None:
                return None
            f_t, stop_t = state_t[-2:]
            if con is not None and not (np.isfinite(f_t) and f_t <= (1.0 - 2.0 * _ARMIJO_C * t) * f):
                return None
            return c_t, lam_t, J_t, state_t, None if stop_t else dp.curvature(c_t, lam_t)

        t, accepted = _backtrack(trial)
        if t is None:
            stop = "line_search_stalled"
            break
        Y = Y + t * D
        c, lam, J, state, curv = accepted
        iters += 1
    return SolveReport(
        y=_pack_y(grid, Y),
        J=J,
        residual_norm=norm,
        lam=None if con is None or stop == "degenerate_constraint" else lam,
        constraint_gap=None if con is None else gap,
        iters=iters,
        converged=stop == "converged",
        history=np.array(history),
        stop_reason=stop,
        linear_iters=linear_iters,
    )


def minimize(
    problem: VarProblem,
    grid: Grid,
    cfg: SolveConfig | None = None,
    y0=None,
) -> SolveReport:
    """Damped Newton-PCG on the free node values.

    Pinned entries of y0 are overwritten with the pin values; the default
    start interpolates linearly through the pins (zero at unpinned ends).
    An ExprDomainError or a non-finite J or gradient at the starting point
    raises.  The line search accepts only points with a finite gradient
    where the solve either stops or can form the next step, whose
    curvature it then evaluates; so max_iters, no progress or a stalled
    line search ends the solve unraised.
    """
    if problem.constraint is not None:
        raise ValueError("minimize handles unconstrained problems; "
                         "use solve_isoperimetric when a constraint is present")
    return _newton(problem, grid, cfg, y0)


def solve_isoperimetric(
    problem: VarProblem,
    grid: Grid,
    cfg: SolveConfig | None = None,
    y0=None,
) -> SolveReport:
    """Equality-constrained Newton on the bordered (KKT) system, range-space.

    Starts from lam = 0 and updates y and lam together.  Converged means
    the augmented residual is at most grad_tol and the constraint gap at
    most 1e-3.  As in minimize, only the starting point can raise.  A
    numerically zero constraint gradient at any iterate, which makes the
    bordered matrix singular, signals the abnormal case, in which the
    candidate may be an extremal of the constraint functional itself; it
    is reported with a RuntimeWarning and lam=None, not solved.
    """
    if problem.constraint is None:
        raise ValueError("solve_isoperimetric requires a problem with a constraint")
    report = _newton(problem, grid, cfg, y0)
    if report.stop_reason == "degenerate_constraint":
        warnings.warn(
            f"constraint gradient vanishes or the bordered Newton matrix is "
            f"singular at iteration {report.iters}; the candidate may be an extremal "
            "of the constraint functional (abnormal multiplier case), not solving",
            RuntimeWarning,
            stacklevel=2,
        )
    return report
