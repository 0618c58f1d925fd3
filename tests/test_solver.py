"""Newton driver, its exact Hessian, and the isoperimetric KKT solve."""
import math
import warnings

import numpy as np
import pytest

from fracvar import (
    Constraint,
    ExprDomainError,
    Grid,
    OperatorKind,
    SolveConfig,
    VarProblem,
    assemble,
    build_left_rlfd,
    build_left_rlfi,
    el_residual,
    el_residual_general,
    evaluate_functional,
    gamma,
    gradient,
    minimize,
    solve_isoperimetric,
)

import fracvar.problems
import fracvar.solve as solve_module
from fracvar import operators
from fracvar.problems import DiscreteProblem
from helpers import levels, random_smooth_samples, record_kernel_transforms

ISO_CFG = SolveConfig(max_iters=8000, grad_tol=1e-6)


def quad_problem(**kw):
    return VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="(v - 1)^2",
                      pins=(0.0, None), **kw)


# ---------------------------------------------------------------- minimize

def test_solve_quadratic_v_fixture(grid256):
    report = minimize(quad_problem(), grid256)
    assert report.converged
    assert report.iters <= 5000
    assert report.J <= 1e-6
    # the recovered integral channel should follow I^{0.5} of sqrt(x)/Gamma(1.5) = x
    I_y = build_left_rlfi(grid256, 0.5).apply(report.y.values)
    assert np.max(np.abs(I_y - grid256.nodes)) <= 2e-2


def test_already_optimal_stops_immediately(grid64):
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="v^2")
    report = minimize(p, grid64, y0=np.zeros(grid64.n_nodes))
    assert report.converged
    assert report.iters == 0
    assert report.J == 0.0


def test_solve_u_channel_fixture(grid256):
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="(u - x)^2",
                   pins=(0.0, None))
    report = minimize(p, grid256, SolveConfig(max_iters=5000, grad_tol=1e-10))
    assert report.J <= 1e-5
    exact = np.sqrt(grid256.nodes) / gamma(1.5)
    # the node next to the sqrt singularity is barely constrained by J,
    # so compare away from the ends
    sl = grid256.interior()
    assert np.max(np.abs(report.y.values - exact)[sl]) <= 2e-3


def test_history_monotone_and_shaped(grid64):
    report = minimize(quad_problem(), grid64, SolveConfig(max_iters=200, grad_tol=1e-14))
    hist = report.history
    assert hist.shape[1] == 2
    assert np.all(np.diff(hist[:, 0]) <= 0.0)  # Armijo guarantees descent
    with pytest.raises(ValueError):
        hist[0, 0] = -1.0


def test_pins_held_fixed(grid64):
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="(v - 1)^2",
                   pins=(0.25, 0.75))
    report = minimize(p, grid64, SolveConfig(max_iters=50))
    assert report.y.values[0] == 0.25
    assert report.y.values[-1] == 0.75


def test_default_start_interpolates_pins(grid64):
    # a zero Lagrangian converges instantly, exposing the default start
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="0", pins=(1.0, 3.0))
    report = minimize(p, grid64)
    assert report.iters == 0
    assert report.y.values[0] == pytest.approx(1.0)
    assert report.y.values[-1] == pytest.approx(3.0)
    assert np.allclose(np.diff(report.y.values), report.y.values[1] - report.y.values[0])


def test_minimize_rejects_constrained(grid64):
    p = quad_problem(constraint=Constraint("v", 1.0))
    with pytest.raises(ValueError):
        minimize(p, grid64)


def test_nonfinite_gradient_raises(grid64):
    # exp(v) stays finite sample by sample (peak ~8e307) but the h^-beta
    # scaling in the adjoint matvec pushes the gradient to inf.
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="exp(v)")
    y0 = 709.0 * np.sqrt(grid64.nodes)
    with np.errstate(over="ignore"), pytest.raises(ArithmeticError, match="iteration"):
        minimize(p, grid64, y0=y0)


def test_mixed_channels_converge():
    g = Grid(0.0, 1.0, 128)
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="v^2 + u*v + x*u + u^2")
    report = minimize(p, g, SolveConfig(max_iters=5000))
    assert report.converged
    assert el_residual(p, report.y, g).norm <= 1e-6


def test_a_term_without_the_channel_runs_at_x_zero(grid64):
    # u*x^x differentiates by u to x^x, which is 1 at x = 0, and by v to
    # zero, so no partial holds a 0/x term, undefined at x = 0
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="(v - 1)^2 + u*x^x",
                   pins=(0.0, None))
    assert minimize(p, grid64).converged


def test_log_lagrangian_without_pins(grid64):
    # no pin and no u channel: the node-0 continuation leaves H singular by
    # one; CG, with node 0 given node 1's preconditioner weight, still
    # solves the consistent system
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="v^2 - log(v + 2)")
    report = minimize(p, grid64)
    assert report.converged
    v = build_left_rlfd(grid64, 0.5).apply(report.y.values)
    # 2v - 1/(v + 2) = 0
    assert np.max(np.abs(v[1:] - (-1.0 + math.sqrt(1.5)))) <= 1e-6


def test_trial_point_outside_domain_is_rejected(grid64):
    # the full Newton step from y = 0 crosses v = 2, where log(2 - v) is
    # undefined; the line search must shrink instead of raising
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="(v - 3)^2 - log(2 - v)")
    report = minimize(p, grid64)
    assert report.converged
    assert np.all(np.diff(report.history[:, 0]) <= 0.0)
    v = build_left_rlfd(grid64, 0.5).apply(report.y.values)
    # 2(v - 3) + 1/(2 - v) = 0 on the branch v < 2
    assert np.max(np.abs(v[1:] - (5.0 - math.sqrt(3.0)) / 2.0)) <= 1e-6


@pytest.mark.parametrize("lagrangian, scale", [
    # the first line search reaches a point where v = 0 at a node: J is
    # defined there, the residual's 1/(2 sqrt(v)) is not
    ("sqrt(v) - v", 1e-30),
    # the 25th line search reaches |v| > 1e77 at node 0, where J and the
    # residual are finite but the v^4 in the curvature overflows
    ("log(v) + 1/v - v", 1e-3),
], ids=["residual", "curvature"])
def test_line_search_rejects_points_without_a_next_step(lagrangian, scale):
    # both problems are unbounded below: the solve ends unconverged at a
    # point where the Newton step can still be formed, instead of raising
    grid = Grid(0.0, 1.0, 32)
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian=lagrangian,
                   pins=(0.0, None))
    y0 = scale * np.sqrt(grid.nodes) / gamma(1.5)
    report = minimize(p, grid, SolveConfig(max_iters=100), y0=y0)
    assert report.stop_reason in {"max_iters", "line_search_stalled"}
    assert np.all(np.isfinite(report.history))
    assert np.all(np.diff(report.history[:, 0]) <= 0.0)


def test_backtrack_gives_up_after_sixty_halvings():
    steps = []

    def trial(t):
        steps.append(t)
        return None

    assert solve_module._backtrack(trial) == (None, None)
    assert steps == [2.0**-k for k in range(60)]


def test_backtrack_counts_a_domain_error_as_rejected():
    def trial(t):
        if t > 0.3:
            raise ExprDomainError("division by zero", "1/v", 0)
        return "ok"

    assert solve_module._backtrack(trial) == (0.25, "ok")


def test_backtrack_returns_the_first_accepted_step():
    steps = []

    def trial(t):
        steps.append(t)
        return ("value", t) if t <= 0.2 else None

    assert solve_module._backtrack(trial) == (0.125, ("value", 0.125))
    assert steps == [1.0, 0.5, 0.25, 0.125]


def test_negative_curvature_start_takes_the_truncated_step(grid64):
    # (v^2 - 1)^2 is concave in v near v = 0, where the start sits: CG
    # stops at the first direction of negative curvature, which still
    # descends, and Newton then converges to the well at v = 1
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="(v^2 - 1)^2",
                   pins=(0.0, None))
    report = minimize(p, grid64, y0=0.1 * np.sqrt(grid64.nodes))
    assert report.converged
    assert report.iters <= 10
    assert np.all(np.diff(report.history[:, 0]) <= 0.0)
    v = build_left_rlfd(grid64, 0.5).apply(report.y.values)
    assert np.max(np.abs(v[1:] - 1.0)) <= 1e-6


def test_large_grid_one_newton_step():
    # a dense Hessian here would take 8 GiB; acceptance 05's oracle at
    # N = 32768, with one Newton step of one CG iteration
    g = Grid(0.0, 1.0, 32768)
    report = minimize(quad_problem(), g)
    assert report.converged
    assert report.iters == 1
    assert report.linear_iters == 1
    assert report.J <= 1e-6
    I_y = build_left_rlfi(g, 0.5).apply(report.y.values)
    assert np.max(np.abs(I_y - g.nodes)) <= 2e-2


@pytest.mark.parametrize("lagrangian, pins, per_step", [
    ("(v - 1)^2", (0.0, None), 1),
    ("(v - 1)^2", (0.0, 0.0), 2),
    ("(u - x)^2", (0.0, None), 1),
    ("v^2 + u*v + x*u + u^2", None, 10),
], ids=["v-left", "v-both", "u-only", "mixed"])
def test_cg_iterations_do_not_grow_with_n(lagrangian, pins, per_step):
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian=lagrangian, pins=pins)
    for n in (64, 2048):
        report = minimize(p, Grid(0.0, 1.0, n))
        assert report.converged and report.iters == 1
        assert report.linear_iters <= per_step, n


@pytest.mark.parametrize("case, cfg, reason", [
    ("quadratic", SolveConfig(), "converged"),
    ("quartic", SolveConfig(max_iters=3, grad_tol=1e-14), "max_iters"),
    ("abnormal", ISO_CFG, "degenerate_constraint"),
    # below round-off the steps leave J where it is
    ("quartic", SolveConfig(grad_tol=1e-16), "no_progress"),
])
def test_stop_reason(grid64, case, cfg, reason):
    problems = {
        "quadratic": quad_problem(),
        "quartic": VarProblem(0.0, 1.0, alphas=0.5, betas=0.5,
                              lagrangian="(v - 1)^2 + v^4", pins=(0.0, None)),
        # y = 0 is an extremal of the constraint functional
        "abnormal": VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="v^2 + v",
                               constraint=Constraint("v^2", 0.0), pins=(0.0, None)),
    }
    p = problems[case]
    if p.constraint is None:
        report = minimize(p, grid64, cfg)
    else:
        with pytest.warns(RuntimeWarning):
            report = solve_isoperimetric(p, grid64, cfg, y0=np.zeros(grid64.n_nodes))
    assert report.stop_reason == reason
    assert report.converged == (reason == "converged")
    # one CG iteration at least per Newton step
    assert report.iters <= report.linear_iters <= report.iters * grid64.n_cells


def test_cg_stops_after_one_product_per_free_node():
    # pinned at both ends on two cells, one node is free: every CG solve
    # uses up its one product, and the quartic still takes five steps
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5,
                   lagrangian="(v - 1)^2 + v^4", pins=(0.0, 0.0))
    report = minimize(p, Grid(0.0, 1.0, 2))
    assert report.converged
    assert (report.iters, report.linear_iters) == (5, 5)


def test_line_search_rejects_a_trial_with_a_non_finite_residual(grid64, monkeypatch):
    # no input is known whose trial point has a finite J and a residual that
    # overflows only in the pullback, so the first trial's residual is
    # replaced by inf: the line search halves, and the solve converges
    residual = DiscreteProblem._residual_from
    calls = []

    def overflowing(dp, c, constraint=False):
        calls.append(constraint)
        r = residual(dp, c, constraint)
        return np.full_like(r, np.inf) if len(calls) == 2 else r

    backtrack = solve_module._backtrack
    steps = []

    def recording(trial):
        t, accepted = backtrack(trial)
        steps.append(t)
        return t, accepted

    monkeypatch.setattr(DiscreteProblem, "_residual_from", overflowing)
    monkeypatch.setattr(solve_module, "_backtrack", recording)
    report = minimize(quad_problem(), grid64)
    assert steps == [0.5, 1.0]
    assert report.converged
    assert np.all(np.isfinite(report.history))


def test_persample_overflow_surfaces_from_expressions(grid64):
    # blowing up the samples themselves is caught earlier, by the evaluator
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="exp(u)")
    with pytest.raises(ExprDomainError):
        minimize(p, grid64, y0=np.full(grid64.n_nodes, 1000.0))


def overflowing_solve():
    # -exp(u) at 700 sqrt(x)/Gamma(1.5): the residual exp(u) pulled back is
    # finite near 1e302, and its squares overflow
    g = Grid(0.0, 1.0, 32)
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="-exp(u)", pins=(0.0, None))
    return minimize(p, g, SolveConfig(max_iters=20), 700.0 * np.sqrt(g.nodes) / gamma(1.5))


def test_residual_past_1e154_has_a_finite_norm():
    # the history records the finite norms without a warning
    report = overflowing_solve()
    assert np.all(np.isfinite(report.history))
    assert report.history[0, 1] == pytest.approx(1.499e302, rel=1e-3)


def test_cg_steps_when_the_squares_of_its_right_hand_side_overflow():
    # CG's stop threshold overflows at this start; it solves the scaled
    # system instead, so the first step moves and lowers J
    report = overflowing_solve()
    assert report.linear_iters >= 1
    assert report.history[1, 0] < report.history[0, 0]
    assert report.stop_reason == "max_iters"


# ---------------------------------------------------------------- gradient

def test_gradient_zero_at_flat_candidate(grid64):
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="v^2/2")
    g = gradient(p, np.zeros(grid64.n_nodes), grid64)
    assert np.all(g == 0.0)


def test_gradient_equals_weighted_residual(grid64):
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="v^2 + u*v + x*u")
    rng = np.random.default_rng(43)
    y = random_smooth_samples(rng, grid64)
    grad = gradient(p, y, grid64)
    r = el_residual(p, y, grid64)
    assert np.max(np.abs(grad - grid64.quad_weights * r.values[0])) <= 1e-12


def test_gradient_matches_finite_differences(grid64):
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="v^2/2 + u^2/2")
    rng = np.random.default_rng(47)
    y = random_smooth_samples(rng, grid64)
    grad = gradient(p, y, grid64)
    step = 1e-6
    for j in (0, 5, 31, 64):
        e = np.zeros_like(y)
        e[j] = 1.0
        fd = (evaluate_functional(p, y + step * e, grid64)
              - evaluate_functional(p, y - step * e, grid64)) / (2 * step)
        assert abs(grad[j] - fd) <= 1e-6 * max(1.0, abs(grad[j]))


def test_first_variation_consistency(grid64):
    # compare at a candidate with a healthy gradient: near the minimizer the
    # forward-difference quotient is nothing but second-order noise
    p = quad_problem()
    rng = np.random.default_rng(53)
    x = grid64.nodes
    y = 100.0 * (np.sin(2.1 * x) + 0.6 * x**2 - 0.3 * x)
    grad = gradient(p, y, grid64)
    eps = 1e-6
    J0 = evaluate_functional(p, y, grid64)
    for _ in range(5):
        eta = rng.standard_normal(grid64.n_nodes)
        eta[0] = 0.0  # respect the pinned end
        J1 = evaluate_functional(p, y + eps * eta, grid64)
        directional = float(grad @ eta)
        assert abs((J1 - J0) / eps - directional) <= 1e-4 * abs(directional)


# ---------------------------------------------------------------- Hessian

# two unknowns, alphas (0.3, 0.7), betas (0.4, 0.6): every channel enters,
# with u-u, u-v and v-v cross terms, and exp makes the curvature vary
TWO_UNKNOWN = ("(v1 - x)^2 + v2^2 + v3^2 + (v4 - 1)^2 + v1*v4/2 + u1^2 + u1*v2/4"
               " + u2^2 + u3*u4/4 + exp(u4)/8")


def two_unknown_problem():
    # y1 pinned on the left, y2 free everywhere: the Hessian blocks have
    # different sizes, and y2's node-0 continuation is folded into the weights
    return VarProblem(0.0, 1.0, alphas=(0.3, 0.7), betas=(0.4, 0.6), lagrangian=TWO_UNKNOWN,
                      n_unknowns=2, pins=((0.0, None), (None, None)))


def test_hessian_matches_gradient_differences():
    p = two_unknown_problem()
    g = Grid(0.0, 1.0, 32)
    x = g.nodes
    Y = np.array([np.sin(2.0 * x) + x, 0.5 * np.cos(3.0 * x)])
    Y[0, 0] = 0.0
    free = np.ones(Y.shape, dtype=bool)
    free[0, 0] = False
    dp = assemble(p, g)
    curv = dp.curvature(dp.channels(Y))
    rng = np.random.default_rng(59)
    D = rng.standard_normal(Y.shape)
    D[0, 0] = 0.0
    Hd = dp.hessian_product(curv, D)
    assert Hd.shape == Y.shape
    eps = 1e-5
    fd = (gradient(p, Y + eps * D, g) - gradient(p, Y - eps * D, g)) / (2.0 * eps)
    assert np.max(np.abs(Hd[free] - fd[free])) <= 1e-8 * np.max(np.abs(fd[free]))
    # symmetry: e^T (H d) = d^T (H e)
    E = rng.standard_normal(Y.shape)
    E[0, 0] = 0.0
    He = dp.hessian_product(curv, E)
    scale = float(np.abs(E).ravel() @ np.abs(Hd).ravel())
    assert abs(np.vdot(E, Hd) - np.vdot(D, He)) <= 1e-12 * scale


def test_hessian_product_is_the_pair_loop_over_the_curvature_stack():
    # the stack is symmetric and zero off the curved pairs, and its
    # contraction equals, bit for bit, the loop over curved pairs
    p = two_unknown_problem()
    g = Grid(0.0, 1.0, 32)
    x = g.nodes
    dp = assemble(p, g)
    S = dp.curvature(dp.channels(np.array([np.sin(2.0 * x) + x, 0.5 * np.cos(3.0 * x)])))
    curved = set(dp._second_partials)
    assert np.array_equal(S, S.transpose(1, 0, 2))
    C = len(dp.names)
    assert all(not S[a, b].any() for a in range(C) for b in range(a, C) if (a, b) not in curved)
    D = np.random.default_rng(60).standard_normal((2, g.n_nodes))
    rows = sorted({a for pair in curved for a in pair})
    dc = dp._channels(D, rows)
    q = np.zeros_like(dc)
    for a in rows:
        for b in rows:
            if (min(a, b), max(a, b)) in curved:
                q[a] += S[a, b] * dc[b]
    want = g.quad_weights * dp._pullback(q, rows)
    assert dp.hessian_product(S, D).tobytes() == want.tobytes()


def test_hessian_builds_only_curved_tables(monkeypatch):
    # (v - 1)^2 has curvature in v alone: H d is 2 D^T W D d on the free
    # nodes, and neither the product nor the solvers build a dense table
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="(v - 1)^2")
    g = Grid(0.0, 1.0, 64)
    dp = assemble(p, g)
    Y = np.sqrt(g.nodes)[None, :]
    d = np.random.default_rng(61).standard_normal(g.n_nodes)
    d[0] = 0.0
    Hd = dp.hessian_product(dp.curvature(dp.channels(Y)), d[None, :])[0]
    maps = [dp._map(a) for a in range(len(dp.names))]
    assert all("coeffs" not in op.__dict__ for m in maps for op in m[:2])
    D = maps[1][0].coeffs[:, 1:]
    ws = 2.0 * g.quad_weights
    ws[1] += ws[0]
    ws[0] = 0.0
    assert np.allclose(Hd[1:], D.T @ (ws * (D @ d[1:])), rtol=1e-13, atol=0.0)

    assembled = []

    def recording(problem, grid):
        assembled.append(assemble(problem, grid))
        return assembled[-1]

    monkeypatch.setattr(solve_module, "assemble", recording)
    # a fresh grid: g keeps the operators whose coeffs were read above
    g = Grid(0.0, 1.0, 64)
    assert minimize(quad_problem(), g).converged
    assert solve_isoperimetric(iso_problem(1.0), g).converged
    assert len(assembled) == 2
    assert all("coeffs" not in op.__dict__ for dp in assembled
               for a in range(len(dp.names)) for op in dp._map(a)[:2])


@pytest.mark.parametrize("n", (64, 128, 512))
def test_solvers_evaluate_no_curvature_where_they_stop(n, monkeypatch):
    # one-step solves: the curvature is evaluated where the step is formed,
    # not at the point where grad_tol (and the gap test) or max_iters ends
    # the solve
    calls = []
    curvature = DiscreteProblem.curvature

    def counting(dp, c, lam=0.0):
        calls.append(dp)
        return curvature(dp, c, lam)

    monkeypatch.setattr(DiscreteProblem, "curvature", counting)
    g = Grid(0.0, 1.0, n)
    report = minimize(quad_problem(), g)
    assert (report.stop_reason, report.iters, len(calls)) == ("converged", 1, 1)
    calls.clear()
    quartic = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5,
                         lagrangian="(v - 1)^2 + v^4", pins=(0.0, None))
    report = minimize(quartic, g, SolveConfig(max_iters=1))
    assert (report.stop_reason, report.iters, len(calls)) == ("max_iters", 1, 1)
    calls.clear()
    report = solve_isoperimetric(iso_problem(1.0), g)
    assert (report.stop_reason, report.iters, len(calls)) == ("converged", 1, 1)


def test_preconditioner_transforms_the_inverse_kernel_once_per_level(monkeypatch):
    # node 0 free at N = 1024: each Toeplitz solve has 1025 unknowns and
    # takes the block path; the two solves of every call share one
    # transform per level, and the output has the bits of solves that
    # transform the kernel afresh
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="(v - 1)^2")
    g = Grid(0.0, 1.0, 1024)
    dp = assemble(p, g)
    curv = dp.curvature(dp.channels(np.sqrt(g.nodes)[None, :]))
    R = np.random.default_rng(71).standard_normal((3, 1, g.n_nodes))
    with monkeypatch.context() as m:
        m.setattr(fracvar.problems, "_lower_toeplitz",
                  lambda t, x, spectra=None: operators._lower_toeplitz(t, x))
        want = [dp.preconditioner(curv)(r) for r in R]
    precond = dp.preconditioner(curv)
    widths = record_kernel_transforms(monkeypatch)
    for r, z in zip(R, want):
        assert np.array_equal(precond(r), z)
    assert widths == [2 * s - 1 for s in levels(g.n_nodes)]


def test_unknown_without_a_curved_diagonal_keeps_the_identity_preconditioner():
    # v1^2 curves unknown 1's diagonal; unknown 2 is curved only through
    # the cross term u1*v2, so its preconditioner row is the identity
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="v1^2 + u1*v2",
                   n_unknowns=2)
    g = Grid(0.0, 1.0, 32)
    dp = assemble(p, g)
    Y = np.array([np.sqrt(g.nodes), g.nodes ** 2])
    R = np.random.default_rng(73).standard_normal(Y.shape)
    Z = dp.preconditioner(dp.curvature(dp.channels(Y)))(R)
    assert Z[1].tobytes() == R[1].tobytes()
    assert not np.array_equal(Z[0], R[0])


def test_preconditioners_of_one_operator_share_its_inverse_transforms(monkeypatch):
    # node 0 free at N = 4096: the first preconditioner transforms the
    # inverse kernel once per level and keeps the transforms with the
    # operator, so later preconditioners of the problem transform nothing;
    # every output has the bits of solves that transform the kernel afresh
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="(v - 1)^2")
    g = Grid(0.0, 1.0, 4096)
    dp = assemble(p, g)
    curv = dp.curvature(dp.channels(np.sqrt(g.nodes)[None, :]))
    R = np.random.default_rng(72).standard_normal((3, 1, g.n_nodes))
    with monkeypatch.context() as m:
        m.setattr(fracvar.problems, "_lower_toeplitz",
                  lambda t, x, spectra=None: operators._lower_toeplitz(t, x))
        want = [dp.preconditioner(curv)(r) for r in R]
    widths = record_kernel_transforms(monkeypatch)
    counts = []
    for r, z in zip(R, want):
        before = len(widths)
        assert np.array_equal(dp.preconditioner(curv)(r), z)
        counts.append(len(widths) - before)
    assert counts == [len(levels(g.n_nodes)), 0, 0] == [1, 0, 0]


def test_minimize_two_unknowns_two_orders():
    p = two_unknown_problem()
    g = Grid(0.0, 1.0, 32)
    report = minimize(p, g)
    assert report.converged
    assert report.iters <= 10
    r = el_residual_general(p, report.y, g).values
    w = g.quad_weights
    # y1's pinned node carries no stationarity condition
    assert np.sqrt(np.sum(w[1:] * r[0, 1:] ** 2) + np.sum(w * r[1] ** 2)) <= 1e-8


# ---------------------------------------------------------------- isoperimetric

def iso_problem(ell):
    return VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="v^2",
                      constraint=Constraint("v", ell), pins=(0.0, None))


def test_iso_lambda_minus_two(grid256):
    report = solve_isoperimetric(iso_problem(1.0), grid256, ISO_CFG)
    assert report.converged
    assert report.lam == pytest.approx(-2.0, abs=1e-2)
    assert report.J == pytest.approx(1.0, abs=1e-2)
    assert abs(report.constraint_gap) <= 1e-3
    dv = build_left_rlfd(grid256, 0.5).apply(report.y.values)
    assert np.max(np.abs(dv[grid256.interior()] - 1.0)) <= 2e-2


def test_iso_builds_each_operator_once(monkeypatch):
    # L and the constraint read the same channel v: the constraint's
    # problem takes the RLFD and its adjoint that L's problem built
    built = []

    def recording(build):
        def wrapped(*args):
            built.append(build(*args))
            return built[-1]
        return wrapped

    for name in ("build_left_rlfi", "build_left_rlfd", "build_right_adjoint"):
        monkeypatch.setattr(fracvar.problems, name,
                            recording(getattr(fracvar.problems, name)))
    assert solve_isoperimetric(iso_problem(1.0), Grid(0.0, 1.0, 1024)).converged
    assert [op.kind for op in built] == [OperatorKind.LEFT_RLFD, OperatorKind.RIGHT_RLFD]


def test_iso_default_config(grid64):
    # one range-space KKT Newton step; grad J vanishes at the zero start,
    # so H x = -grad J takes no CG iteration and H z = grad C one.  No
    # loosened tolerances needed
    report = solve_isoperimetric(iso_problem(1.0), grid64)
    assert report.converged
    assert report.iters == 1
    assert report.linear_iters == 1
    assert report.lam == pytest.approx(-2.0, abs=1e-2)
    assert report.residual_norm <= SolveConfig().grad_tol


def test_iso_zero_target(grid64):
    report = solve_isoperimetric(iso_problem(0.0), grid64, ISO_CFG)
    assert report.lam == pytest.approx(0.0, abs=1e-2)
    assert abs(report.J) <= 1e-3
    assert np.max(np.abs(report.y.values)) <= 1e-3


def test_iso_multiplier_scaling(grid64):
    r1 = solve_isoperimetric(iso_problem(1.0), grid64, ISO_CFG)
    r2 = solve_isoperimetric(iso_problem(2.0), grid64, ISO_CFG)
    assert r2.lam == pytest.approx(-4.0, abs=2e-2)
    assert r2.J == pytest.approx(4.0, abs=4e-2)
    # doubling the target doubles the multiplier and quadruples the value
    assert r2.lam == pytest.approx(2.0 * r1.lam, rel=0.05)
    assert r2.J == pytest.approx(4.0 * r1.J, rel=0.05)


def test_iso_converged_implies_invariants(grid64):
    report = solve_isoperimetric(iso_problem(1.0), grid64, ISO_CFG)
    assert report.converged
    assert report.residual_norm <= ISO_CFG.grad_tol
    assert solve_module._GAP_TOL == 1e-3
    assert abs(report.constraint_gap) <= solve_module._GAP_TOL


def test_iso_residual_of_augmented_problem(grid64):
    from fracvar import augmented_lagrangian

    report = solve_isoperimetric(iso_problem(1.0), grid64, ISO_CFG)
    aug = augmented_lagrangian(iso_problem(1.0), report.lam)
    r = el_residual(aug, report.y.values, grid64)
    assert r.interior_norm() <= 10.0 * ISO_CFG.grad_tol


def test_iso_nonlinear_constraint():
    # minimize (v - 1)^2 subject to the integral of v^2 = 1/4: v = 1/2,
    # J = 1/4, lam = 1.  The constraint's curvature adds lam * 2 to the
    # v-v curvature of L.  The zero start is abnormal (grad C = 2v = 0).
    grid = Grid(0.0, 1.0, 128)
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="(v - 1)^2",
                   constraint=Constraint("v^2", 0.25), pins=(0.0, None))
    report = solve_isoperimetric(p, grid, y0=grid.nodes)
    assert report.converged
    assert report.lam == pytest.approx(1.0, abs=1e-10)
    assert report.J == pytest.approx(0.25, abs=1e-10)
    assert abs(report.constraint_gap) <= 1e-10
    v = build_left_rlfd(grid, 0.5).apply(report.y.values)
    assert np.max(np.abs(v[grid.interior()] - 0.5)) <= 1e-10


def test_iso_abnormal_candidate_warns(grid64):
    # y = 0 is an extremal of the constraint functional here, so the
    # multiplier iteration cannot get a foothold
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="v^2 + v",
                   constraint=Constraint("v^2", 0.0), pins=(0.0, None))
    with pytest.warns(RuntimeWarning):
        report = solve_isoperimetric(p, grid64, ISO_CFG,
                                     y0=np.zeros(grid64.n_nodes))
    assert not report.converged
    assert report.lam is None


def test_iso_line_search_stalls_without_a_warning():
    # sqrt(v) - v from v ~ 1e-30, where the residual's 1/(2 sqrt(v)) is
    # about 5e14: the first multiplier step is so large that no trial step
    # down to 1e-18 lowers the merit, and a stall is not the abnormal case
    grid = Grid(0.0, 1.0, 32)
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="sqrt(v) - v",
                   constraint=Constraint("v", 1.0), pins=(0.0, None))
    y0 = 1e-30 * np.sqrt(grid.nodes) / gamma(1.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = solve_isoperimetric(p, grid, SolveConfig(max_iters=100), y0=y0)
    assert (report.stop_reason, report.iters) == ("line_search_stalled", 0)
    assert report.lam == 0.0
    assert not report.converged
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("n, steps", [(32, 5), (48, 4), (64, 4), (1024, 4)])
def test_iso_bilinear_constraint_converges(n, steps):
    # g = u v curves only the (u, v) pair, and H_L + lam H_g is indefinite
    # near the solution; the multiplier-increment step solves for a small
    # x there, and converges instead of spinning to max_iters at N = 32
    grid = Grid(0.0, 1.0, n)
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="v^2",
                   constraint=Constraint("u*v", 0.3), pins=(0.0, None))
    report = solve_isoperimetric(p, grid, y0=grid.nodes)
    assert report.converged
    assert report.iters <= steps
    if n == 1024:
        assert report.lam == pytest.approx(-2.0, abs=1e-3)


@pytest.mark.parametrize("n", [32, 64])
def test_iso_curved_constraint_ends_no_progress(n):
    # the bordered step does not converge here; once its accepted steps
    # stop changing anything, the solve says so instead of running on
    grid = Grid(0.0, 1.0, n)
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="v^2 + u*v",
                   constraint=Constraint("v^2 + u^2*v", 0.3), pins=(0.0, None))
    report = solve_isoperimetric(p, grid, y0=grid.nodes)
    assert report.stop_reason == "no_progress"
    assert not report.converged
    assert report.lam is not None
    norms = report.history[-(solve_module._STALL_STEPS + 1):, 1]
    assert np.ptp(norms) <= 1e-12 * np.max(norms)


def test_iso_step_builds_one_preconditioner(grid64, monkeypatch):
    # the two CG solves of a constrained step share its preconditioner
    built = []
    preconditioner = DiscreteProblem.preconditioner

    def counting(dp, S):
        built.append(S)
        return preconditioner(dp, S)

    monkeypatch.setattr(DiscreteProblem, "preconditioner", counting)
    report = solve_isoperimetric(iso_problem(1.0), grid64)
    assert (report.stop_reason, report.iters, len(built)) == ("converged", 1, 1)


def test_iso_requires_constraint(grid64):
    with pytest.raises(ValueError):
        solve_isoperimetric(quad_problem(), grid64)


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(max_iters=-1)
    # the line-search settings and the gap tolerance are constants now
    for name in ("step_init", "armijo_c", "armijo_shrink", "multiplier_tol"):
        with pytest.raises(TypeError):
            SolveConfig(**{name: 0.5})


@pytest.mark.parametrize("grad_tol", [0.0, -1e-8, math.nan])
def test_config_rejects_a_nonpositive_grad_tol(grad_tol):
    with pytest.raises(ValueError, match="grad_tol"):
        SolveConfig(grad_tol=grad_tol)


@pytest.mark.parametrize("mixed, indexed", [
    ("u^2 + u1 + v^2", "u1^2 + u1 + v^2"),
    ("v^2 + v1 + u^2", "v1^2 + v1 + u^2"),
    ("u^2 + v + v1^2", "u1^2 + v1 + v1^2"),
], ids=["u-u1", "v-v1", "u-v-v1"])
def test_alias_and_indexed_name_are_one_channel(grid64, mixed, indexed):
    # with one channel per side, u and u1 (v and v1) name the same samples,
    # so spelling a term either way must not change the gradient
    a, b = (VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian=L,
                       pins=(0.0, None)) for L in (mixed, indexed))
    Y = np.sqrt(grid64.nodes)[None, :]
    np.testing.assert_array_equal(assemble(a, grid64).gradient(Y),
                                  assemble(b, grid64).gradient(Y))
    ra, rb = minimize(a, grid64), minimize(b, grid64)
    assert ra.converged and rb.converged
    assert ra.J == pytest.approx(rb.J, rel=1e-12, abs=1e-15)
    assert rb.J < -0.05
