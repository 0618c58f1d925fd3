"""Newton driver, its exact Hessian, and the isoperimetric KKT solve."""
import math

import numpy as np
import pytest

from fracvar import (
    Constraint,
    ExprDomainError,
    Grid,
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

from helpers import random_smooth_samples

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


def test_log_lagrangian_without_pins(grid64):
    # no pin and no u channel: the node-0 continuation leaves H singular by
    # one, so the Newton step needs the diagonal shift
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


def test_persample_overflow_surfaces_from_expressions(grid64):
    # blowing up the samples themselves is caught earlier, by the evaluator
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="exp(u)")
    with pytest.raises(ExprDomainError):
        minimize(p, grid64, y0=np.full(grid64.n_nodes, 1000.0))


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
    n = g.n_cells
    x = g.nodes
    Y = np.array([np.sin(2.0 * x) + x, 0.5 * np.cos(3.0 * x)])
    Y[0, 0] = 0.0
    free = (slice(1, n + 1), slice(0, n + 1))
    dp = assemble(p, g)
    H = dp.hessian(dp.curvature(*dp.channels(Y)), free)
    assert H.shape == (2 * n + 1, 2 * n + 1)
    assert np.max(np.abs(H - H.T)) <= 1e-12 * np.max(np.abs(H))
    rng = np.random.default_rng(59)
    D = rng.standard_normal(Y.shape)
    D[0, 0] = 0.0
    eps = 1e-5
    fd = (gradient(p, Y + eps * D, g) - gradient(p, Y - eps * D, g)) / (2.0 * eps)
    fd_free = np.concatenate((fd[0, 1:], fd[1]))
    Hd = H @ np.concatenate((D[0, 1:], D[1]))
    assert np.max(np.abs(Hd - fd_free)) <= 1e-8 * np.max(np.abs(fd_free))



def test_hessian_builds_only_curved_tables():
    # (v - 1)^2 has curvature in v alone; the integral channel's dense
    # table must stay unbuilt, and H is 2 D^T W D on the free columns
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="(v - 1)^2")
    g = Grid(0.0, 1.0, 64)
    dp = assemble(p, g)
    Y = np.sqrt(g.nodes)[None, :]
    H = dp.hessian(dp.curvature(*dp.channels(Y)), (slice(1, g.n_nodes),))
    assert "coeffs" not in dp.I_ops[0].__dict__
    D = dp.D_ops[0].coeffs[:, 1:]
    ws = 2.0 * g.quad_weights
    ws[1] += ws[0]
    ws[0] = 0.0
    assert np.allclose(H, D.T @ (ws[:, None] * D), rtol=1e-13, atol=0.0)

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


def test_iso_default_config(grid64):
    # one KKT Newton step; no loosened tolerances needed
    report = solve_isoperimetric(iso_problem(1.0), grid64)
    assert report.converged
    assert report.iters == 1
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
    assert abs(report.constraint_gap) <= ISO_CFG.multiplier_tol


def test_iso_residual_of_augmented_problem(grid64):
    from fracvar import augmented_lagrangian

    report = solve_isoperimetric(iso_problem(1.0), grid64, ISO_CFG)
    aug = augmented_lagrangian(iso_problem(1.0), report.lam)
    r = el_residual(aug, report.y.values, grid64)
    assert r.interior_norm() <= 10.0 * ISO_CFG.grad_tol


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


def test_iso_requires_constraint(grid64):
    with pytest.raises(ValueError):
        solve_isoperimetric(quad_problem(), grid64)


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(max_iters=-1)
    with pytest.raises(ValueError):
        SolveConfig(armijo_c=1.5)
    with pytest.raises(ValueError):
        SolveConfig(armijo_shrink=0.0)


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
