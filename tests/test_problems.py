"""Functional evaluation and Euler-Lagrange residuals on known fixtures."""
import math

import numpy as np
import pytest

import fracvar.problems
from fracvar import (
    Constraint,
    FracOperator,
    Grid,
    OperatorKind,
    SampledFn,
    VarProblem,
    assemble,
    augmented_lagrangian,
    build_left_rlfd,
    constraint_value,
    el_residual,
    el_residual_general,
    evaluate_functional,
    gamma,
    gradient,
    minimize,
    solve_isoperimetric,
)
from fracvar.expressions import parse
from helpers import record_assembly_work


def half_problem(lagrangian, **kw):
    return VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian=lagrangian, **kw)


# ---------------------------------------------------------------- construction

def test_rejects_undeclared_variable():
    with pytest.raises(ValueError):
        half_problem("v + w")


@pytest.mark.parametrize("a, b", [(-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0)])
def test_rejects_nonfinite_endpoint(a, b):
    with pytest.raises(ValueError, match="interval endpoints must be finite"):
        VarProblem(a, b, alphas=0.5, betas=0.5, lagrangian="v^2")


def test_rejects_out_of_range_orders():
    with pytest.raises(ValueError):
        VarProblem(0.0, 1.0, alphas=1.5, betas=0.5, lagrangian="v^2")


def test_rejects_alpha_whose_complement_rounds_to_one():
    # the integral channel order 1 - alpha must itself lie in (0, 1)
    for tiny in (1e-17, 5e-324):
        with pytest.raises(ValueError, match="rounds to 1"):
            VarProblem(0.0, 1.0, alphas=tiny, betas=0.5, lagrangian="u^2")
    VarProblem(0.0, 1.0, alphas=1e-15, betas=0.5, lagrangian="u^2")


def test_multi_channel_names():
    p = VarProblem(0.0, 1.0, alphas=(0.5, 0.75), betas=0.5, lagrangian="u1 + u2")
    assert p.u_names() == ("u1", "u2")
    # bare "u" is ambiguous once there are two integral channels
    with pytest.raises(ValueError):
        VarProblem(0.0, 1.0, alphas=(0.5, 0.75), betas=0.5, lagrangian="u")


def test_pins_shorthand():
    p = half_problem("v^2", pins=(0.0, 1.0))
    assert p.pins == ((0.0, 1.0),)


@pytest.mark.parametrize("pins, n, got", [
    ((0.0, None), 2, "0.0"),
    (((0.0, None, 1.0),), 1, r"\(0.0, None, 1.0\)"),
])
def test_pin_entry_must_be_a_pair(pins, n, got):
    L = "v1^2 + v2^2" if n == 2 else "v^2"
    with pytest.raises(ValueError, match=rf"pins\[0\]: expected a \(left, right\) pair, got {got}$"):
        half_problem(L, n_unknowns=n, pins=pins)
    # anything that unpacks into two values is a pair
    p = half_problem("v1^2 + v2^2", n_unknowns=2, pins=([0.0, None], iter((None, 1))))
    assert p.pins == ((0.0, None), (None, 1.0))


# ---------------------------------------------------------------- functional

def test_functional_zero_candidate(grid64):
    p = half_problem("v^2")
    assert evaluate_functional(p, np.zeros(grid64.n_nodes), grid64) == 0.0


def test_functional_zero_lagrangian(grid64):
    p = half_problem("0")
    y = np.sin(grid64.nodes)
    assert evaluate_functional(p, y, grid64) == 0.0


def test_functional_sqrt_fixture(grid1k):
    # L = v with y = sqrt(t): J -> int_0^1 Gamma(1.5) dt
    p = half_problem("v")
    J = evaluate_functional(p, np.sqrt(grid1k.nodes), grid1k)
    assert abs(J - gamma(1.5)) <= 2e-2


def test_functional_u_fixture(grid1k):
    # L = u with y = 1: J -> int_0^1 2 sqrt(x/pi) dx = Gamma(2)/Gamma(2.5)
    p = half_problem("u")
    J = evaluate_functional(p, np.ones(grid1k.n_nodes), grid1k)
    assert abs(J - 0.7522527781) <= 1e-4


def test_functional_accepts_sequences(grid64):
    p = half_problem("u + v")
    y_list = list(np.linspace(0.0, 1.0, grid64.n_nodes))
    y_arr = np.linspace(0.0, 1.0, grid64.n_nodes)
    assert evaluate_functional(p, y_list, grid64) == evaluate_functional(p, y_arr, grid64)


@pytest.mark.parametrize("k", [1, 2])
def test_sampled_fn_on_another_grid_is_rejected_in_a_sequence(k):
    # a tuple of SampledFn (a multi-unknown SolveReport.y is one) checks
    # each item's grid, as a lone SampledFn does: here the last row lives
    # on [0, 2]
    g = Grid(0.0, 1.0, 64)
    foreign = SampledFn(Grid(0.0, 2.0, 64), g.nodes)
    y = (SampledFn(g, g.nodes),) * (k - 1) + (foreign,)
    lagrangian = "v^2" if k == 1 else "v1^2 + v2^2"
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian=lagrangian, n_unknowns=k)
    pinned = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian=lagrangian,
                        n_unknowns=k, pins=((0.0, None),) * k)
    calls = [lambda: evaluate_functional(p, y, g), lambda: el_residual_general(p, y, g),
             lambda: gradient(p, y, g), lambda: minimize(pinned, g, y0=y)]
    for call in calls:
        with pytest.raises(ValueError, match="sample grid does not match"):
            call()
    # the same tuple on the evaluation grid is accepted
    y = (SampledFn(g, g.nodes),) * k
    assert evaluate_functional(p, y, g) == evaluate_functional(p, np.array([g.nodes] * k), g)


# ---------------------------------------------------------------- residuals

def test_residual_zero_for_quadratic_at_zero(grid256):
    p = half_problem("v^2/2")
    r = el_residual(p, np.zeros(grid256.n_nodes), grid256)
    assert np.all(r.values == 0.0)
    assert r.norm == 0.0


def test_residual_constant_u_lagrangian(grid1k):
    # L = u gives r = right I^{1/2} of 1 = 2 sqrt((1-x)/pi)
    p = half_problem("u")
    r = el_residual(p, np.zeros(grid1k.n_nodes), grid1k)
    exact = 2.0 * np.sqrt(1.0 - grid1k.nodes) / math.sqrt(math.pi)
    vals = r.values[0]
    assert np.max(np.abs(vals - exact)[grid1k.interior()]) <= 2e-3
    # the adjoint construction is one order worse at the first node
    assert abs(vals[0] - exact[0]) <= 1.5 * math.sqrt(grid1k.h)


def test_residual_small_at_extremal(grid1k):
    # y = sqrt(x)/Gamma(1.5) solves the problem for L = (v-1)^2
    p = half_problem("(v - 1)^2")
    y = np.sqrt(grid1k.nodes) / gamma(1.5)
    r = el_residual(p, y, grid1k)
    assert np.max(np.abs(r.values[0][grid1k.interior()])) <= 5e-2


def test_residual_noncommensurate(grid1k):
    # integral channels of orders 0.5 and 0.25 acting on one unknown
    p = VarProblem(0.0, 1.0, alphas=(0.5, 0.75), betas=0.5, lagrangian="u1 + u2")
    r = el_residual_general(p, np.zeros(grid1k.n_nodes), grid1k)
    x = grid1k.nodes
    exact = (1.0 - x) ** 0.5 / gamma(1.5) + (1.0 - x) ** 0.25 / gamma(1.25)
    assert exact[0] == pytest.approx(2.2316842, abs=2e-3)
    assert np.max(np.abs(r.values[0] - exact)[grid1k.interior()]) <= 2e-3
    # first-node defect from the two adjoints, each one order down
    budget = 1.5 * (grid1k.h**0.5 + grid1k.h**0.25)
    assert abs(r.values[0][0] - exact[0]) <= budget


def test_general_matches_basic_bitwise(grid256):
    p = half_problem("v^2 + u*v + x*u")
    rng = np.random.default_rng(3)
    y = rng.standard_normal(grid256.n_nodes)
    a = el_residual(p, y, grid256)
    b = el_residual_general(p, y, grid256)
    assert np.array_equal(a.values, b.values)
    assert a.norm == b.norm


def test_el_residual_requires_basic_shape(grid256):
    p = VarProblem(0.0, 1.0, alphas=(0.5, 0.75), betas=0.5, lagrangian="u1 + u2")
    with pytest.raises(ValueError):
        el_residual(p, np.zeros(grid256.n_nodes), grid256)


def test_two_unknowns_decoupled(grid256):
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, n_unknowns=2,
                   lagrangian="(v1 - 1)^2 + v2^2")
    y1 = np.sqrt(grid256.nodes) / gamma(1.5)
    y2 = np.zeros(grid256.n_nodes)
    r = el_residual_general(p, (y1, y2), grid256)
    assert r.values.shape == (2, grid256.n_nodes)
    assert np.max(np.abs(r.values[0][grid256.interior()])) <= 5e-2
    assert np.all(r.values[1] == 0.0)


def test_residual_values_read_only(grid64):
    p = half_problem("v^2")
    r = el_residual(p, np.zeros(grid64.n_nodes), grid64)
    with pytest.raises(ValueError):
        r.values[0, 0] = 1.0


# ---------------------------------------------------------------- constraints

def test_augmented_lagrangian_structure():
    p = half_problem("v^2", constraint=Constraint("v", 1.0))
    aug = augmented_lagrangian(p, 0.0)
    assert aug.lagrangian == parse("v^2")
    assert aug.constraint is None
    aug2 = augmented_lagrangian(p, -2.0)
    env = {"x": 0.3, "u": 0.7, "v": 1.4}
    from fracvar import evaluate

    assert evaluate(aug2.lagrangian, env) == pytest.approx(1.4**2 - 2.0 * 1.4)


def test_constraint_value_fixtures(grid1k):
    p = half_problem("v^2", constraint=Constraint("v", 1.0))
    assert constraint_value(p, np.zeros(grid1k.n_nodes), grid1k) == 0.0
    y = np.sqrt(grid1k.nodes) / gamma(1.5)
    assert abs(constraint_value(p, y, grid1k) - 1.0) <= 2e-2
    pu = half_problem("v^2", constraint=Constraint("u", 0.75))
    got = constraint_value(pu, np.ones(grid1k.n_nodes), grid1k)
    assert abs(got - 0.7522527781) <= 1e-4


def test_value_is_the_functional_and_the_constraint_value(grid1k):
    p = half_problem("v^2", constraint=Constraint("u*v + x", 0.3))
    y = np.sqrt(grid1k.nodes) / gamma(1.5)
    dp = assemble(p, grid1k)
    c = dp.channels(y[None, :])
    assert dp.value(c, constraint=True).hex() == constraint_value(p, y, grid1k).hex()
    assert dp.value(c).hex() == evaluate_functional(p, y, grid1k).hex()


def test_constraint_value_requires_constraint(grid64):
    p = half_problem("v^2")
    with pytest.raises(ValueError):
        constraint_value(p, np.zeros(grid64.n_nodes), grid64)


# ---------------------------------------------------------------- classical limit

def test_classical_limit_of_residual():
    # as the orders approach 1 the residual of the classical extremal of
    # L = (y'^2 + y^2)/2 with y(0)=0, y(1)=1 (namely sinh(x)/sinh(1)) vanishes
    g = Grid(0.0, 1.0, 512)
    y = np.sinh(g.nodes) / math.sinh(1.0)
    norms = []
    for order in (0.9, 0.99, 0.999):
        p = VarProblem(0.0, 1.0, alphas=order, betas=order,
                       lagrangian="v^2/2 + u^2/2", pins=(0.0, 1.0))
        norms.append(el_residual(p, y, g).interior_norm())
    assert norms[0] > norms[1] > norms[2]
    for got, ref in zip(norms, (0.4038, 0.04928, 0.0050294)):
        assert got == pytest.approx(ref, rel=0.05)


def test_d_channel_feeds_residual(grid256):
    # sanity: for L = v^2/2 the residual is the right-adjoint of D y
    p = half_problem("v^2/2")
    rng = np.random.default_rng(19)
    y = np.cumsum(rng.uniform(0.0, 0.1, grid256.n_nodes))
    y[0] = 0.0
    r = el_residual(p, y, grid256)
    assert r.norm > 0.0
    dvals = build_left_rlfd(grid256, 0.5).apply(y)
    assert np.isfinite(dvals).all()


# ---------------------------------------------------------------- live channels

def record_operator_work(monkeypatch):
    """Lists of the operators the problems module builds and of the kinds
    of the operators applied, filled as the calls happen."""
    built, applied = [], []

    def recording(build):
        def wrapped(*args):
            built.append(build(*args))
            return built[-1]
        return wrapped

    for name in ("build_left_rlfi", "build_left_rlfd", "build_right_adjoint"):
        build = getattr(fracvar.problems, name)
        monkeypatch.setattr(fracvar.problems, name, recording(build))
    apply = FracOperator.apply

    def applying(op, f):
        applied.append(op.kind)
        return apply(op, f)

    monkeypatch.setattr(FracOperator, "apply", applying)
    return built, applied


def test_only_live_channels_are_built_and_applied(monkeypatch):
    # (v - 1)^2 reads v alone: the RLFD and its adjoint are built, the
    # residual applies both and the functional the RLFD alone, from the
    # pair the grid kept
    built, applied = record_operator_work(monkeypatch)
    g = Grid(0.0, 1.0, 4096)
    p = half_problem("(v - 1)^2")
    y = np.sqrt(g.nodes) / gamma(1.5)
    assert np.isfinite(el_residual(p, y, g).norm)
    assert [op.kind for op in built] == [OperatorKind.LEFT_RLFD, OperatorKind.RIGHT_RLFD]
    assert applied == [OperatorKind.LEFT_RLFD, OperatorKind.RIGHT_RLFD]
    built.clear()
    applied.clear()
    assert np.isfinite(evaluate_functional(p, y, g))
    assert len(built) == 0
    assert applied == [OperatorKind.LEFT_RLFD]


def test_operators_are_built_on_first_apply(monkeypatch):
    # assembling builds nothing; the first channels call builds the live
    # RLFD pair and nothing else
    built, _ = record_operator_work(monkeypatch)
    g = Grid(0.0, 1.0, 64)
    dp = assemble(half_problem("(v - 1)^2"), g)
    assert built == []
    dp.channels(np.sqrt(g.nodes)[None, :])
    assert [op.kind for op in built] == [OperatorKind.LEFT_RLFD, OperatorKind.RIGHT_RLFD]


def test_grid_keeps_the_last_eight_problems():
    # nine orders of v^2 on one grid: eight problems are kept, an equal
    # problem gets the kept object, and the first one is evicted and rebuilt
    g = Grid(0.0, 1.0, 16)

    def problem(beta):
        return VarProblem(0.0, 1.0, alphas=0.5, betas=beta, lagrangian="v^2")

    betas = [k / 10 for k in range(1, 10)]
    first = [assemble(problem(b), g) for b in betas]
    assert len(g._problems) == 8
    assert assemble(problem(betas[-1]), g) is first[-1]
    rebuilt = assemble(problem(betas[0]), g)
    assert rebuilt is not first[0] and rebuilt.problem == first[0].problem
    assert len(g._problems) == 8
    # an equal grid is another grid: it keeps its own problems
    assert assemble(problem(betas[-1]), Grid(0.0, 1.0, 16)) is not first[-1]


def test_repeated_evaluations_assemble_and_differentiate_once(monkeypatch):
    # ten rounds of el_residual and evaluate_functional on one grid, each
    # with a fresh but equal problem: one assembly, one derivation per
    # channel (the u1 partial of an L without u1 is zero at once)
    made, derived = record_assembly_work(monkeypatch)
    g = Grid(0.0, 1.0, 4096)
    y = np.sqrt(g.nodes) / gamma(1.5)
    for _ in range(10):
        p = half_problem("(v - 1)^2")
        assert np.isfinite(el_residual(p, y, g).norm)
        assert np.isfinite(evaluate_functional(p, y, g))
    assert (len(made), derived) == (1, ["u1", "v1"])


def test_curved_pairs_leave_out_a_quotient_without_the_channel():
    # u^2/(x + 1) by v is zero itself, not the dead quotient 0/(x + 1)^2,
    # so its u partial curves (u, u) alone
    dp = assemble(half_problem("v^2 + u^2/(x + 1)"), Grid(0.0, 1.0, 16))
    assert set(dp._second_partials) == {(0, 0), (1, 1)}


def test_partial_of_an_unread_channel_is_dropped(monkeypatch):
    # 1/v differentiates by u to zero; the residual must not evaluate a
    # partial by u and pull it back through the RLFI adjoint
    built, applied = record_operator_work(monkeypatch)
    g = Grid(0.0, 1.0, 1024)
    p = half_problem("log(v) + 1/v - v")
    y = np.sqrt(g.nodes) / gamma(1.5)  # v = 1
    dp = assemble(p, g)
    assert dp.live == (False, True)
    assert dp.partials[0] is None
    assert np.isfinite(el_residual(p, y, g).norm)
    assert OperatorKind.RIGHT_RLFI not in applied
    assert OperatorKind.LEFT_RLFI not in {op.kind for op in built}


def test_constraint_keeps_its_channels_live():
    # L reads v only, the constraint reads u: the u channel is applied for
    # the constraint, and the solve matches, bit for bit, the one whose L
    # reads u through a zero term
    g = Grid(0.0, 1.0, 64)
    reports = []
    for lagrangian in ("v^2", "v^2 + 0*u"):
        p = half_problem(lagrangian, constraint=Constraint("u", 1.0), pins=(0.0, None))
        assert assemble(p, g).live == (True, True)
        reports.append(solve_isoperimetric(p, g))
    a, b = reports
    assert a.converged and b.converged
    assert a.J == pytest.approx(3.083218528005155, rel=1e-12)
    assert a.lam == pytest.approx(-6.166437056010309, rel=1e-12)
    for name in ("J", "lam", "residual_norm", "constraint_gap", "iters",
                 "linear_iters", "stop_reason"):
        assert getattr(a, name) == getattr(b, name), name
    assert np.array_equal(a.y.values, b.y.values)
    assert np.array_equal(a.history, b.history)
