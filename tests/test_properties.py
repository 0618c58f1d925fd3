"""Property tests for the exact discrete identities, the Toeplitz matvec
against direct convolution, the parse/print round trip, certify's
one-pass grid sampling against scalar evaluation, and the convexity
verdict on quadratic Lagrangians.

Sizes run from 1 to 300 cells (to 3000 for the matvec, across both of its
cutoffs), orders over the open interval (0, 1), and samples over random
node vectors.  Examples are derandomized, so every run checks the same
cases.
"""
import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fracvar import (
    Constraint,
    Grid,
    VarProblem,
    assemble,
    augmented_lagrangian,
    build_left_rlfd,
    build_left_rlfi,
    build_right_adjoint,
    check_convexity,
    el_residual,
    evaluate_functional,
    gradient,
    gradient_inequality_gap,
)
from fracvar import operators
from fracvar.certify import _MAX_INCONCLUSIVE, _sample_grid
from fracvar.expressions import (
    FUNCTIONS,
    Bin,
    Call,
    ExprError,
    Neg,
    Num,
    Var,
    differentiate,
    evaluate,
    parse,
    simplify,
    to_string,
)

from helpers import random_expr

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

cells = st.integers(min_value=1, max_value=300)
orders = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
# VarProblem rejects an alpha whose complement 1 - alpha rounds to 1
alphas = orders.filter(lambda a: 1.0 - a < 1.0)
coefficients = st.floats(min_value=-2.0, max_value=2.0).map(lambda c: round(c, 3))


def node_values(n_nodes: int):
    return arrays(float, n_nodes, elements=st.floats(min_value=-10.0, max_value=10.0))


@st.composite
def grid_and_samples(draw):
    g = Grid(0.0, 1.0, draw(cells))
    return g, draw(node_values(g.n_nodes)), draw(node_values(g.n_nodes))


@PROPERTY
@given(grid_and_samples(), orders, st.sampled_from((build_left_rlfi, build_left_rlfd)))
def test_integration_by_parts(case, order, build):
    # <g, L f>_w == <f, R g>_w with R the quadrature adjoint of L
    g, f, h = case
    op = build(g, order)
    adj = build_right_adjoint(op)
    w = g.quad_weights
    lhs = float(w @ (op.apply(f) * h))
    rhs = float(w @ (f * adj.apply(h)))
    scale = float(w @ ((np.abs(op.coeffs) @ np.abs(f)) * np.abs(h)))
    assert abs(lhs - rhs) <= 1e-12 * scale


@PROPERTY
@given(grid_and_samples(), alphas, orders, st.lists(coefficients, min_size=6, max_size=6))
def test_gradient_identity_quadratic(case, alpha, beta, c):
    # for L quadratic in (u, v) the functional is quadratic in the node
    # values, so a central difference of any step recovers <gradient, d>
    g, y, d = case
    lagrangian = (
        f"({c[0]}) + ({c[1]})*u + ({c[2]})*v"
        f" + ({c[3]})*u^2 + ({c[4]})*u*v + ({c[5]})*v^2"
    )
    p = VarProblem(0.0, 1.0, alphas=alpha, betas=beta, lagrangian=lagrangian)
    grad = gradient(p, y, g)
    assert np.array_equal(grad, g.quad_weights * el_residual(p, y, g).values[0])
    j_plus = evaluate_functional(p, y + d, g)
    j_minus = evaluate_functional(p, y - d, g)
    scale = 1.0 + abs(j_plus) + abs(j_minus) + float(np.abs(grad) @ np.abs(d))
    assert abs((j_plus - j_minus) / 2.0 - float(grad @ d)) <= 1e-11 * scale


# ------------------------------------------------ the lower Toeplitz matvec

matvec_sizes = st.integers(min_value=1, max_value=3000)
kernels = st.sampled_from((build_left_rlfi, build_left_rlfd))
# the sizes on both sides of the triangle side and of the direct cutoff,
# a size one past a block multiple, the first size with a second level and
# one whose last group of blocks holds several, but not all
EDGES = (operators._TRI, operators._TRI + 1, operators._LEAF, operators._LEAF + 1, 3000,
         2**12 + 1, operators._BLOCK * operators._SPAN + 1, 20000)


def kernel_and_samples(n, order, build, seed):
    t = build(Grid(0.0, 1.0, n), order)._kernel
    return t, np.random.default_rng(seed).standard_normal(n)


@PROPERTY
@given(matvec_sizes, orders, kernels, st.integers(0, 2**32 - 1))
@example(EDGES[0], 0.5, build_left_rlfi, 1)
@example(EDGES[1], 0.5, build_left_rlfd, 2)
@example(EDGES[2], 0.5, build_left_rlfi, 3)
@example(EDGES[3], 0.5, build_left_rlfd, 4)
@example(EDGES[4], 0.5, build_left_rlfi, 5)
@example(EDGES[5], 0.3, build_left_rlfd, 9)
@example(EDGES[6], 0.7, build_left_rlfi, 10)
@example(EDGES[7], 0.2, build_left_rlfd, 13)
def test_lower_toeplitz_matches_direct_convolution(n, order, build, seed):
    # round-off within 1e-13 of the largest sum of |terms| over an output
    t, x = kernel_and_samples(n, order, build, seed)
    got = operators._lower_toeplitz(t, x, {})
    want = np.convolve(t[:n], x)[:n]
    scale = float(np.max(np.convolve(np.abs(t[:n]), np.abs(x))[:n]))
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


bumps = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from((np.nan, np.inf, -np.inf)))


@PROPERTY
@given(matvec_sizes, orders, kernels, st.integers(0, 2**32 - 1), st.integers(0, 2999), bumps)
@example(3000, 0.5, build_left_rlfd, 6, 700, np.nan)
@example(EDGES[3], 0.5, build_left_rlfi, 7, operators._TRI, np.inf)
@example(EDGES[3], 0.5, build_left_rlfi, 8, operators._LEAF, 1e308)
@example(EDGES[5], 0.5, build_left_rlfd, 11, 2**11 + 5, np.nan)
@example(EDGES[6], 0.5, build_left_rlfi, 12, 3 * operators._BLOCK * operators._RADIX + 5, -np.inf)
def test_lower_toeplitz_is_causal(n, order, build, seed, j, bump):
    # setting sample j to any value, finite or not, leaves every output
    # before j bit-identical, on cold and warm kernel transforms
    t, x = kernel_and_samples(n, order, build, seed)
    j %= n
    spectra = {}
    base = operators._lower_toeplitz(t, x, spectra)
    x[j] = bump
    with np.errstate(over="ignore", invalid="ignore"):
        warm = operators._lower_toeplitz(t, x, spectra)
        cold = operators._lower_toeplitz(t, x)
    assert warm[:j].tobytes() == base[:j].tobytes()
    assert cold[:j].tobytes() == base[:j].tobytes()


# smooth in u and v, with curvature that varies and u-u, u-v and v-v terms
NONQUADRATIC = "v^2 + v^4/8 + u*v + u^2*v/2 + cos(u)"


def smooth_samples(x: np.ndarray, c) -> np.ndarray:
    return c[0] + c[1] * x + c[2] * x**2 + c[3] * np.sin(3.0 * x)


@PROPERTY
@given(cells, alphas, orders, st.lists(coefficients, min_size=8, max_size=8))
def test_hessian_product_matches_gradient_differences(n, alpha, beta, c):
    # H d is the derivative of the gradient in the direction d; for this L
    # a central difference with step 1e-5 is exact to about 1e-8
    g = Grid(0.0, 1.0, n)
    p = VarProblem(0.0, 1.0, alphas=alpha, betas=beta, lagrangian=NONQUADRATIC)
    y = smooth_samples(g.nodes, c[:4])
    d = smooth_samples(g.nodes, c[4:])
    dp = assemble(p, g)
    hd = dp.hessian_product(dp.curvature(dp.channels(y[None, :])), d[None, :])[0]
    eps = 1e-5
    fd = (gradient(p, y + eps * d, g) - gradient(p, y - eps * d, g)) / (2.0 * eps)
    assert np.max(np.abs(hd - fd)) <= 1e-6 * (1.0 + np.max(np.abs(fd)))


# (L, g): a pair curved by L alone, one curved by g alone, one by both
CONSTRAINED = [("v^2 + u*v", "v^2"), ("v^2", "u*v"), ("v^2 + u*v", "v^2 + u^2*v")]


@PROPERTY
@given(cells, alphas, orders, st.floats(min_value=-3.0, max_value=3.0),
       st.sampled_from(CONSTRAINED), st.lists(coefficients, min_size=8, max_size=8))
def test_constrained_derivatives_are_those_of_the_augmented_lagrangian(
        n, alpha, beta, lam, lg, c):
    # one problem carries L and g: its curvature at lam and r_L + lam r_g
    # are the Hessian and residual of the problem whose L is L + lam g
    g = Grid(0.0, 1.0, n)
    L, con = lg
    p = VarProblem(0.0, 1.0, alphas=alpha, betas=beta, lagrangian=L,
                   constraint=Constraint(con, 0.3))
    y = smooth_samples(g.nodes, c[:4])[None, :]
    d = smooth_samples(g.nodes, c[4:])[None, :]
    dp = assemble(p, g)
    aug = assemble(augmented_lagrangian(p, lam), g)
    ch = dp.channels(y)
    hd = dp.hessian_product(dp.curvature(ch, lam), d)
    want = aug.hessian_product(aug.curvature(aug.channels(y)), d)
    assert np.max(np.abs(hd - want)) <= 1e-12 * np.max(np.abs(want))
    r = dp._residual_from(ch) + lam * dp._residual_from(ch, constraint=True)
    want = aug.residual_values(y)
    assert np.max(np.abs(r - want)) <= 1e-12 * np.max(np.abs(want))


# parser-shaped trees: the parser reads literals without a sign, so every
# negation is an explicit Neg node
literals = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
leaves = st.one_of(st.builds(Num, literals),
                   st.builds(Var, st.sampled_from(("x", "u", "v", "u1", "v2"))))
parser_shaped = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.builds(Neg, kids),
        st.builds(Call, st.sampled_from(FUNCTIONS), kids),
        st.builds(Bin, st.sampled_from(("+", "-", "*", "/", "^")), kids, kids),
    ),
    max_leaves=12,
)


@settings(PROPERTY, max_examples=300)
@given(parser_shaped)
def test_parse_inverts_to_string(e):
    assert parse(to_string(e)) == e


@settings(PROPERTY, max_examples=300)
@given(parser_shaped)
def test_to_string_fixpoint_on_simplified(e):
    # simplify folds negations into negative literals, which reparse as
    # Neg(Num): the tree changes, its printed form must not
    printed = to_string(simplify(e))
    assert to_string(parse(printed)) == printed


# ------------------------------------------- certify's one-pass grid sampling

def scalar_samples(expr, env, shape, inconclusive, coords):
    """The oracle for _sample_grid: one scalar evaluate per grid point, NaN
    and a logged point where it raises, unless that point is logged already."""
    flat = {k: np.broadcast_to(val, shape).ravel() for k, val in env.items()}
    out = np.full(int(np.prod(shape)), np.nan)
    for i in range(out.size):
        try:
            out[i] = evaluate(expr, {k: float(val[i]) for k, val in flat.items()})
        except ExprError:
            point = tuple(float(flat[k][i]) for k in coords)
            if len(inconclusive) < _MAX_INCONCLUSIVE and point not in inconclusive:
                inconclusive.append(point)
    return out.reshape(shape)


def assert_samples_as_scalar(expr, box, s, logged):
    X, U, V = np.meshgrid(*(np.linspace(lo, lo + width, s) for lo, width in box),
                          indexing="ij")
    env = {"x": X, "u": U, "v": V}
    got, want = [(0.0, 0.0, 0.0)] * logged, [(0.0, 0.0, 0.0)] * logged
    out = _sample_grid(expr, env, X.shape, got, ("x", "u", "v"))
    ref = scalar_samples(expr, env, X.shape, want, ("x", "u", "v"))
    assert np.array_equal(np.isnan(out), np.isnan(ref))
    assert np.array_equal(out[~np.isnan(ref)], ref[~np.isnan(ref)])
    assert got == want


# (lo, width) per axis; the boxes often straddle 0, so log, sqrt and
# division fail at some grid points
boxes = st.lists(st.tuples(st.floats(-3.0, 1.0), st.floats(0.1, 4.0)), min_size=3, max_size=3)
logged = st.integers(0, _MAX_INCONCLUSIVE)


@settings(PROPERTY, max_examples=300)
@given(st.integers(0, 2**32 - 1), boxes, st.integers(3, 7), logged)
def test_sample_grid_matches_scalar_evaluation(seed, box, s, n_logged):
    rng = np.random.default_rng(seed)
    assert_samples_as_scalar(random_expr(rng, int(rng.integers(1, 6))), box, s, n_logged)


# the Lagrangians of the certify tests and of the certify benchmark
CERTIFY_LAGRANGIANS = ("log(v)", "v^2 - log(v + 2)", "v^2", "-(v^2)", "u^2 + u*v + v^2", "u*v")


@PROPERTY
@given(st.sampled_from(CERTIFY_LAGRANGIANS), boxes, st.integers(3, 9), logged)
@example("log(v)", [(0.0, 1.0), (-1.0, 2.0), (-1.0, 2.0)], 5, 0)
@example("v^2 - log(v + 2)", [(0.0, 1.0), (-1.0, 2.0), (-1.0, 2.0)], 9, 0)
# log(v) fails at the point (0, 0, 0) the list starts with
@example("log(v)", [(0.0, 1.0), (-1.0, 2.0), (-1.0, 2.0)], 3, 2)
def test_sample_grid_matches_scalar_on_certify_lagrangians(L, box, s, n_logged):
    # L and every partial check_convexity samples
    L = parse(L)
    Lu, Lv = differentiate(L, "u"), differentiate(L, "v")
    for e in (L, Lu, Lv, differentiate(Lu, "u"), differentiate(Lu, "v"), differentiate(Lv, "v")):
        assert_samples_as_scalar(e, box, s, n_logged)


# ------------------------------------------ the convexity verdict on quadratics

@PROPERTY
@given(coefficients, coefficients, coefficients, coefficients, coefficients)
def test_convexity_verdict_is_exact_on_quadratics(a, b, c, d, e):
    # L is jointly convex in (u, v) exactly when [[a, b/2], [b/2, c]] is
    # positive definite; eigenvalues within 0.05 of zero are left out, since
    # a sampled test cannot resolve them
    lam_min = float(np.linalg.eigvalsh([[a, b / 2], [b / 2, c]])[0])
    assume(abs(lam_min) >= 0.05)
    L = f"({a})*u^2 + ({b})*u*v + ({c})*v^2 + ({d})*x*u + ({e})*v"
    rep = check_convexity(L, ((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)))
    assert rep.convex == (lam_min > 0)
    if not rep.convex:
        # the violation may be 0 when a narrow negative cone falls between
        # the sampled and searched directions; the Hessian test still fails
        ce = rep.counterexample
        gap = gradient_inequality_gap(L, ce.x, ce.u, ce.v, ce.du, ce.dv)
        assert abs(gap - ce.violation) <= 1e-9
