"""Property tests for the exact discrete identities and the parse/print
round trip.

Sizes run from 1 to 300 cells, orders over the open interval (0, 1), and
samples over random node vectors.  Examples are derandomized, so every run
checks the same cases.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fracvar import (
    Grid,
    VarProblem,
    assemble,
    build_left_rlfd,
    build_left_rlfi,
    build_right_adjoint,
    el_residual,
    evaluate_functional,
    gradient,
)
from fracvar.expressions import FUNCTIONS, Bin, Call, Neg, Num, Var, parse, simplify, to_string

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
