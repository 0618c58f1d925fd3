"""Convexity certificates, the excess function, and exact-field verification."""
import warnings

import numpy as np
import pytest

import fracvar.certify
import fracvar.problems
from fracvar import (
    ExactField,
    Grid,
    SampledFn,
    check_convexity,
    check_field,
    excess,
    gamma,
    gradient_inequality_gap,
    verify_field_minimizer,
)

BOX = ((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))
UNIT = ((0.0, 1.0), (-1.0, 1.0))


# ---------------------------------------------------------------- convexity

def test_convex_quadratic():
    rep = check_convexity("v^2", BOX)
    assert rep.convex
    assert rep.counterexample is None


def test_concave_quadratic_with_counterexample():
    rep = check_convexity("-(v^2)", BOX)
    assert not rep.convex
    ce = rep.counterexample
    assert ce is not None and ce.violation < 0.0
    # re-evaluating the gradient inequality at the stored point reproduces it
    gap = gradient_inequality_gap("-(v^2)", ce.x, ce.u, ce.v, ce.du, ce.dv)
    assert gap == pytest.approx(ce.violation, abs=1e-9)


def test_hessian_search_counterexample():
    # the sampled gradient inequality holds to within tolerance, so only the
    # Hessian cross-check flags v^4 - 0.01*v^2 and the increment search at
    # its Hessian-negative point finds the counterexample
    L = "v^4 - 0.01*v^2"
    rep = check_convexity(L, BOX)
    assert not rep.convex
    ce = rep.counterexample
    assert (ce.x, ce.u, ce.v, ce.dv) == (0.0, -1.0, 0.0, 0.0625)
    assert ce.violation == -2.38037109375e-05
    assert all(type(getattr(ce, f)) is float for f in ("x", "u", "v", "du", "dv", "violation"))
    assert gradient_inequality_gap(L, ce.x, ce.u, ce.v, ce.du, ce.dv) == ce.violation


@pytest.mark.parametrize("L", ["v^2", "v^4 - v^2/100"])
def test_check_convexity_derives_each_partial_once(L, monkeypatch):
    # by the solver's rule: Lv, then Lvv from it; L reads no u, so no u
    # partial is derived.  v^4 - v^2/100 also runs the Hessian search,
    # which reads L, Lu and Lv from the samples
    derived = []
    differentiate = fracvar.problems.differentiate

    def counting(e, name):
        derived.append(name)
        return differentiate(e, name)

    monkeypatch.setattr(fracvar.problems, "differentiate", counting)
    monkeypatch.setattr(fracvar.certify, "differentiate", counting)
    rep = check_convexity(L, BOX)
    assert rep.convex is (L == "v^2")
    assert derived == ["v", "v"]


@pytest.mark.parametrize("L", ["v^2", "u^2 + u*v + v^2"])
@pytest.mark.parametrize("s", [5, 9])
def test_check_convexity_samples_six_expressions_on_one_grid(L, s, monkeypatch):
    # L, Lu, Lv, Luu, Luv and Lvv, each once on the (x, u, v) grid; a partial
    # the derivation rule drops is sampled as zeros
    shapes = []
    sample_grid = fracvar.certify._sample_grid

    def counting(expr, env, shape, inconclusive, coords):
        shapes.append(shape)
        return sample_grid(expr, env, shape, inconclusive, coords)

    monkeypatch.setattr(fracvar.certify, "_sample_grid", counting)
    assert check_convexity(L, BOX, s).convex
    assert shapes == [(s, s, s)] * 6


def test_partials_by_unread_channels_are_zero():
    # x^x reads neither u nor v, so both partials are zero; derived by the
    # power rule they would hold a 0/x, undefined at x = 0
    rep = check_convexity("x^x", BOX)
    assert rep.convex
    assert rep.inconclusive == ()


def test_hessian_search_without_a_finite_gap_keeps_a_zero_increment():
    # L is defined only on a disc of radius 1e-15 about u = v = 0, where its
    # Hessian is negative, so every searched increment leaves the domain
    rep = check_convexity("sqrt(1e-30 - u^2 - v^2)", BOX, 5)
    assert not rep.convex
    ce = rep.counterexample
    assert (ce.u, ce.v, ce.du, ce.dv, ce.violation) == (0.0, 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("L", ["-(v1^2)", "-(w^2)"])
def test_unknown_name_is_an_error_not_inconclusive(L):
    with pytest.raises(ValueError, match=r"L may use only x, u and v, found \['(v1|w)'\]"):
        check_convexity(L, BOX)
    with pytest.raises(ValueError, match="L may use only x, u and v"):
        check_field(L, ExactField(phi="1", s_fn="y - x/2", box=UNIT))
    g = Grid(0.0, 1.0, 8)
    with pytest.raises(ValueError, match="L may use only x, u and v"):
        verify_field_minimizer(L, ExactField(phi="1", s_fn="y - x/2", box=UNIT),
                               SampledFn(g, g.nodes), 0.5, g)


def test_convex_cross_term():
    # Hessian [[2,1],[1,2]] has eigenvalues 1 and 3
    assert check_convexity("u^2 + u*v + v^2", BOX).convex


def test_indefinite_cross_term():
    assert not check_convexity("u*v", BOX).convex


def test_convexity_monotone_in_box():
    wide = ((0.0, 1.0), (-2.0, 2.0), (-2.0, 2.0))
    narrow = ((0.0, 1.0), (-0.5, 0.5), (-0.5, 0.5))
    L = "u^2 + u*v + v^2"
    assert check_convexity(L, wide).convex
    assert check_convexity(L, narrow).convex


def test_domain_failures_are_inconclusive_not_violations():
    box = ((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))
    rep = check_convexity("log(v)", box, samples_per_axis=5)
    assert len(rep.inconclusive) > 0
    assert len(rep.inconclusive) <= 16


def test_no_conclusive_sample_is_not_convex():
    # -1 - v^2 < 0, so L is undefined at every sample and every gradient
    # inequality is inconclusive: that certifies nothing
    rep = check_convexity("log(-1 - v^2)", BOX)
    assert not rep.convex
    assert rep.counterexample is None
    assert len(rep.inconclusive) == 16


def test_inconclusive_points_are_distinct():
    # 1/v and its partial in v both fail at v = 0; each point is logged once
    rep = check_convexity("1/v", ((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)))
    assert len(rep.inconclusive) == 16
    assert len(set(rep.inconclusive)) == 16


def test_samples_per_axis_validation():
    with pytest.raises(ValueError):
        check_convexity("v^2", BOX, samples_per_axis=2)


@pytest.mark.parametrize("s", [9.7, "9", True, np.float64(9.0)])
def test_samples_per_axis_must_be_an_integer(s):
    with pytest.raises(ValueError, match="samples_per_axis must be an integer"):
        check_convexity("v^2", BOX, samples_per_axis=s)


def test_samples_per_axis_accepts_numpy_integers():
    rep = check_convexity("v^2", BOX, samples_per_axis=np.int64(5))
    assert rep.convex
    assert type(rep.samples_per_axis) is int and rep.samples_per_axis == 5


def test_boxes_are_validated():
    # a convexity box needs three (lo, hi) pairs and a field box two, each
    # finite with lo < hi
    with pytest.raises(ValueError, match=r"^box needs 3 \(lo, hi\) pairs, got 2$"):
        check_convexity("v^2", UNIT)
    with pytest.raises(ValueError, match=r"^field box bounds must be finite with lo < hi, got \(1\.0, 1\.0\)$"):
        ExactField(phi="1", s_fn="y", box=((1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(ValueError, match=r"^field box bounds must be finite with lo < hi, got \(-1\.0, inf\)$"):
        ExactField(phi="1", s_fn="y", box=((0.0, 1.0), (-1.0, np.inf)))


# ---------------------------------------------------------------- excess

def test_excess_collapses_at_equal_slopes():
    for L in ("v^2", "sin(v)", "u*v + v^2"):
        assert excess(L, 0.3, 0.7, 1.1, 1.1) == pytest.approx(0.0, abs=1e-14)


def test_excess_quadratic_values():
    assert excess("v^2", 0.0, 0.0, 0.0, 3.0) == pytest.approx(9.0)
    assert excess("v^2", 0.0, 0.0, 1.0, 3.0) == pytest.approx(4.0)  # 9 - 1 - 2*2


def test_excess_nonnegative_for_convex_integrand():
    zs = np.linspace(-1.0, 1.0, 100)
    ws = np.linspace(-1.0, 1.0, 100)
    for L in ("v^2", "u^2 + u*v + v^2"):
        vals = np.array([[excess(L, 0.5, 0.25, z, w) for w in ws] for z in zs])
        assert vals.min() >= -1e-9


def test_excess_negative_for_concave_integrand():
    assert excess("-(v^2)", 0.0, 0.0, 0.0, 1.0) < 0.0


def test_excess_accepts_arrays():
    x, u, z, w = np.random.default_rng(5).uniform(-1.0, 1.0, (4, 7))
    for L in ("v^2", "u*v + x*v^2", "sin(v) - u^2"):
        E = excess(L, x, u, z, w)
        assert isinstance(E, np.ndarray) and E.shape == (7,)
        scalar = [excess(L, *point) for point in zip(x, u, z, w)]
        np.testing.assert_allclose(E, scalar, rtol=1e-14, atol=1e-15)
    assert type(excess("v^2", 0.0, 0.0, 1.0, 3.0)) is float


# ---------------------------------------------------------------- exact fields

def halfx_field():
    return ExactField(phi="1", s_fn="y - x/2", box=UNIT)


def test_check_field_passes_reference():
    rep = check_field("v^2/2", halfx_field())
    assert rep.passed
    assert rep.max_residual_slope <= 1e-8
    assert rep.max_residual_momentum <= 1e-8


def test_check_field_flags_bad_potential():
    rep = check_field("v^2/2", ExactField(phi="1", s_fn="y", box=UNIT))
    assert not rep.passed
    assert rep.max_residual_slope == pytest.approx(0.5, abs=1e-9)


def test_check_field_zero_field():
    assert check_field("v^2/2", ExactField(phi="0", s_fn="0", box=UNIT)).passed


def test_field_expressions_validated():
    with pytest.raises(ValueError):
        ExactField(phi="u + 1", s_fn="y", box=UNIT)  # only x and y allowed


def test_field_construction_differentiates_nothing():
    # y^x differentiates by the exp/log rewrite, which warns; building the
    # field must not, only check_field's derivatives of s_fn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ExactField(phi="y^x", s_fn="y", box=((0, 1), (0.5, 1)))
    field = ExactField(phi="1", s_fn="y^x", box=((0, 1), (0.5, 1)))
    with pytest.warns(UserWarning, match="exp/log rewrite"):
        check_field("v^2/2", field)


def test_verify_field_minimizer_reference():
    g = Grid(0.0, 1.0, 1024)
    y0 = SampledFn(g, np.sqrt(g.nodes) / gamma(1.5))
    rep = verify_field_minimizer("v^2/2", halfx_field(), y0, 0.5, g)
    assert rep.trajectory
    assert rep.residual_norm <= rep.field_tol
    assert rep.J == pytest.approx(0.5, abs=1e-2)
    assert rep.field_value == pytest.approx(0.5, abs=1e-2)
    assert abs(rep.gap) <= 1e-2
    assert rep.min_excess >= -1e-9


def test_verify_field_minimizer_scaled():
    g = Grid(0.0, 1.0, 1024)
    y0 = SampledFn(g, 2.0 * np.sqrt(g.nodes) / gamma(1.5))
    field = ExactField(phi="2", s_fn="2*y - 2*x", box=((0.0, 1.0), (-1.0, 3.0)))
    rep = verify_field_minimizer("v^2/2", field, y0, 0.5, g)
    assert rep.trajectory
    assert rep.J == pytest.approx(2.0, abs=4e-2)
    assert abs(rep.gap) <= 4e-2


def test_verify_field_minimizer_reuses_the_kept_problem():
    # each call builds a fresh but equal problem; the grid keeps the first
    g = Grid(0.0, 1.0, 256)
    y0 = SampledFn(g, np.sqrt(g.nodes) / gamma(1.5))
    reports = [verify_field_minimizer("v^2/2", halfx_field(), y0, 0.5, g) for _ in range(3)]
    assert len(g._problems) == 1
    assert reports[0] == reports[1] == reports[2]


def test_verify_field_rejects_non_trajectory():
    g = Grid(0.0, 1.0, 256)
    y0 = SampledFn(g, np.zeros(g.n_nodes))
    rep = verify_field_minimizer("v^2/2", halfx_field(), y0, 0.5, g)
    assert not rep.trajectory
    assert rep.residual_norm == pytest.approx(1.0, abs=0.1)


def test_comparison_against_bumped_competitors():
    # competitors sharing the integral-channel endpoint value cannot beat
    # the field trajectory by more than discretization noise
    from fracvar import VarProblem, build_left_rlfi, evaluate_functional

    g = Grid(0.0, 1.0, 256)
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="v^2/2")
    y0 = np.sqrt(g.nodes) / gamma(1.5)
    J0 = evaluate_functional(p, y0, g)
    I_op = build_left_rlfi(g, 0.5)
    Ix_end = I_op.apply(g.nodes.copy())[-1]
    rng = np.random.default_rng(12)
    for _ in range(20):
        freq = rng.integers(1, 6)
        bump = np.sin(np.pi * freq * g.nodes) * rng.uniform(0.05, 0.4)
        bump[0] = 0.0
        # shift by a multiple of x so the competitor keeps I y(b) unchanged
        c = I_op.apply(bump)[-1] / Ix_end
        bump = bump - c * g.nodes
        J = evaluate_functional(p, y0 + bump, g)
        assert J >= J0 - 5e-2
