"""Grid layout, trapezoid weights, sampling, and the weighted norm."""
import math

import numpy as np
import pytest

from fracvar import (
    Grid, SampledFn, SolveConfig, VarProblem, check_convexity, sample, weighted_norm,
)


def test_node_layout():
    g = Grid(0.0, 2.0, 8)
    assert g.n_nodes == 9
    assert g.h == pytest.approx(0.25)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.0
    assert np.allclose(np.diff(g.nodes), g.h)


def test_weights_sum_to_length():
    for a, b, n in ((0.0, 1.0, 64), (-1.5, 2.5, 313), (0.0, 10.0, 7)):
        g = Grid(a, b, n)
        assert abs(g.quad_weights.sum() - (b - a)) <= 1e-12 * (b - a)


def test_trapezoid_pattern_and_linear_exactness():
    g = Grid(0.0, 1.0, 10)
    w = g.quad_weights
    assert w[0] == pytest.approx(g.h / 2) and w[-1] == pytest.approx(g.h / 2)
    assert np.allclose(w[1:-1], g.h)
    # trapezoid integrates affine functions exactly
    f = 3.0 * g.nodes - 1.25
    assert w @ f == pytest.approx(3.0 / 2 - 1.25, abs=1e-14)


def test_weighted_norm_matches_manual():
    g = Grid(0.0, 1.0, 32)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(g.n_nodes)
    assert weighted_norm(g, v) == pytest.approx(
        float(np.sqrt(g.quad_weights @ v**2)), rel=1e-14
    )


def test_weighted_norm_of_huge_finite_values_is_finite():
    # the squares of 1e160 overflow; the norm itself is 1e160
    g = Grid(0.0, 1.0, 32)
    assert weighted_norm(g, np.full(33, 1e160)) == pytest.approx(1e160, rel=1e-15)
    v = np.full(33, 1e160)
    v[5] = np.inf
    assert weighted_norm(g, v) == np.inf
    v[6] = np.nan
    assert np.isnan(weighted_norm(g, v))


def test_sample_and_readonly_values():
    g = Grid(0.0, 1.0, 16)
    sf = sample(g, np.sin)
    assert isinstance(sf, SampledFn)
    assert np.array_equal(sf.values, np.sin(g.nodes))
    with pytest.raises(ValueError):
        sf.values[0] = 99.0


def test_sample_falls_back_to_scalar_calls():
    # math.sqrt takes no array, and a callable returning one number per
    # call has the wrong shape for the nodes; both are called per node
    g = Grid(0.0, 1.0, 16)
    assert np.array_equal(sample(g, math.sqrt).values, np.sqrt(g.nodes))
    assert np.array_equal(sample(g, lambda x: 2.0).values, np.full(17, 2.0))


def test_interior_margin():
    g = Grid(0.0, 1.0, 64)
    sl = g.interior()
    assert sl == slice(4, 61)  # default margin n_cells // 16
    # tiny grid still strips at least one node each side
    assert Grid(0.0, 1.0, 4).interior() == slice(1, 4)
    # the margin is not a parameter
    with pytest.raises(TypeError):
        g.interior(1.9)


# every count of the package, read back from the object it configures
COUNTS = {
    "n_cells": lambda n: Grid(0.0, 1.0, n).n_cells,
    "n_unknowns": lambda n: VarProblem(0.0, 1.0, 0.5, 0.5, "v1^2", n_unknowns=n).n_unknowns,
    "max_iters": lambda n: SolveConfig(max_iters=n).max_iters,
    "samples_per_axis": lambda n: check_convexity(
        "v^2", ((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), samples_per_axis=n).samples_per_axis,
}


@pytest.mark.parametrize("name", COUNTS)
@pytest.mark.parametrize("n", [2.7, 5.0, True, "5"])
def test_counts_are_integers(name, n):
    # no count truncates a float or reads a bool as 1
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        COUNTS[name](n)


@pytest.mark.parametrize("name", COUNTS)
def test_counts_accept_numpy_integers(name):
    got = COUNTS[name](np.int64(5))
    assert type(got) is int and got == 5


@pytest.mark.parametrize("name", COUNTS)
def test_counts_must_reach_their_floor(name):
    lo = 3 if name == "samples_per_axis" else 1
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        COUNTS[name](lo - 1)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Grid(1.0, 1.0, 8)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        SampledFn(Grid(0.0, 1.0, 4), np.zeros(3))
