"""Discrete fractional operators: oracles, convergence, adjoints, structure."""
import math
import tracemalloc

import numpy as np
import pytest

import fracvar.problems
from fracvar import operators
from fracvar import (
    FracOperator,
    FracOrder,
    Grid,
    OperatorKind,
    SampledFn,
    VarProblem,
    build_left_rlfd,
    build_left_rlfi,
    build_right_adjoint,
    build_right_rlfd,
    build_right_rlfi,
    el_residual,
    evaluate_functional,
    gamma,
    gradient,
)
from helpers import (dense_adjoint, dense_left_rlfd, dense_left_rlfi, dense_mirror, levels,
                     record_kernel_transforms)

SQRT_PI = math.sqrt(math.pi)


def fit_order(ns, errs):
    """Least-squares slope of log(err) against log(h)."""
    return float(np.polyfit(np.log([1.0 / n for n in ns]), np.log(errs), 1)[0])


# ---------------------------------------------------------------- left RLFI

def test_rlfi_constant_oracle(grid1k, rlfi_half_1k):
    # I^{1/2} of 1 is 2*sqrt(x/pi); piecewise-linear data is integrated exactly
    got = rlfi_half_1k.apply(np.ones(grid1k.n_nodes))
    exact = 2.0 * np.sqrt(grid1k.nodes) / SQRT_PI
    assert np.max(np.abs(got - exact)) <= 1e-5
    assert abs(got[-1] - 1.1283791671) <= 1e-6


def test_rlfi_linear_oracle(grid1k, rlfi_half_1k):
    got = rlfi_half_1k.apply(grid1k.nodes.copy())
    assert abs(got[-1] - 0.7522527781) <= 1e-6  # Gamma(2)/Gamma(2.5)


def test_rlfi_sqrt_oracle(grid256):
    op = build_left_rlfi(grid256, 0.5)
    got = op.apply(np.sqrt(grid256.nodes))
    exact = gamma(1.5) * grid256.nodes  # I^{1/2} t^{1/2} = Gamma(1.5) t
    assert np.max(np.abs(got - exact)) <= 1e-3


def test_rlfi_zero_input(grid256):
    op = build_left_rlfi(grid256, 0.3)
    assert np.all(op.apply(np.zeros(grid256.n_nodes)) == 0.0)


# ---------------------------------------------------------------- left RLFD

def test_rlfd_sqrt_oracle(grid1k, rlfd_half_1k):
    # D^{1/2} sqrt(t) = Gamma(1.5), a constant
    got = rlfd_half_1k.apply(np.sqrt(grid1k.nodes))
    rel = np.abs(got[grid1k.interior()] - gamma(1.5)) / gamma(1.5)
    assert np.max(rel) <= 2e-2


def test_rlfd_constant_oracle(grid256):
    op = build_left_rlfd(grid256, 0.5)
    got = op.apply(np.ones(grid256.n_nodes))
    exact = 1.0 / (SQRT_PI * np.sqrt(grid256.nodes[1:]))
    rel = np.abs(got[1:] - exact) / exact
    assert rel[-1] <= 2e-2  # endpoint value 1/sqrt(pi) = 0.5641895835
    assert np.max(rel[grid256.interior()]) <= 2e-2


def test_rlfd_constant_blows_up_near_left_end():
    # the derivative of a constant is (x-a)^(-beta)/Gamma(1-beta): unbounded
    beta = 0.5
    vals = []
    for n in (128, 256, 512, 1024):
        g = Grid(0.0, 1.0, n)
        vals.append(build_left_rlfd(g, beta).apply(np.ones(g.n_nodes))[1])
    ratios = np.array(vals[1:]) / np.array(vals[:-1])
    assert np.all(np.diff(vals) > 0)
    assert np.all(np.abs(ratios - 2.0**beta) <= 0.2 * 2.0**beta)


# ---------------------------------------------------------------- convergence

def test_rlfi_convergence_order_smooth_monomials():
    ns = (128, 256, 512, 1024)
    for nu in (2.0, 3.0):
        errs = []
        for n in ns:
            g = Grid(0.0, 1.0, n)
            got = build_left_rlfi(g, 0.5).apply(g.nodes**nu)
            exact = gamma(nu + 1.0) / gamma(nu + 1.5)
            errs.append(abs(got[-1] - exact))
        assert fit_order(ns, errs) >= 1.8


def test_rlfi_exact_on_piecewise_linear():
    g = Grid(0.0, 1.0, 128)
    got = build_left_rlfi(g, 0.5).apply(g.nodes.copy())
    exact = gamma(2.0) / gamma(2.5) * g.nodes**1.5
    assert np.max(np.abs(got - exact)) <= 1e-12


def test_rlfi_convergence_order_sqrt():
    # the kernel-singularity pairing caps the rate near 1.5 for t^{1/2} data
    ns = (128, 256, 512, 1024)
    errs = []
    for n in ns:
        g = Grid(0.0, 1.0, n)
        got = build_left_rlfi(g, 0.5).apply(np.sqrt(g.nodes))
        errs.append(abs(got[-1] - gamma(1.5)))
    assert fit_order(ns, errs) >= 1.4


def test_rlfd_convergence_order():
    ns = (128, 256, 512, 1024)
    for nu in (1.0, 2.0):
        errs = []
        for n in ns:
            g = Grid(0.0, 1.0, n)
            got = build_left_rlfd(g, 0.5).apply(g.nodes**nu)
            exact = gamma(nu + 1.0) / gamma(nu + 0.5)
            errs.append(abs(got[-1] - exact))
        assert fit_order(ns, errs) >= 0.8


def test_semigroup_on_linear():
    # I^{0.4} I^{0.6} t should approach I^1 t = t^2/2 under refinement
    errs = []
    for n in (128, 256, 512):
        g = Grid(0.0, 1.0, n)
        inner = build_left_rlfi(g, 0.6).apply(g.nodes.copy())
        got = build_left_rlfi(g, 0.4).apply(inner)
        errs.append(float(np.max(np.abs(got - g.nodes**2 / 2.0))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 5e-6


# ---------------------------------------------------------------- structure

def test_linearity():
    g = Grid(0.0, 1.0, 48)
    rng = np.random.default_rng(23)
    f1 = rng.standard_normal(g.n_nodes)
    f2 = rng.standard_normal(g.n_nodes)
    for build in (build_left_rlfi, build_left_rlfd, build_right_rlfi, build_right_rlfd):
        op = build(g, 0.4)
        lhs = op.apply(2.5 * f1 - 1.25 * f2)
        rhs = 2.5 * op.apply(f1) - 1.25 * op.apply(f2)
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_triangular_structure():
    g = Grid(0.0, 1.0, 24)
    left_i = build_left_rlfi(g, 0.5)
    left_d = build_left_rlfd(g, 0.5)
    right_i = build_right_rlfi(g, 0.5)
    assert np.all(np.triu(left_i.coeffs, k=1) == 0.0)
    assert np.all(np.triu(left_d.coeffs, k=1) == 0.0)
    assert np.all(np.tril(right_i.coeffs, k=-1) == 0.0)


def test_left_causality():
    # bumping node j must not change (Lf)_i for i < j
    g = Grid(0.0, 1.0, 32)
    op = build_left_rlfi(g, 0.7)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(g.n_nodes)
    base = op.apply(f)
    j = 20
    f2 = f.copy()
    f2[j] += 1.0
    assert np.array_equal(op.apply(f2)[:j], base[:j])


def test_kind_tags_and_order_value():
    g = Grid(0.0, 1.0, 8)
    assert build_left_rlfi(g, 0.5).kind is OperatorKind.LEFT_RLFI
    assert build_right_rlfd(g, 0.5).kind is OperatorKind.RIGHT_RLFD
    assert build_left_rlfd(g, FracOrder(0.25)).order.value == 0.25


# ---------------------------------------------------------------- adjoints

def test_integration_by_parts_identity(grid256):
    # <I f, g>_w == <f, I* g>_w must hold to round-off by construction
    rng = np.random.default_rng(17)
    w = grid256.quad_weights
    for op in (build_left_rlfi(grid256, 0.5), build_left_rlfd(grid256, 0.5)):
        adj = build_right_adjoint(op)
        for _ in range(25):
            f = rng.standard_normal(grid256.n_nodes)
            h = rng.standard_normal(grid256.n_nodes)
            lhs = float(w @ (op.apply(f) * h))
            rhs = float(w @ (f * adj.apply(h)))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_ibp_oracle_both_sides(grid1k, rlfi_half_1k):
    # f = g = 1: both pairings equal int_0^1 2 sqrt(x/pi) dx = 4/(3 sqrt(pi))
    ones = np.ones(grid1k.n_nodes)
    w = grid1k.quad_weights
    adj = build_right_adjoint(rlfi_half_1k)
    lhs = float(w @ (rlfi_half_1k.apply(ones) * ones))
    rhs = float(w @ (ones * adj.apply(ones)))
    assert abs(lhs - 0.7522527781) <= 1e-5
    assert abs(rhs - 0.7522527781) <= 1e-5


def test_adjoint_right_rlfi_oracle(grid1k, rlfi_half_1k):
    # right I^{1/2} of 1 is 2*sqrt((1-x)/pi)
    adj = build_right_adjoint(rlfi_half_1k)
    got = adj.apply(np.ones(grid1k.n_nodes))
    exact = 2.0 * np.sqrt(1.0 - grid1k.nodes) / SQRT_PI
    assert np.max(np.abs(got - exact)[grid1k.interior()]) <= 1e-3
    # transposing the quadrature loses accuracy at the very first node;
    # the defect shrinks like h^alpha
    assert abs(got[0] - exact[0]) <= 1.5 * math.sqrt(grid1k.h)


def test_direct_right_rlfi_oracle(grid1k):
    op = build_right_rlfi(grid1k, 0.5)
    got = op.apply(np.ones(grid1k.n_nodes))
    assert abs(got[0] - 1.1283791671) <= 1e-6
    exact = 2.0 * np.sqrt(1.0 - grid1k.nodes) / SQRT_PI
    assert np.max(np.abs(got - exact)) <= 1e-5


def test_direct_vs_adjoint_gap_shrinks():
    gaps = []
    for n in (128, 256, 512):
        g = Grid(0.0, 1.0, n)
        direct = build_right_rlfi(g, 0.5).apply(np.ones(g.n_nodes))
        adj = build_right_adjoint(build_left_rlfi(g, 0.5)).apply(np.ones(g.n_nodes))
        gaps.append(float(np.max(np.abs(direct - adj)[g.interior()])))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 2e-5


def test_right_rlfd_mirror(grid256):
    # right derivative of f(x) = sqrt(1-x) is the mirror image of the left case
    op = build_right_rlfd(grid256, 0.5)
    got = op.apply(np.sqrt(1.0 - grid256.nodes))
    rel = np.abs(got[grid256.interior()] - gamma(1.5)) / gamma(1.5)
    assert np.max(rel) <= 2e-2


# ---------------------------------------------------------------- validation

def test_order_must_be_strictly_fractional():
    g = Grid(0.0, 1.0, 8)
    for bad in (0.0, 1.0, 1.5, -0.3):
        with pytest.raises(ValueError):
            build_left_rlfi(g, bad)
        with pytest.raises(ValueError):
            FracOrder(bad)


def test_adjoint_rejects_right_kind(grid256):
    right = build_right_rlfi(grid256, 0.5)
    with pytest.raises(ValueError):
        build_right_adjoint(right)


def test_apply_rejects_bad_shape(grid256):
    op = build_left_rlfi(grid256, 0.5)
    with pytest.raises(ValueError):
        op.apply(np.zeros(grid256.n_nodes - 1))


def test_apply_to_sampled_fn_checks_its_grid(grid256):
    # a SampledFn on the operator's grid comes back as one with the values
    # of the array path; one on another grid is refused
    op = build_left_rlfd(grid256, 0.5)
    f = SampledFn(grid256, np.sqrt(grid256.nodes))
    out = op.apply(f)
    assert isinstance(out, SampledFn) and out.grid == grid256
    assert np.array_equal(out.values, op.apply(f.values))
    other = Grid(0.0, 2.0, 256)
    with pytest.raises(ValueError, match="sample grid does not match operator grid"):
        op.apply(SampledFn(other, np.sqrt(other.nodes)))


# ---------------------------------------------------------------- storage

STRUCTURE_SIZES = (1, 2, 7, 64, 300)
STRUCTURE_ORDERS = (0.1, 0.3, 0.5, 0.7, 0.95)


def six_operators(g, order):
    """All six builders at one order, each with its dense reference table."""
    left_i, left_d = dense_left_rlfi(g, order), dense_left_rlfd(g, order)
    I, D = build_left_rlfi(g, order), build_left_rlfd(g, order)
    return [
        (I, left_i),
        (D, left_d),
        (build_right_adjoint(I), dense_adjoint(g, left_i)),
        (build_right_adjoint(D), dense_adjoint(g, left_d)),
        (build_right_rlfi(g, order), dense_mirror(left_i)),
        (build_right_rlfd(g, order), dense_mirror(left_d)),
    ]


@pytest.mark.parametrize("n", STRUCTURE_SIZES)
def test_dense_view_equals_reference_tables(n):
    g = Grid(0.0, 1.0, n)
    for order in STRUCTURE_ORDERS:
        for op, ref in six_operators(g, order):
            assert "coeffs" not in op.__dict__
            assert op.coeffs.shape == (n + 1, n + 1)
            assert np.array_equal(op.coeffs, ref), (op.kind, order)
            assert not op.coeffs.flags.writeable


@pytest.mark.parametrize("n", STRUCTURE_SIZES)
def test_apply_matches_dense_view(n):
    g = Grid(0.0, 1.0, n)
    rng = np.random.default_rng(n)
    for order in STRUCTURE_ORDERS:
        for op, _ in six_operators(g, order):
            for f in (rng.standard_normal(n + 1), np.sqrt(g.nodes), np.ones(n + 1)):
                got = op.apply(f)
                want = op.coeffs @ f
                scale = float(np.max(np.abs(want)))
                assert np.max(np.abs(got - want)) <= 1e-13 * scale, (op.kind, order)


def test_builders_allocate_no_table():
    # a dense table at N = 2048 takes 32 MiB; no builder comes near that
    g = Grid(0.0, 1.0, 2048)
    tracemalloc.start()
    try:
        left = build_left_rlfi(g, 0.4)
        ops = [left, build_left_rlfd(g, 0.4), build_right_adjoint(left),
               build_right_rlfi(g, 0.4), build_right_rlfd(g, 0.4)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert all("coeffs" not in op.__dict__ for op in ops)


def test_operator_rejects_inconsistent_structure():
    g = Grid(0.0, 1.0, 8)
    ok = np.ones(g.n_nodes)
    with pytest.raises(ValueError):
        FracOperator(OperatorKind.LEFT_RLFD, FracOrder(0.5), g, ok[:-1], ok)
    with pytest.raises(ValueError):
        FracOperator(OperatorKind.RIGHT_RLFD, FracOrder(0.5), g, ok, ok, "left")
    with pytest.raises(ValueError):
        FracOperator(OperatorKind.LEFT_RLFD, FracOrder(0.5), g, ok, ok, "adjoint")
    with pytest.raises(ValueError):
        FracOperator(OperatorKind.RIGHT_RLFD, FracOrder(0.5), g, ok, ok, "transpose")


def test_residual_and_gradient_build_no_dense_table(monkeypatch):
    # functional, residual and gradient evaluations go through apply only;
    # a 2049 x 2049 table appearing here would be a regression
    made = []

    def recording(build):
        def wrapped(*args):
            op = build(*args)
            made.append(op)
            return op
        return wrapped

    for name in ("build_left_rlfi", "build_left_rlfd", "build_right_adjoint"):
        build = getattr(fracvar.problems, name)
        monkeypatch.setattr(fracvar.problems, name, recording(build))
    g = Grid(0.0, 1.0, 2048)
    p = VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian="(v - 1)^2 + u*v + u^2")
    y = np.sqrt(g.nodes)
    assert np.isfinite(el_residual(p, y, g).norm)
    assert np.isfinite(evaluate_functional(p, y, g))
    assert np.all(np.isfinite(gradient(p, y, g)))
    # the grid keeps the four operators for the later evaluations
    assert len(made) == 4
    assert all("coeffs" not in op.__dict__ for op in made)


# ---------------------------------------------------------------- block-FFT apply

LEAF = operators._LEAF


def adjoint_rlfi(g, order):
    return build_right_adjoint(build_left_rlfi(g, order))


def adjoint_rlfd(g, order):
    return build_right_adjoint(build_left_rlfd(g, order))


SIX_BUILDERS = (build_left_rlfi, build_left_rlfd, adjoint_rlfi, adjoint_rlfd,
                build_right_rlfi, build_right_rlfd)


def direct_toeplitz(t, x, spectra=None):
    """The single direct convolution every apply made before the block path
    (it needs no kernel transforms, so spectra is ignored)."""
    return np.convolve(t[: x.size], x)[: x.size]


def absolute(op):
    """The operator with every entry replaced by its magnitude."""
    return FracOperator(op.kind, op.order, op.grid, np.abs(op._kernel),
                        np.abs(op._col0), op._form)


@pytest.mark.parametrize("n", (513, 1000, 1024, 2048))
@pytest.mark.parametrize("build", SIX_BUILDERS)
def test_block_apply_matches_dense_view(n, build):
    g = Grid(0.0, 1.0, n)
    rng = np.random.default_rng(n)
    for order in (0.1, 0.5, 0.95):
        op = build(g, order)
        for f in (rng.standard_normal(n + 1), np.sqrt(g.nodes), np.ones(n + 1)):
            got = op.apply(f)
            want = op.coeffs @ f
            scale = float(np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, (op.kind, order)


@pytest.mark.parametrize("build", SIX_BUILDERS)
def test_block_apply_matches_direct_convolution_at_4096(build, monkeypatch):
    # D^b sqrt(x) is constant while its terms grow like h^-b, so the
    # output cancels; round-off is measured against the terms it sums
    n = 4096
    g = Grid(0.0, 1.0, n)
    rng = np.random.default_rng(41)
    for order in (0.1, 0.5, 0.95):
        op = build(g, order)
        inputs = (rng.standard_normal(n + 1), np.sqrt(g.nodes), np.ones(n + 1))
        got = [op.apply(f) for f in inputs]
        with monkeypatch.context() as m:
            m.setattr(operators, "_lower_toeplitz", direct_toeplitz)
            want = [op.apply(f) for f in inputs]
            # the largest sum of |terms| over an output row
            scales = [float(np.max(absolute(op).apply(np.abs(f)))) for f in inputs]
        for a, b, scale in zip(got, want, scales):
            assert np.max(np.abs(a - b)) <= 1e-13 * scale, (op.kind, order)


@pytest.mark.parametrize("build", (build_left_rlfi, build_left_rlfd))
def test_block_apply_left_causality(build):
    # bumping node j leaves (Lf)_i for i < j bit-identical, across leaf
    # edges and the dyadic split
    n = 4096
    g = Grid(0.0, 1.0, n)
    op = build(g, 0.7)
    f = np.random.default_rng(5).standard_normal(n + 1)
    base = op.apply(f)
    for j in (1, LEAF - 1, LEAF, LEAF + 1, n // 2, n - 1):
        bumped = f.copy()
        bumped[j] += 1.0
        out = op.apply(bumped)
        assert np.array_equal(out[:j], base[:j]), j
        assert out[j] != base[j]


def test_three_level_matvec_matches_a_full_convolution_and_is_causal():
    # the first size with a third level; the reference is one FFT of the
    # whole convolution, round-off measured against the sum of |terms|
    n = operators._BLOCK * operators._RADIX * operators._SPAN + 1
    assert len(levels(n)) == 3
    rng = np.random.default_rng(43)
    t = build_left_rlfi(Grid(0.0, 1.0, n), 0.4)._kernel
    x = rng.standard_normal(n)
    spectra = {}
    got = operators._lower_toeplitz(t, x, spectra)

    def full(a, b):
        return np.fft.irfft(np.fft.rfft(a, 2 * n) * np.fft.rfft(b, 2 * n), 2 * n)[:n]

    scale = float(np.max(full(np.abs(t), np.abs(x))))
    assert np.max(np.abs(got - full(t, x))) <= 1e-13 * scale
    for j in (n // 3, n - 2):
        bumped = x.copy()
        bumped[j] = np.nan
        out = operators._lower_toeplitz(t, bumped, spectra)
        assert out[:j].tobytes() == got[:j].tobytes()
        assert np.all(np.isnan(out[j:]))


def test_block_apply_integration_by_parts():
    n = 4096
    g = Grid(0.0, 1.0, n)
    rng = np.random.default_rng(29)
    w = g.quad_weights
    for op in (build_left_rlfi(g, 0.4), build_left_rlfd(g, 0.6)):
        adj = build_right_adjoint(op)
        for _ in range(5):
            f = rng.standard_normal(n + 1)
            h = rng.standard_normal(n + 1)
            lhs = float(w @ (op.apply(f) * h))
            rhs = float(w @ (f * adj.apply(h)))
            scale = float(w @ (absolute(op).apply(np.abs(f)) * np.abs(h)))
            assert abs(lhs - rhs) <= 1e-12 * scale


@pytest.mark.parametrize("n", (1, 2, 7, 300, 511, 512, LEAF - 1, LEAF))
def test_apply_up_to_leaf_is_one_direct_convolution(n, monkeypatch):
    g = Grid(0.0, 1.0, n)
    rng = np.random.default_rng(n)
    f = rng.standard_normal(n + 1)
    t = rng.standard_normal(n + 1)
    assert np.array_equal(operators._lower_toeplitz(t, f[1:]), direct_toeplitz(t, f[1:]))
    ops = [build(g, 0.35) for build in SIX_BUILDERS]
    got = [op.apply(f) for op in ops]
    monkeypatch.setattr(operators, "_lower_toeplitz", direct_toeplitz)
    for op, out in zip(ops, got):
        assert np.array_equal(out, op.apply(f)), op.kind


@pytest.mark.parametrize("build", (build_left_rlfi, build_left_rlfd))
def test_operator_and_adjoint_transform_the_kernel_once_per_level(build, monkeypatch):
    # at N = 4096 (one level) and N = 2^14 + 1 (two levels) six applies of
    # a left operator and its adjoint transform the kernel once per
    # block-path level (one batched rfft of its segments), and every warm
    # apply has the bits of a freshly built operator's apply
    for n in (4096, 2**14 + 1):
        g = Grid(0.0, 1.0, n)
        inputs = np.random.default_rng(67).standard_normal((3, n + 1))
        fresh = []
        for f in inputs:
            op = build(g, 0.3)
            fresh.append((op.apply(f), build_right_adjoint(op).apply(f)))
        op = build(g, 0.3)
        adj = build_right_adjoint(op)
        with monkeypatch.context() as m:
            widths = record_kernel_transforms(m)
            for f, (left, right) in zip(inputs, fresh):
                assert np.array_equal(op.apply(f), left)
                assert np.array_equal(adj.apply(f), right)
        assert widths == [2 * s - 1 for s in levels(n)]
        assert len(widths) == (1 if n == 4096 else 2)


@pytest.mark.parametrize("n", (1, 7, 300, 2048))
@pytest.mark.parametrize("build", (build_left_rlfi, build_left_rlfd))
def test_inverse_kernel_inverts_the_toeplitz_part(n, build):
    # the RLFD's closed form (1 - z)^-b and the RLFI's power-series
    # reciprocal both undo the kernel's lower-triangular Toeplitz matvec,
    # through the direct and the block path
    g = Grid(0.0, 1.0, n)
    x = np.random.default_rng(n).standard_normal(n + 1)
    for order in (0.1, 0.5, 0.95):
        op = build(g, order)
        assert not op.inverse_kernel.flags.writeable
        Tx = operators._lower_toeplitz(op._kernel, x)
        back = operators._lower_toeplitz(op.inverse_kernel, Tx)
        assert np.max(np.abs(back - x)) <= 1e-11 * np.max(np.abs(x)), order
