"""Shared test utilities: seeded expression generators, finite differences,
dense reference tables and work counters.

Generated trees stay inside the parser's image: numeric literals are
nonnegative and negation is spelled with an explicit unary node, so a
print/parse round trip can be compared structurally.
"""

import numpy as np

import fracvar.problems
from fracvar.expressions import Bin, Call, Expr, Neg, Num, Var
from fracvar.operators import _BLOCK, _RADIX, _SPAN

ALL_FUNCS = ("sin", "cos", "exp", "log", "sqrt")
BIN_OPS = ("+", "-", "*", "/", "^")


def _leaf(rng, names) -> Expr:
    if rng.random() < 0.4:
        return Num(round(float(rng.uniform(0.0, 4.0)), 2))
    return Var(str(rng.choice(names)))


def random_expr(rng, depth: int, names=("x", "u", "v")) -> Expr:
    """Arbitrary tree over the full grammar; for round-trip tests."""
    if depth <= 0 or rng.random() < 0.25:
        return _leaf(rng, names)
    r = rng.random()
    if r < 0.15:
        return Neg(random_expr(rng, depth - 1, names))
    if r < 0.35:
        fn = str(rng.choice(ALL_FUNCS))
        return Call(fn, random_expr(rng, depth - 1, names))
    op = str(rng.choice(BIN_OPS))
    return Bin(op, random_expr(rng, depth - 1, names),
               random_expr(rng, depth - 1, names))


def random_smooth_expr(rng, depth: int, names=("x", "u", "v")) -> Expr:
    """Everywhere-smooth tree with moderate magnitudes; safe for finite
    differences: no log/sqrt, integer exponents, division by constants only,
    exponentials of linear arguments only."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            c = Num(round(float(rng.uniform(0.0, 2.0)), 1))
            return Neg(c) if rng.random() < 0.3 else c
        return Var(str(rng.choice(names)))
    r = rng.random()
    if r < 0.12:
        return Neg(random_smooth_expr(rng, depth - 1, names))
    if r < 0.24:
        fn = str(rng.choice(("sin", "cos")))
        return Call(fn, random_smooth_expr(rng, depth - 1, names))
    if r < 0.30:
        arg = Bin("*", Num(round(float(rng.uniform(0.0, 1.0)), 2)),
                  Var(str(rng.choice(names))))
        if rng.random() < 0.5:
            arg = Neg(arg)
        return Call("exp", arg)
    if r < 0.42:
        base = random_smooth_expr(rng, max(depth - 2, 0), names)
        return Bin("^", base, Num(float(rng.integers(2, 4))))
    if r < 0.52:
        return Bin("/", random_smooth_expr(rng, depth - 1, names),
                   Num(round(float(rng.uniform(1.5, 3.0)), 1)))
    op = str(rng.choice(("+", "-", "*")))
    return Bin(op, random_smooth_expr(rng, depth - 1, names),
               random_smooth_expr(rng, depth - 1, names))


def central_diff(f, x: float, step: float = 1e-6) -> float:
    return (f(x + step) - f(x - step)) / (2.0 * step)


def random_smooth_samples(rng, grid, amplitude: float = 1.0) -> np.ndarray:
    """Low-frequency random function on the grid nodes, zero at the left end."""
    x = (grid.nodes - grid.a) / (grid.b - grid.a)
    out = np.zeros_like(x)
    for k in range(1, 4):
        out += float(rng.uniform(-1.0, 1.0)) * np.sin(k * np.pi * x)
    out += float(rng.uniform(-1.0, 1.0)) * x
    return amplitude * out


# ------------------------------------------------- dense operator reference
# The dense-table formulas that fracvar's operators were first written with;
# FracOperator.coeffs must reproduce them bit for bit.

def dense_left_rlfi(grid, a: float) -> np.ndarray:
    from fracvar import gamma

    n = grid.n_cells
    p = a + 1.0
    kappa = grid.h**a / gamma(a + 2.0)
    idx = np.arange(n + 1)
    d = idx[:, None] - idx[None, :]
    m = np.maximum(d, 1).astype(float)
    table = np.where(d >= 1, (m + 1.0) ** p - 2.0 * m**p + (m - 1.0) ** p, 0.0)
    np.fill_diagonal(table, 1.0)
    i_f = idx.astype(float)
    im1 = np.maximum(i_f - 1.0, 0.0)
    col0 = im1**p - i_f**a * (i_f - a - 1.0)
    table[1:, 0] = col0[1:]
    table[0, :] = 0.0
    return kappa * table


def dense_left_rlfd(grid, b: float) -> np.ndarray:
    n = grid.n_cells
    k = np.arange(1, n + 1)
    w = np.concatenate(([1.0], np.cumprod(1.0 - (b + 1.0) / k)))
    idx = np.arange(n + 1)
    d = idx[:, None] - idx[None, :]
    table = np.where(d >= 0, w[np.clip(d, 0, n)], 0.0)
    return grid.h ** (-b) * table


def dense_adjoint(grid, left: np.ndarray) -> np.ndarray:
    w = grid.quad_weights
    return (left.T * w[None, :]) / w[:, None]


def dense_mirror(left: np.ndarray) -> np.ndarray:
    return left[::-1, ::-1].copy()


def levels(n: int) -> list[int]:
    """The level sides s of the block-path matvec of n samples: _BLOCK,
    then _RADIX times the last side while it cuts n into more than _SPAN
    blocks."""
    sides = [_BLOCK]
    while -(-n // sides[-1]) > _SPAN:
        sides.append(_RADIX * sides[-1])
    return sides


def record_kernel_transforms(monkeypatch) -> list[int]:
    """A list of the kernel transforms np.fft.rfft makes, filled as the
    calls happen: the width 2s - 1 of the kernel segments at a level of
    side s.  The sample blocks it transforms have the even width s and
    are not recorded."""
    widths = []
    rfft = np.fft.rfft

    def recording(a, *args, **kwargs):
        if np.shape(a)[-1] % 2:
            widths.append(np.shape(a)[-1])
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", recording)
    return widths


def record_assembly_work(monkeypatch) -> tuple[list, list]:
    """Lists of the problems a DiscreteProblem is made for and of the
    channel names the problems module differentiates by, filled as the
    calls happen."""
    made, derived = [], []
    init = fracvar.problems.DiscreteProblem.__init__
    differentiate = fracvar.problems.differentiate

    def counting_init(dp, problem, grid):
        made.append(problem)
        init(dp, problem, grid)

    def counting_differentiate(e, name):
        derived.append(name)
        return differentiate(e, name)

    monkeypatch.setattr(fracvar.problems.DiscreteProblem, "__init__", counting_init)
    monkeypatch.setattr(fracvar.problems, "differentiate", counting_differentiate)
    return made, derived
