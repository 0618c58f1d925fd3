"""Fractional variational problems: functionals and Euler-Lagrange residuals.

A problem stores the interval, the integral orders alpha_i (the functional's
integral channels use the complementary order 1 - alpha_i; the problem keeps
alpha itself to match the usual statement of the functional), the derivative
orders beta_j, the unknown count, a Lagrangian expression, an optional
isoperimetric constraint, and optional endpoint pins.

Channel variables seen by the Lagrangian, for unknowns y_1..y_K:

    u{c}  with c = (i-1)*K + k   the left RLFI of order 1-alpha_i of y_k
    v{c}  with c = (j-1)*K + k   the left RLFD of order beta_j of y_k

When there is exactly one u (or v) channel, the bare name "u" (or "v") is
an alias of "u1" (or "v1"); the two spellings name the same channel and may
be mixed.  Every Lagrangian may also use "x".

DiscreteProblem binds a problem to a grid.  The channels of samples Y are
one (C, n) array, the u channels and then the v channels, which differ
only in their operator and in the node-0 continuation of the v channels
(below).  A channel is live when the Lagrangian L or the constraint g
reads it; only live channels are applied, each order's operators are
built on its first apply, and the other rows stay zero.  The constraint
lives in the same problem: g's value, partials and residual come from the
same channels and operators as L's.

Endpoint policy: the derivative channel's value at the first node is the
raw scheme value h^-beta * y_0, which is meaningless when y(a) != 0 (the
Riemann-Liouville derivative is unbounded at the left endpoint there) and
is zero-information when y_0 is pinned to 0.  All functional and residual
evaluations therefore substitute the neighboring node's value at node 0 of
every v channel.  The substitution is linear, so the discrete gradient
identity below remains exact; it perturbs only the first two entries of
the adjoint weights and leaves interior residual values untouched.

The residual of L (or of g) is one pullback of its channel partials
p_a: r = sum_a R_a fold(p_a), with R_a the adjoint-built right operator
W^-1 A_a^T W and fold the adjoint of the node-0 continuation.  The
discrete gradient of the functional is omega_i * r_i exactly.  The
channel maps are linear and L acts pointwise, so the Hessian is exact as
well, and applying it is the same pullback:

    H d = w * pullback(q),   q_a = sum_b S_ab * (A_b d)

with S the (C, C, n) curvature stack, S_ab = S_ba the second partial of
L + lam g by channels a and b, zero where nothing curves the pair
(DiscreteProblem.curvature and .hessian_product).  H is never formed:
each channel of a curved pair costs two operator applies, O(N log^2 N).
DiscreteProblem.preconditioner inverts each unknown's strongest diagonal
block S_aa exactly, through the operators' inverse Toeplitz kernels.

assemble returns the DiscreteProblem its grid keeps for an equal problem,
so each problem on one grid object is built, and L differentiated, once.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .expressions import (
    Bin,
    Expr,
    Num,
    Var,
    differentiate,
    free_vars,
    parse,
    simplify,
    _evaluate_array,
    _rename,
)
from .grids import Grid, SampledFn, weighted_norm, _weighted_l2
from .operators import (
    FracOperator,
    FracOrder,
    _lower_toeplitz,
    build_left_rlfd,
    build_left_rlfi,
    build_right_adjoint,
)

__all__ = [
    "Constraint",
    "VarProblem",
    "Residual",
    "DiscreteProblem",
    "assemble",
    "evaluate_functional",
    "el_residual",
    "el_residual_general",
    "augmented_lagrangian",
    "constraint_value",
]


@dataclass(frozen=True)
class Constraint:
    """Isoperimetric side condition: integral of g over the channels equals ell."""

    g: Expr
    ell: float

    def __post_init__(self) -> None:
        g = parse(self.g) if isinstance(self.g, str) else self.g
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "ell", float(self.ell))


def _as_orders(values, label: str) -> tuple[FracOrder, ...]:
    if isinstance(values, (int, float, FracOrder)):
        values = (values,)
    out = tuple(v if isinstance(v, FracOrder) else FracOrder(v) for v in values)
    if not out:
        raise ValueError(f"at least one {label} order is required")
    return out


@dataclass(frozen=True)
class VarProblem:
    """A fractional variational problem on [a, b]."""

    a: float
    b: float
    alphas: tuple[FracOrder, ...]
    betas: tuple[FracOrder, ...]
    lagrangian: Expr
    n_unknowns: int = 1
    constraint: Constraint | None = None
    pins: tuple[tuple[float | None, float | None], ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError(f"interval endpoints must be finite, got ({self.a}, {self.b})")
        if not self.b > self.a:
            raise ValueError(f"interval requires b > a, got ({self.a}, {self.b})")
        object.__setattr__(self, "alphas", _as_orders(self.alphas, "integral"))
        for alpha in self.alphas:
            # the integral channel runs at order 1 - alpha
            if not 1.0 - alpha.value < 1.0:
                raise ValueError(f"integral order {alpha.value!r}: 1 - alpha rounds to 1")
        object.__setattr__(self, "betas", _as_orders(self.betas, "derivative"))
        if int(self.n_unknowns) < 1:
            raise ValueError(f"n_unknowns must be >= 1, got {self.n_unknowns}")
        object.__setattr__(self, "n_unknowns", int(self.n_unknowns))
        lag = self.lagrangian
        object.__setattr__(self, "lagrangian", parse(lag) if isinstance(lag, str) else lag)
        object.__setattr__(self, "pins", _normalize_pins(self.pins, self.n_unknowns))
        allowed = self.allowed_vars()
        _check_vars(self.lagrangian, allowed, "lagrangian")
        if self.constraint is not None:
            _check_vars(self.constraint.g, allowed, "constraint")

    @property
    def n_u_channels(self) -> int:
        return len(self.alphas) * self.n_unknowns

    @property
    def n_v_channels(self) -> int:
        return len(self.betas) * self.n_unknowns

    def u_names(self) -> tuple[str, ...]:
        return tuple(f"u{c + 1}" for c in range(self.n_u_channels))

    def v_names(self) -> tuple[str, ...]:
        return tuple(f"v{c + 1}" for c in range(self.n_v_channels))

    def allowed_vars(self) -> frozenset[str]:
        names = {"x", *self.u_names(), *self.v_names()}
        if self.n_u_channels == 1:
            names.add("u")
        if self.n_v_channels == 1:
            names.add("v")
        return frozenset(names)

    def is_basic(self) -> bool:
        return len(self.alphas) == 1 and len(self.betas) == 1 and self.n_unknowns == 1


def _normalize_pins(pins, n_unknowns: int):
    if pins is None:
        return ((None, None),) * n_unknowns
    pins = tuple(pins)
    # a single (left, right) pair is shorthand for one unknown
    if (
        len(pins) == 2
        and n_unknowns == 1
        and all(p is None or isinstance(p, (int, float)) for p in pins)
    ):
        pins = (pins,)
    if len(pins) != n_unknowns:
        raise ValueError(f"expected pins for {n_unknowns} unknowns, got {len(pins)}")
    out = []
    for i, pair in enumerate(pins):
        try:
            left, right = pair
        except (TypeError, ValueError):
            raise ValueError(
                f"pins[{i}]: expected a (left, right) pair, got {pair!r}"
            ) from None
        out.append(
            (
                None if left is None else float(left),
                None if right is None else float(right),
            )
        )
    return tuple(out)


def _check_vars(e: Expr, allowed: frozenset[str], what: str) -> None:
    extra = free_vars(e) - allowed
    if extra:
        raise ValueError(
            f"{what} uses undeclared variable(s) {sorted(extra)}; "
            f"declared: {sorted(allowed)}"
        )


@dataclass(frozen=True)
class Residual:
    """Euler-Lagrange residual samples, one row per unknown."""

    grid: Grid
    values: np.ndarray  # shape (n_unknowns, n_nodes)
    norm: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[None, :]
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "norm", float(self.norm))

    def interior_norm(self, margin: int | None = None) -> float:
        sl = self.grid.interior(margin)
        return _weighted_l2(self.grid.quad_weights[sl], self.values[:, sl])


class DiscreteProblem:
    """A problem bound to a grid: its operators and the partials of L and g.

    Exposes the channels, the values and residuals of L and g, the exact
    gradient, and the exact Hessian product of L + lam g with its
    preconditioner; the solver drives everything through this object.
    names, live and partials hold one entry per channel, in channel order:
    live[a] tells whether L or g reads channel a, and partials[a] is
    dL/da, or None where L does not read a.  Channel arrays (from
    channels; into env, value and curvature) are (C, n) in that order,
    and the curvature (C, C, n), S[a, b] for channels a, b.  Operators
    are built on first apply, one pair per order; g's partials and all
    second partials are derived on first use.  Get one through assemble,
    which keeps it on the grid.
    """

    def __init__(self, problem: VarProblem, grid: Grid):
        # np.isclose's test, inline for speed; '< np.inf' keeps its no for inf
        if not all(abs(g - p) <= 1e-8 + 1e-5 * abs(p) < np.inf
                   for g, p in ((grid.a, problem.a), (grid.b, problem.b))):
            raise ValueError(
                f"grid interval ({grid.a}, {grid.b}) does not match "
                f"problem interval ({problem.a}, {problem.b})"
            )
        self.problem = problem
        self.grid = grid
        self.names = problem.u_names() + problem.v_names()
        # the aliases u and v name channel 1 of their kind, so L mixing both
        # spellings differentiates by the indexed names alone
        self._aliases = tuple(a for a in "uv" if a in problem.allowed_vars())
        L = _rename(problem.lagrangian, {"u": "u1", "v": "v1"})
        live = free_vars(L)
        self._g = None
        if problem.constraint is not None:
            self._g = _rename(problem.constraint.g, {"u": "u1", "v": "v1"})
            live |= free_vars(self._g)
        self.live = tuple(name in live for name in self.names)
        self._live_rows = tuple(a for a, is_live in enumerate(self.live) if is_live)
        self.partials = _first_partials(L, self.names)
        # integral channels carry the complementary order 1 - alpha; the
        # derivative channels are continued at node 0.  Channel a is order
        # a // K of this list applied to unknown a % K.
        self._orders = [(build_left_rlfi, 1.0 - a.value, False) for a in problem.alphas]
        self._orders += [(build_left_rlfd, b.value, True) for b in problem.betas]
        self._operators = {}

    # -- channels ----------------------------------------------------------

    def _map(self, a: int) -> tuple[FracOperator, FracOperator, int, bool]:
        """Channel a's (left operator, its quadrature adjoint, unknown
        index, whether node 0 continues node 1); its order's operators are
        built on first use and shared by the channels of that order."""
        i, k = divmod(a, self.problem.n_unknowns)
        if i not in self._operators:
            build, order, continued = self._orders[i]
            op = build(self.grid, order)
            self._operators[i] = (op, build_right_adjoint(op), continued)
        op, adjoint, continued = self._operators[i]
        return op, adjoint, k, continued

    def _strength(self, a: int) -> float:
        """Channel a's order as a derivative: beta, or -(1 - alpha)."""
        _, order, continued = self._orders[a // self.problem.n_unknowns]
        return order if continued else -order

    def channels(self, Y: np.ndarray, every: bool = False) -> np.ndarray:
        """The (C, n) channels of Y: integral, then (endpoint-continued)
        derivative.  Rows of channels that are not live stay zero, unless
        every is set."""
        return self._channels(Y, range(len(self.names)) if every else self._live_rows)

    def _channels(self, Y: np.ndarray, rows) -> np.ndarray:
        c = np.zeros((len(self.names), self.grid.n_nodes))
        for a in rows:
            op, _, k, continued = self._map(a)
            c[a] = op.apply(Y[k])
            if continued:
                c[a, 0] = c[a, 1]
        return c

    def env(self, c: np.ndarray) -> dict:
        e = {"x": self.grid.nodes, **dict(zip(self.names, c))}
        for alias in self._aliases:
            e[alias] = e[alias + "1"]
        return e

    # -- functional, residual, gradient ------------------------------------

    def value(self, c: np.ndarray, constraint: bool = False) -> float:
        """The quadrature integral of L (of g if constraint is set) at the
        channels c, in the problem's own spelling, which domain errors quote."""
        e = self.problem.constraint.g if constraint else self.problem.lagrangian
        vals = _evaluate_array(e, self.env(c), self.grid.n_nodes)
        return float(self.grid.quad_weights @ vals)

    def functional(self, Y: np.ndarray) -> float:
        return self.value(self.channels(Y))

    def residual_values(self, Y: np.ndarray) -> np.ndarray:
        return self._residual_from(self.channels(Y))

    def _residual_from(self, c: np.ndarray, constraint: bool = False) -> np.ndarray:
        """The residual of L (of g if constraint is set) at the channels c:
        the pullback of its first partials."""
        partials = self._constraint_partials if constraint else self.partials
        env = self.env(c)
        p = np.zeros_like(c)
        rows = [a for a, e in enumerate(partials) if e is not None]
        for a in rows:
            p[a] = _evaluate_array(partials[a], env, self.grid.n_nodes)
        return self._pullback(p, rows)

    @cached_property
    def _constraint_partials(self) -> tuple[Expr | None, ...]:
        return _first_partials(self._g, self.names)

    def _pullback(self, p: np.ndarray, rows) -> np.ndarray:
        """sum_a adjoint_a(p[a]) over the channels a in rows, into the row
        of channel a's unknown.  The one place that applies the adjoint of
        the node-0 continuation, in place on p: under the quadrature inner
        product, node 0's weighted value moves onto node 1."""
        w = self.grid.quad_weights
        g = np.zeros((self.problem.n_unknowns, self.grid.n_nodes))
        for a in rows:
            _, adjoint, k, continued = self._map(a)
            if continued:
                p[a, 1] += p[a, 0] * w[0] / w[1]
                p[a, 0] = 0.0
            g[k] += adjoint.apply(p[a])
        return g

    def residual(self, Y: np.ndarray) -> Residual:
        """The Euler-Lagrange residual rows with their weighted norm."""
        vals = self.residual_values(Y)
        return Residual(self.grid, vals, weighted_norm(self.grid, vals))

    def gradient(self, Y: np.ndarray) -> np.ndarray:
        """d(functional)/d(node values); exactly quad_weights * residual."""
        return self.grid.quad_weights * self.residual_values(Y)

    # -- Hessian -----------------------------------------------------------

    @cached_property
    def _second_partials(self) -> dict[tuple[int, int], Expr]:
        """(a, b) -> the second partial of L + lam g by channels a <= b, per
        curved pair, with lam a variable that curvature binds."""
        out = _curved_pairs(self.partials, self.names)
        if self._g is not None:
            for pair, e in _curved_pairs(self._constraint_partials, self.names).items():
                e = Bin("*", Var("lam"), e)
                out[pair] = Bin("+", out[pair], e) if pair in out else e
        return out

    def curvature(self, c: np.ndarray, lam: float = 0.0) -> np.ndarray:
        """The (C, C, n) second partials of L + lam g at the channels c:
        S[a, b] = S[b, a] is the partial by channels a and b, zero where
        nothing curves the pair."""
        env = {**self.env(c), "lam": lam}
        n = self.grid.n_nodes
        S = np.zeros((len(self.names), len(self.names), n))
        for (a, b), e in self._second_partials.items():
            S[a, b] = S[b, a] = _evaluate_array(e, env, n)
        return S

    def hessian_product(self, S: np.ndarray, D: np.ndarray) -> np.ndarray:
        """H D, the exact Hessian of the functional times node values D.

        H D = w * pullback(q) with q_a = sum_b S_ab (A_b D), S the
        curvature stack; D and the result have one row per unknown.  Only
        the channels of curved pairs are applied, each once forward and
        once through its adjoint.
        """
        rows = sorted({a for pair in self._second_partials for a in pair})
        q = np.einsum("abn,bn->an", S, self._channels(D, rows))
        return self.grid.quad_weights * self._pullback(q, rows)

    def preconditioner(self, S: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """An SPD approximate inverse of H, on arrays with one row per unknown.

        Per unknown, the exact inverse of its strongest curved diagonal
        block (highest-order derivative channel, else lowest-order
        integral channel): T^-1 diag(1 / |w s_aa|) T^-T, with T the
        Toeplitz part of the channel's operator on nodes lo..N (lo = 1
        when node 0 is pinned; a free node 0 takes node 1's weight).
        Weights are floored at _WEIGHT_FLOOR of the largest; an unknown
        without diagonal curvature keeps the identity.  Masking input and
        output gives the principal submatrix for a pinned node N.
        """
        w = self.grid.quad_weights
        K = self.problem.n_unknowns
        blocks = []
        for k, (left, _) in enumerate(self.problem.pins):
            diag = [a for a in range(k, len(self.names), K) if (a, a) in self._second_partials]
            if not diag:
                continue
            a = max(diag, key=self._strength)
            op, _, _, continued = self._map(a)
            ws = w * S[a, a]
            if continued:
                ws[1] += ws[0]
            lo = 0 if left is None else 1
            ws = np.abs(ws[lo:])
            if lo == 0:
                ws[0] = ws[1]
            top = np.max(ws)
            if top > 0.0:
                blocks.append((k, lo, op.inverse_kernel,
                               np.maximum(ws, _WEIGHT_FLOOR * top),
                               op._spectra.setdefault("inverse", {})))

        def apply(R: np.ndarray) -> np.ndarray:
            # the two solves read the transforms of c, one per level, that
            # the first solve through this operator made
            Z = R.copy()
            for k, lo, c, ws, spectra in blocks:
                u = _lower_toeplitz(c, R[k, lo:][::-1], spectra)[::-1] / ws
                Z[k, lo:] = _lower_toeplitz(c, u, spectra)
            return Z

        return apply


def _first_partials(e: Expr, names: tuple[str, ...]) -> tuple[Expr | None, ...]:
    """de/d(channel), one per channel; None where e does not read the
    channel or the partial is identically zero."""
    read = free_vars(e)
    partials = (differentiate(e, name) if name in read else None for name in names)
    return tuple(None if p == Num(0.0) else p for p in partials)


def _curved_pairs(partials: tuple[Expr | None, ...], names: tuple[str, ...]) -> dict:
    """(a, b) -> d2e/da db for channels a <= b whose first partials are
    kept, leaving out second partials that are identically zero."""
    kept = [a for a, e in enumerate(partials) if e is not None]
    second = ((a, b, differentiate(partials[a], names[b])) for a in kept for b in kept if a <= b)
    return {(a, b): e for a, b, e in second if e != Num(0.0)}


# preconditioner weights are floored at this fraction of the largest
_WEIGHT_FLOOR = 1e-12
# problems a grid keeps, the oldest evicted first
_GRID_PROBLEMS = 8


def assemble(problem: VarProblem, grid: Grid) -> DiscreteProblem:
    """The DiscreteProblem the grid keeps for a problem equal to problem,
    made and kept on first use.  A grid keeps the _GRID_PROBLEMS problems
    last made."""
    memo = grid._problems
    dp = memo.get(problem)
    if dp is None:
        if len(memo) == _GRID_PROBLEMS:
            del memo[next(iter(memo))]
        dp = memo[problem] = DiscreteProblem(problem, grid)
    return dp


def _normalize_samples(
    problem: VarProblem, grid: Grid, y
) -> np.ndarray:
    """Coerce y (SampledFn, array, or sequence of those) to (K, n_nodes);
    every SampledFn must live on grid."""
    K = problem.n_unknowns
    n1 = grid.n_cells + 1
    if isinstance(y, SampledFn) or (isinstance(y, np.ndarray) and y.ndim == 1):
        y = [y]
    items = []
    for it in y:
        if isinstance(it, SampledFn):
            if it.grid != grid:
                raise ValueError("sample grid does not match the evaluation grid")
            it = it.values
        items.append(np.asarray(it))
    if items and all(it.ndim == 0 for it in items):
        items = [np.asarray(items, dtype=float)]  # flat list of numbers
    Y = np.array([np.asarray(it, dtype=float) for it in items])
    if Y.shape != (K, n1):
        raise ValueError(
            f"expected {K} sample vector(s) of length {n1}, got shape {Y.shape}"
        )
    return Y


def evaluate_functional(problem: VarProblem, y, grid: Grid) -> float:
    """Quadrature value of the functional at the sampled candidate y."""
    dp = assemble(problem, grid)
    return dp.functional(_normalize_samples(problem, grid, y))


def el_residual(problem: VarProblem, y, grid: Grid) -> Residual:
    """Euler-Lagrange residual for the basic (one order pair, one unknown) case."""
    if not problem.is_basic():
        raise ValueError(
            "el_residual handles the basic problem shape; "
            "use el_residual_general for multiple orders or unknowns"
        )
    return el_residual_general(problem, y, grid)


def el_residual_general(problem: VarProblem, y, grid: Grid) -> Residual:
    """Euler-Lagrange residual rows for any order lists and unknown count.

    Row k is  sum_i R_I^{1-alpha_i} dL/du_{ik} + sum_j R_D^{beta_j} dL/dv_{jk}
    with adjoint-built right operators, so that quad_weights * values is the
    exact gradient of the discrete functional.
    """
    return assemble(problem, grid).residual(_normalize_samples(problem, grid, y))


def augmented_lagrangian(problem: VarProblem, lam: float) -> VarProblem:
    """The problem with Lagrangian L + lam*g and the constraint dropped."""
    if problem.constraint is None:
        raise ValueError("augmented_lagrangian requires a constrained problem")
    K = simplify(
        Bin(
            "+",
            problem.lagrangian,
            Bin("*", Num(float(lam)), problem.constraint.g),
        )
    )
    return dataclasses.replace(problem, lagrangian=K, constraint=None)


def constraint_value(problem: VarProblem, y, grid: Grid) -> float:
    """Quadrature value of the constraint functional at y."""
    if problem.constraint is None:
        raise ValueError("constraint_value requires a constrained problem")
    dp = assemble(problem, grid)
    return dp.value(dp.channels(_normalize_samples(problem, grid, y)), constraint=True)
