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

DiscreteProblem keeps the channels as one list in this order, the u
channels and then the v channels.  The two kinds differ only in their
operator and in the node-0 continuation of the v channels (below).

A channel is live when the Lagrangian or the constraint reads it (through
its indexed name or its alias).  DiscreteProblem builds the operators of
live channels only and applies only those in the functional, residual,
Hessian and solver paths; the other channels are None there, and so is
the partial of L with respect to any channel L does not read.

Endpoint policy: the derivative channel's value at the first node is the
raw scheme value h^-beta * y_0, which is meaningless when y(a) != 0 (the
Riemann-Liouville derivative is unbounded at the left endpoint there) and
is zero-information when y_0 is pinned to 0.  All functional and residual
evaluations therefore substitute the neighboring node's value at node 0 of
every v channel.  The substitution is linear, so the discrete gradient
identity below remains exact; it perturbs only the first two entries of
the adjoint weights and leaves interior residual values untouched.

The discrete gradient of the functional with respect to node values equals
omega_i * r_i exactly, where r is the Euler-Lagrange residual computed with
the adjoint-built right operators W^-1 A^T W.

The residual is one pullback of the channel partials p_a = dL/d(channel a):
r = sum_a R_a fold(p_a), with fold the adjoint of the node-0 continuation
(DiscreteProblem.pullback, the only place it is applied).  The channel
maps are linear and L acts pointwise, so the Hessian of the discrete
functional is exact as well, and applying it is the same pullback:

    H d = w * pullback(q),   q_a = sum_b d2L/da db * (A_b d)

over the channel maps A_a (DiscreteProblem.hessian_product).  It is never
formed: a curved channel pair costs about two operator applies, O(N log^2 N).
DiscreteProblem.preconditioner inverts each unknown's strongest diagonal
block exactly, through the operators' inverse Toeplitz kernels.
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
    differentiate,
    free_vars,
    parse,
    simplify,
    _evaluate_array,
    _rename,
)
from .grids import Grid, SampledFn, weighted_norm
from .operators import (
    FracOperator,
    FracOrder,
    OperatorKind,
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
        w = self.grid.quad_weights[sl]
        v = self.values[:, sl]
        return float(np.sqrt(np.sum(w * v * v)))


class DiscreteProblem:
    """A problem bound to a grid, with operators and partials precomputed.

    Exposes the channel maps (linear), the functional, the residual, the
    exact gradient, the exact Hessian product and its preconditioner; the
    solver drives everything through this object.  names, live and
    partials hold one entry per channel, in the order of the module
    docstring: the u channels, then the v channels.  live[a] tells
    whether L or the constraint reads channel a; partials[a] is dL/da, or
    None where L does not read a.  A map is (left operator, its
    quadrature adjoint, unknown index, whether node 0 continues node 1);
    the operators of live channels are taken here, one pair per order,
    and the others only when maps is read, from the grid's memo
    (_operator_pair), which builds a pair the grid does not keep.
    Channel lists (from channels; into env, functional_value and
    curvature) follow the channel order, with None for channels that
    are not live.
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
        read = free_vars(L)
        live = set(read)
        if problem.constraint is not None:
            live |= free_vars(_rename(problem.constraint.g, {"u": "u1", "v": "v1"}))
        self.live = tuple(name in live for name in self.names)
        partials = (differentiate(L, name) if name in read else None for name in self.names)
        self.partials = tuple(None if e == Num(0.0) else e for e in partials)
        # integral channels carry the complementary order 1 - alpha; the
        # derivative channels are continued at node 0.  Channel a is order
        # a // K of this list applied to unknown a % K.
        self._orders = [(build_left_rlfi, 1.0 - a.value, False) for a in problem.alphas]
        self._orders += [(build_left_rlfd, b.value, True) for b in problem.betas]
        self._operators = {}
        for a, is_live in enumerate(self.live):
            if is_live:
                self._map(a)

    # -- channel maps ------------------------------------------------------

    def _map(self, a: int) -> tuple[FracOperator, FracOperator, int, bool]:
        """Channel a's map; its order's operator and adjoint are taken on
        first use from the grid (_operator_pair) and shared by the
        channels of that order."""
        i, k = divmod(a, self.problem.n_unknowns)
        if i not in self._operators:
            build, order, continued = self._orders[i]
            self._operators[i] = (*_operator_pair(self.grid, build, order), continued)
        op, adjoint, continued = self._operators[i]
        return op, adjoint, k, continued

    @property
    def maps(self) -> tuple[tuple[FracOperator, FracOperator, int, bool], ...]:
        """One map per channel; reading it builds every channel's operators."""
        return tuple(self._map(a) for a in range(len(self.names)))

    def channels(self, Y: np.ndarray, every: bool = False) -> list[np.ndarray | None]:
        """The channels of Y: integral, then (endpoint-continued) derivative.

        Channels that are not live are None, unless every is set.
        """
        return [self._channel(Y, a) if every or is_live else None
                for a, is_live in enumerate(self.live)]

    def _channel(self, Y: np.ndarray, a: int) -> np.ndarray:
        op, _, k, continued = self._map(a)
        vals = op.apply(Y[k])
        if continued:
            vals[0] = vals[1]
        return vals

    def env(self, c: list[np.ndarray | None]) -> dict:
        e = {"x": self.grid.nodes}
        e.update((name, v) for name, v in zip(self.names, c) if v is not None)
        for alias in self._aliases:
            if alias + "1" in e:
                e[alias] = e[alias + "1"]
        return e

    # -- functional, residual, gradient ------------------------------------

    def functional_value(self, expr: Expr, c: list[np.ndarray]) -> float:
        vals = _evaluate_array(expr, self.env(c), self.grid.n_nodes)
        return float(self.grid.quad_weights @ vals)

    def functional(self, Y: np.ndarray) -> float:
        return self.functional_value(self.problem.lagrangian, self.channels(Y))

    def residual_values(self, Y: np.ndarray) -> np.ndarray:
        return self._residual_from(self.channels(Y))

    def _residual_from(self, c: list[np.ndarray]) -> np.ndarray:
        return self.pullback(self.first_partials(c))

    def first_partials(self, c: list[np.ndarray | None]) -> list[np.ndarray | None]:
        """Node samples of dL/d(channel), one per channel; None where the
        partial is dropped (see partials)."""
        env = self.env(c)
        n = self.grid.n_nodes
        return [None if e is None else _evaluate_array(e, env, n) for e in self.partials]

    def pullback(self, p: list[np.ndarray | None]) -> np.ndarray:
        """sum_a adjoint_a(p_a) into the row of channel a's unknown.

        p holds one sample vector (or None, for zero) per channel.  This is
        the one place that applies the adjoint of the node-0 continuation:
        under the quadrature inner product, node 0's weighted value moves
        onto node 1.
        """
        w = self.grid.quad_weights
        g = np.zeros((self.problem.n_unknowns, self.grid.n_nodes))
        for a, pa in enumerate(p):
            if pa is None:
                continue
            _, adjoint, k, continued = self._map(a)
            if continued:
                pa = pa.copy()
                pa[1] += pa[0] * w[0] / w[1]
                pa[0] = 0.0
            g[k] += adjoint.apply(pa)
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
    def _second_partials(self) -> tuple[tuple[int, int, Expr], ...]:
        # (a, b, d2L/da db) for channels a <= b; pairs with a dropped first
        # partial and identically zero partials are dropped
        out = []
        for a, first in enumerate(self.partials):
            for b in range(a, len(self.names)):
                if first is None or self.partials[b] is None:
                    continue
                e = differentiate(first, self.names[b])
                if e != Num(0.0):
                    out.append((a, b, e))
        return tuple(out)

    def curvature(self, c: list[np.ndarray | None]) -> dict[tuple[int, int], np.ndarray]:
        """Node samples of the nonzero second partials of L.

        Keyed by channel pair (a, b), a <= b.  Samples add linearly, so the
        curvature of L + lam*g is the sum of the two dictionaries.
        """
        env = self.env(c)
        n = self.grid.n_nodes
        return {(a, b): _evaluate_array(e, env, n) for a, b, e in self._second_partials}

    def hessian_product(self, curvature: dict, D: np.ndarray) -> np.ndarray:
        """H D, the exact Hessian of the functional times node values D.

        H D = w * pullback(q) with q_a = sum_b s_ab (A_b D), over the
        channel pairs (a, b) in curvature; D and the result have one row
        per unknown.  Only channels that appear in curvature are applied,
        so a curved pair costs about two applies.
        """
        dc = {}
        q = [None] * len(self.names)
        for (a, b), s in curvature.items():
            for i, j in ((a, b),) if a == b else ((a, b), (b, a)):
                if j not in dc:
                    dc[j] = self._channel(D, j)
                q[i] = s * dc[j] if q[i] is None else q[i] + s * dc[j]
        return self.grid.quad_weights * self.pullback(q)

    def preconditioner(self, curvature: dict) -> Callable[[np.ndarray], np.ndarray]:
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
        blocks = []
        for k, (left, _) in enumerate(self.problem.pins):
            diag = [a for a, b in curvature if a == b and self._map(a)[2] == k]
            if not diag:
                continue
            a = max(diag, key=lambda a: _strength(self._map(a)[0]))
            op, _, _, continued = self._map(a)
            ws = w * curvature[a, a]
            if continued:
                ws[1] += ws[0]
            lo = 0 if left is None else 1
            ws = np.abs(ws[lo:])
            if lo == 0:
                ws[0] = ws[1]
            top = np.max(ws)
            if top > 0.0:
                blocks.append((k, lo, op.inverse_kernel,
                               np.maximum(ws, _WEIGHT_FLOOR * top), {}))

        def apply(R: np.ndarray) -> np.ndarray:
            # the two solves of every call read the transforms of c that
            # the first call made, one per level
            Z = R.copy()
            for k, lo, c, ws, spectra in blocks:
                u = _lower_toeplitz(c, R[k, lo:][::-1], spectra)[::-1] / ws
                Z[k, lo:] = _lower_toeplitz(c, u, spectra)
            return Z

        return apply


# preconditioner weights are floored at this fraction of the largest
_WEIGHT_FLOOR = 1e-12
# operator pairs a grid keeps, the oldest evicted first
_GRID_OPERATORS = 8


def _operator_pair(grid: Grid, build, order: float) -> tuple[FracOperator, FracOperator]:
    """build(grid, order) and its adjoint, kept on the grid for the next
    problem on it: they share the kernel transforms their applies keep and
    inverse_kernel.  A grid keeps the _GRID_OPERATORS pairs last made."""
    memo = grid._operator_pairs
    if (build, order) not in memo:
        if len(memo) == _GRID_OPERATORS:
            del memo[next(iter(memo))]
        op = build(grid, order)
        memo[build, order] = (op, build_right_adjoint(op))
    return memo[build, order]


def _strength(op: FracOperator) -> float:
    """The operator's order as a derivative: b for an RLFD of order b,
    -a for an RLFI of order a."""
    if op.kind is OperatorKind.LEFT_RLFD:
        return op.order.value
    return -op.order.value


def assemble(problem: VarProblem, grid: Grid) -> DiscreteProblem:
    return DiscreteProblem(problem, grid)


def _normalize_samples(
    problem: VarProblem, grid: Grid, y
) -> np.ndarray:
    """Coerce y (SampledFn, array, or sequence of those) to (K, n_nodes)."""
    K = problem.n_unknowns
    n1 = grid.n_cells + 1
    if isinstance(y, SampledFn):
        if y.grid != grid:
            raise ValueError("sample grid does not match the evaluation grid")
        items = [y.values]
    elif isinstance(y, np.ndarray) and y.ndim == 1:
        items = [y]
    elif isinstance(y, np.ndarray) and y.ndim == 2:
        items = list(y)
    else:
        items = [it.values if isinstance(it, SampledFn) else np.asarray(it) for it in y]
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
    Y = _normalize_samples(problem, grid, y)
    return dp.functional_value(problem.constraint.g, dp.channels(Y))
