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

The channel maps are linear and L acts pointwise, so the Hessian of the
discrete functional is exact as well:

    H = sum_ab A_a^T W diag(d2L/da db) A_b

over the channel maps A_a, with the node-0 continuation folded into the
weights (DiscreteProblem.hessian, which reads the operators' dense views).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

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
    for pair in pins:
        left, right = pair
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
    exact gradient and the exact Hessian; the solver drives everything
    through this object.  operators = (I_ops, D_ops) reuses the left
    operators of another DiscreteProblem on the same grid and orders.
    """

    def __init__(self, problem: VarProblem, grid: Grid, operators=None):
        if not np.isclose(grid.a, problem.a) or not np.isclose(grid.b, problem.b):
            raise ValueError(
                f"grid interval ({grid.a}, {grid.b}) does not match "
                f"problem interval ({problem.a}, {problem.b})"
            )
        self.problem = problem
        self.grid = grid
        K = problem.n_unknowns
        if operators is None:
            # integral channels carry the complementary order 1 - alpha
            operators = (
                tuple(build_left_rlfi(grid, 1.0 - a.value) for a in problem.alphas),
                tuple(build_left_rlfd(grid, b.value) for b in problem.betas),
            )
        self.I_ops, self.D_ops = operators
        self._RI_ops = tuple(build_right_adjoint(op) for op in self.I_ops)
        self._RD_ops = tuple(build_right_adjoint(op) for op in self.D_ops)
        self.u_names = problem.u_names()
        self.v_names = problem.v_names()
        # channel c = (i-1)*K + (k-1): order index and unknown index
        self.u_channels = tuple(
            (i, k) for i in range(len(problem.alphas)) for k in range(K)
        )
        self.v_channels = tuple(
            (j, k) for j in range(len(problem.betas)) for k in range(K)
        )
        # the aliases u and v name channel 1, so L mixing both spellings
        # differentiates by the indexed names alone
        L = _rename(problem.lagrangian, {"u": "u1", "v": "v1"})
        self.dL_du = tuple(differentiate(L, name) for name in self.u_names)
        self.dL_dv = tuple(differentiate(L, name) for name in self.v_names)

    def with_lagrangian(self, lagrangian: Expr) -> "DiscreteProblem":
        """The same problem and operators with another Lagrangian."""
        other = dataclasses.replace(self.problem, lagrangian=lagrangian, constraint=None)
        return DiscreteProblem(other, self.grid, (self.I_ops, self.D_ops))

    # -- channel maps ------------------------------------------------------

    def channels(self, Y: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Integral and (endpoint-continued) derivative channels of Y."""
        u = [self.I_ops[i].apply(Y[k]) for (i, k) in self.u_channels]
        v = []
        for (j, k) in self.v_channels:
            vals = self.D_ops[j].apply(Y[k])
            vals[0] = vals[1]
            v.append(vals)
        return u, v

    def env(self, u: list[np.ndarray], v: list[np.ndarray]) -> dict:
        e: dict = {"x": self.grid.nodes}
        for name, vals in zip(self.u_names, u):
            e[name] = vals
        for name, vals in zip(self.v_names, v):
            e[name] = vals
        if self.problem.n_u_channels == 1:
            e["u"] = u[0]
        if self.problem.n_v_channels == 1:
            e["v"] = v[0]
        return e

    # -- functional, residual, gradient ------------------------------------

    def functional_value(self, expr: Expr, u, v) -> float:
        vals = _evaluate_array(expr, self.env(u, v), self.grid.n_nodes)
        return float(self.grid.quad_weights @ vals)

    def functional(self, Y: np.ndarray) -> float:
        u, v = self.channels(Y)
        return self.functional_value(self.problem.lagrangian, u, v)

    def residual_values(self, Y: np.ndarray) -> np.ndarray:
        u, v = self.channels(Y)
        return self._residual_from(u, v)

    def _residual_from(self, u, v) -> np.ndarray:
        env = self.env(u, v)
        n = self.grid.n_nodes
        w = self.grid.quad_weights
        g = np.zeros((self.problem.n_unknowns, n))
        for c, (i, k) in enumerate(self.u_channels):
            p_expr = self.dL_du[c]
            if p_expr == Num(0.0):
                continue
            g[k] += self._RI_ops[i].apply(_evaluate_array(p_expr, env, n))
        for c, (j, k) in enumerate(self.v_channels):
            q_expr = self.dL_dv[c]
            if q_expr == Num(0.0):
                continue
            # adjoint of the node-0 continuation under the quadrature inner
            # product: node 0's weighted value moves onto node 1
            q = _evaluate_array(q_expr, env, n).copy()
            q[1] += q[0] * w[0] / w[1]
            q[0] = 0.0
            g[k] += self._RD_ops[j].apply(q)
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
        # (a, b, d2L/da db) for a <= b over the u channels, then the v
        # channels; identically zero partials are dropped
        names = self.u_names + self.v_names
        out = []
        for a, first in enumerate(self.dL_du + self.dL_dv):
            for b in range(a, len(names)):
                e = differentiate(first, names[b])
                if e != Num(0.0):
                    out.append((a, b, e))
        return tuple(out)

    def curvature(self, u, v) -> dict[tuple[int, int], np.ndarray]:
        """Node samples of the nonzero second partials of L.

        Keyed by channel pair (a, b), a <= b, indexing the u channels first
        and then the v channels.  Samples add linearly, so the curvature of
        L + lam*g is the sum of the two dictionaries.
        """
        env = self.env(u, v)
        n = self.grid.n_nodes
        return {(a, b): _evaluate_array(e, env, n) for a, b, e in self._second_partials}

    def hessian(self, curvature: dict, free: Sequence[slice]) -> np.ndarray:
        """Exact Hessian of the functional on the free node values.

        free holds one contiguous slice of node indices per unknown; rows and
        columns follow the unknowns in order.  The dense tables
        (FracOperator.coeffs, built on first use and cached) of the channels
        that appear in curvature enter as views of their free columns; the
        other channels' tables are never built.  The node-0 continuation of
        the v channels is folded into the weights: row 0 of a continued v
        channel repeats row 1, and row 0 of an integral table is zero.
        """
        w = self.grid.quad_weights
        ops = [(self.I_ops[i], k) for i, k in self.u_channels]
        ops += [(self.D_ops[j], k) for j, k in self.v_channels]
        tables = {c: (ops[c][0].coeffs, ops[c][1]) for pair in curvature for c in pair}
        n_u = len(self.u_channels)
        offsets = np.cumsum([0] + [s.stop - s.start for s in free])
        blocks = [slice(lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:])]
        H = np.zeros((offsets[-1], offsets[-1]))
        for (a, b), s in curvature.items():
            ws = w * s
            if a >= n_u:  # v-v pair
                ws[1] += ws[0]
            ws[0] = 0.0
            (A, ka), (B, kb) = tables[a], tables[b]
            blk = A[:, free[ka]].T @ (ws[:, None] * B[:, free[kb]])
            H[blocks[ka], blocks[kb]] += blk
            if a != b:
                H[blocks[kb], blocks[ka]] += blk.T
        return H


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
    u, v = dp.channels(Y)
    return dp.functional_value(problem.constraint.g, u, v)
