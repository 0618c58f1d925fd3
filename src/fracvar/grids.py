"""Uniform grids, trapezoid quadrature weights, and sampled functions."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = ["Grid", "SampledFn", "sample", "weighted_norm"]


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [a, b] into n_cells cells.

    Nodes are x_i = a + i*h for i = 0..n_cells with h = (b-a)/n_cells.
    Quadrature weights are the composite trapezoid rule: h/2 at the two
    endpoints, h at interior nodes.  The same weights are used everywhere
    in the toolkit (functionals, adjoints, norms).
    """

    a: float
    b: float
    n_cells: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("grid endpoints must be finite")
        if not self.b > self.a:
            raise ValueError(f"grid requires b > a, got a={self.a}, b={self.b}")
        object.__setattr__(self, "n_cells", _integer(self.n_cells, "n_cells"))

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @cached_property
    def nodes(self) -> np.ndarray:
        x = np.linspace(self.a, self.b, self.n_cells + 1)
        x.setflags(write=False)
        return x

    @cached_property
    def quad_weights(self) -> np.ndarray:
        w = np.full(self.n_cells + 1, self.h)
        w[0] = w[-1] = self.h / 2.0
        w.setflags(write=False)
        return w

    @cached_property
    def _problems(self) -> dict:
        # problems assembled on this grid, kept by problems.assemble
        return {}

    def interior(self) -> slice:
        """Slice of nodes away from both endpoints, n_cells // 16 (at least
        1) at each end: operator endpoint rows are unreliable, and
        norm-based accuracy checks use this mask."""
        margin = max(1, self.n_cells // 16)
        if 2 * margin >= self.n_cells + 1:
            raise ValueError(f"margin {margin} leaves no interior nodes")
        return slice(margin, self.n_cells + 1 - margin)


def _integer(n, name: str, lo: int = 1, hi: float = np.inf) -> int:
    """n as an int; every count is an int or numpy integer, not a bool, in [lo, hi]."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not lo <= n <= hi:
        bound = f">= {lo}" if hi == np.inf else f"from {lo} to {hi}"
        raise ValueError(f"{name} must be an integer {bound}, got {n!r}")
    return int(n)


@dataclass(frozen=True)
class SampledFn:
    """Node samples of a function on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.shape != (self.grid.n_cells + 1,):
            raise ValueError(
                f"expected {self.grid.n_cells + 1} samples, got shape {vals.shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def sample(grid: Grid, fn: Callable[[np.ndarray], np.ndarray]) -> SampledFn:
    """Sample a callable at the grid nodes (vectorized call, scalar fallback)."""
    try:
        vals = np.asarray(fn(grid.nodes), dtype=float)
        if vals.shape != grid.nodes.shape:
            raise TypeError
    except TypeError:
        vals = np.array([float(fn(x)) for x in grid.nodes])
    return SampledFn(grid, vals)


def weighted_norm(grid: Grid, values: np.ndarray) -> float:
    """Quadrature-weighted L2 norm sqrt(sum_i w_i * v_i**2).

    Accepts a flat vector of node values or a stacked (k, n_nodes) array,
    in which case the sum runs over all rows.  It is finite for finite
    values short of the float range, inf for an inf and NaN for a NaN.
    """
    return _weighted_l2(grid.quad_weights, np.asarray(values, dtype=float))


def _weighted_l2(w: np.ndarray, v: np.ndarray) -> float:
    """sqrt(sum w * v**2), w > 0 broadcast against v.  An inf or NaN value
    gives inf or NaN, and a largest magnitude past 1e150 divides the
    values first, so that their squares cannot overflow."""
    top = float(np.abs(v).max(initial=0.0))
    if not top <= 1e150:
        return top * _weighted_l2(w, v / top) if top < np.inf else top
    return float(np.sqrt(np.sum(w * v * v)))
