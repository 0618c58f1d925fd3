"""Discrete Riemann-Liouville operators on uniform grids.

Four operator kinds at a fixed order in (0, 1):

* left RLFI   (I^a f)(x) = (1/Gamma(a)) int_a^x (x-t)^(a-1) f(t) dt
  discretized by the product-trapezoid rule: f is interpolated piecewise
  linearly and the kernel moments are integrated exactly, which makes the
  scheme exact for piecewise-linear f and second-order for C^2 f.
* left RLFD   Grunwald-Letnikov: (D^b f)(x_i) ~ h^-b sum_k w_k f(x_{i-k})
  with w_0 = 1, w_k = w_{k-1} (1 - (b+1)/k), the coefficients of
  (1 - z)^b.  First order where the RL derivative is smooth; reproduces
  the RL (not Caputo) derivative, including the (x-a)^-b blow-up when
  f(a) != 0.
* right operators, adjoint built: R = W^-1 L^T W with W = diag(trapezoid
  weights), so the discrete integration-by-parts identity
  <g, L f>_w = <f, R g>_w holds to machine precision by construction.
* right operators, direct: mirror of the left scheme (reverse, apply,
  reverse).  Pointwise accurate everywhere but does not satisfy discrete
  integration by parts exactly; kept as a cross-check.

Structure.  Both left schemes are lower-triangular Toeplitz on a uniform
grid: L[i, j] = t[i - j] for j >= 1.  The RLFD's column 0 is the kernel t
itself; the RLFI's column 0 is a separate endpoint-correction vector (and
its row 0 is zero).  An operator therefore stores two vectors of N + 1
numbers, never an N x N table, and applies itself by one lower-triangular
Toeplitz matvec of the kernel with the samples plus O(N) endpoint work.
The adjoint is the same matvec on reversed, weighted input, divided by
the weights; the mirror reverses input and output.

Apply cost.  Up to _LEAF = 768 cells the matvec is one direct
np.convolve, O(N^2).  Beyond that it follows the triangular-Toeplitz
block scheme of Hairer, Lubich and Schlichte (1985): the diagonal
triangles of _TRI = 128 rows are one matrix product, the samples cut into
rows of _TRI times an upper-triangular Toeplitz block of the kernel, and
the below-diagonal squares of a dyadic splitting (side s = _TRI, 2 _TRI,
...) go through one batched FFT of size 2s per level, O(N log^2 N) time
and O(N) memory in all.  The triangle block and the kernel's transform at
each level are made on an operator's first apply and kept with it, shared
with its adjoint (build_right_adjoint), so every later apply of either
reuses them.  Causality stays exact: output i of a left operator depends
on samples 0..i only, bit for bit, at every N and for any samples.  A
direct convolution reads only the samples at or before each output; each
square is transformed on its own (a batched FFT shares no arithmetic
between rows) and its rows lie strictly after its columns; and the
triangle product meets each later sample with an exact zero.  Since
0 * inf and 0 * nan are nan, the product takes a non-finite sample as 0
and adds its terms to the outputs at and after it on their own.  The
round-off is about 1e-15 of the largest row sum of |L_ij f_j|, as for
the direct convolution.

The inverse of the Toeplitz part is lower-triangular Toeplitz as well;
FracOperator.inverse_kernel gives its kernel in O(N) (closed form for the
RLFD, a power-series reciprocal for the RLFI), and the solver's
preconditioner applies it through the same matvec.

The dense table (FracOperator.coeffs) is gathered from the kernel on
first access and then cached.  No library code reads it; tests do.

Sharing.  DiscreteProblem (problems.py) takes each left operator and its
adjoint from a memo on the Grid, keyed by builder and order, which keeps
the last 8 pairs made and evicts the oldest.  Every problem on one grid
object, and every evaluation of one, so reuses the operators with their
triangle block, level transforms and inverse_kernel, and every
preconditioner the transforms of inverse_kernel.

Operators are immutable; applying one is a pure function.  Endpoint rows
of derivative-kind operators are reported but unreliable, and the first
row of an adjoint-built right operator carries an O(h^order) defect from
the halved endpoint quadrature weight; accuracy claims hold on interior
nodes (see Grid.interior).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grids import Grid, SampledFn
from .special import gamma

__all__ = [
    "FracOrder",
    "OperatorKind",
    "FracOperator",
    "build_left_rlfi",
    "build_left_rlfd",
    "build_right_adjoint",
    "build_right_rlfi",
    "build_right_rlfd",
]


@dataclass(frozen=True)
class FracOrder:
    """Fractional order restricted to the open interval (0, 1)."""

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if not np.isfinite(v) or not 0.0 < v < 1.0:
            raise ValueError(f"fractional order must lie in (0, 1), got {self.value!r}")
        object.__setattr__(self, "value", v)


class OperatorKind(enum.Enum):
    LEFT_RLFI = "left-rlfi"
    RIGHT_RLFI = "right-rlfi"
    LEFT_RLFD = "left-rlfd"
    RIGHT_RLFD = "right-rlfd"

    @property
    def is_left(self) -> bool:
        return self in (OperatorKind.LEFT_RLFI, OperatorKind.LEFT_RLFD)


_RIGHT_KIND = {
    OperatorKind.LEFT_RLFI: OperatorKind.RIGHT_RLFI,
    OperatorKind.LEFT_RLFD: OperatorKind.RIGHT_RLFD,
}

# how an operator acts, given its left operator L
_FORMS = ("left", "adjoint", "mirror")


@dataclass(frozen=True, eq=False)
class FracOperator:
    """One discrete RL operator, stored as the Toeplitz structure it has.

    Every operator derives from a left operator L of its order on its
    grid, L[i, j] = _kernel[i - j] for 1 <= j <= i and L[:, 0] = _col0.
    _form records the derivation: "left" is L itself, "adjoint" is
    W^-1 L^T W (build_right_adjoint), "mirror" is L with node order
    reversed on input and output (build_right_rlfi, build_right_rlfd).

    Storage is O(N).  apply is one lower-triangular Toeplitz matvec
    (_lower_toeplitz) plus O(N) endpoint work: a direct convolution up to
    _LEAF = 768 cells; beyond, the block scheme with _TRI = 128 triangles
    as one matrix product and FFT squares, O(N log^2 N) time.  Left kinds
    are exactly causal at every N, non-finite samples included.  _spectra
    keeps the triangle block and the kernel's per-level transforms from
    the first block-path apply on, and under "inverse" those of
    inverse_kernel for the preconditioner; an adjoint shares its left
    operator's dict.  The dense table coeffs is built only when first
    read (by tests; the library never reads it), then cached.  Construct
    operators through the build_* functions; DiscreteProblem takes them
    from a memo on the grid that keeps the last 8 (operator, adjoint)
    pairs.
    """

    kind: OperatorKind
    order: FracOrder
    grid: Grid
    _kernel: np.ndarray = field(repr=False)
    _col0: np.ndarray = field(repr=False)
    _form: str = "left"
    _spectra: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        n = self.grid.n_cells + 1
        for name in ("_kernel", "_col0"):
            vec = np.array(getattr(self, name), dtype=float)
            if vec.shape != (n,):
                raise ValueError(f"{name} must have {n} entries, got shape {vec.shape}")
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)
        if self._form not in _FORMS:
            raise ValueError(f"unknown operator form {self._form!r}")
        if (self._form == "left") != self.kind.is_left:
            raise ValueError(f"{self.kind} cannot take the {self._form!r} form")

    def apply(self, f: SampledFn | np.ndarray) -> SampledFn | np.ndarray:
        """Apply the operator to node samples.

        SampledFn in, SampledFn out (grids must match); a bare array of
        node values returns a bare array.
        """
        if isinstance(f, SampledFn):
            if f.grid != self.grid:
                raise ValueError("sample grid does not match operator grid")
            return SampledFn(self.grid, self._act(f.values))
        vals = np.asarray(f, dtype=float)
        if vals.shape != (self.grid.n_cells + 1,):
            raise ValueError(
                f"expected {self.grid.n_cells + 1} samples, got shape {vals.shape}"
            )
        return self._act(vals)

    def _act(self, f: np.ndarray) -> np.ndarray:
        if self._form == "left":
            return self._lower(f)
        if self._form == "mirror":
            return self._lower(f[::-1])[::-1]
        w = self.grid.quad_weights
        return self._lower_transposed(w * f) / w

    def _lower(self, f: np.ndarray) -> np.ndarray:
        # L f is f[0] * _col0 plus the Toeplitz part on columns 1..N,
        # shifted down one row
        out = self._col0 * f[0]
        out[1:] += _lower_toeplitz(self._kernel, f[1:], self._spectra)
        return out

    def _lower_transposed(self, q: np.ndarray) -> np.ndarray:
        # L^T q: row 0 is _col0 . q; rows 1..N are the same matvec on
        # reversed input, reversed back
        out = np.empty(self.grid.n_cells + 1)
        out[0] = self._col0 @ q
        out[1:] = _lower_toeplitz(self._kernel, q[:0:-1], self._spectra)[::-1]
        return out

    @cached_property
    def inverse_kernel(self) -> np.ndarray:
        """Kernel of the inverse of the Toeplitz part, read-only; O(N).

        The lower-triangular Toeplitz matrix with kernel _kernel, on any
        number of leading rows, has as inverse the one with this kernel.
        For the RLFD (h^-b times the coefficients of (1 - z)^b) it is h^b
        times the coefficients of (1 - z)^-b: c_0 = 1 and
        c_k = c_{k-1} (k - 1 + b) / k (Lubich 1986).  For the RLFI it is
        the power-series reciprocal of the kernel, by Newton doubling
        r <- r (2 - t r) mod z^2m, four matvecs of length N in all.
        """
        t = self._kernel
        if self.kind in (OperatorKind.LEFT_RLFD, OperatorKind.RIGHT_RLFD):
            b = self.order.value
            k = np.arange(1, t.size)
            inv = self.grid.h**b * np.concatenate(([1.0], np.cumprod((k - 1.0 + b) / k)))
        else:
            inv = np.array([1.0 / t[0]])
            while inv.size < t.size:
                m = min(2 * inv.size, t.size)
                r = np.zeros(m)
                r[: inv.size] = inv
                e = -_lower_toeplitz(t, r)
                e[0] += 2.0
                inv = _lower_toeplitz(r, e)
        inv.setflags(write=False)
        return inv

    @cached_property
    def coeffs(self) -> np.ndarray:
        """Dense (N+1) x (N+1) table, read-only; O(N^2) memory.

        coeffs[i, j] is the weight of sample f(x_j) in the output at x_i;
        left kinds are lower triangular, right kinds upper triangular.
        Gathered from the kernel on first access and cached; apply never
        reads it.
        """
        n = self.grid.n_cells
        # row i of L is the window of (reversed kernel, n zeros) that starts
        # at offset n - i: kernel[i], ..., kernel[0], then zeros
        padded = np.concatenate((self._kernel[::-1], np.zeros(n)))
        table = sliding_window_view(padded, n + 1)[::-1].copy()
        table[:, 0] = self._col0
        if self._form == "adjoint":
            w = self.grid.quad_weights
            table = (table.T * w[None, :]) / w[:, None]
        elif self._form == "mirror":
            table = table[::-1, ::-1].copy()
        table.setflags(write=False)
        return table


# at or below _LEAF samples _lower_toeplitz is one np.convolve; beyond,
# its block scheme's diagonal triangles have side _TRI
_LEAF = 768
_TRI = 128


def _lower_toeplitz(t: np.ndarray, x: np.ndarray, spectra: dict | None = None) -> np.ndarray:
    """y[i] = sum_{j <= i} t[i - j] x[j] for i < n = len(x); t has >= n lags.

    Up to _LEAF samples, one direct convolution.  Beyond, the
    Hairer-Lubich-Schlichte block scheme: the diagonal triangles of _TRI
    rows are one matrix product of the samples, _TRI to a row, with the
    upper-triangular Toeplitz block tri[j, i] = t[i - j] (j <= i); at each
    level s = _TRI, 2 _TRI, ... the squares with rows [(2q+1)s, (2q+2)s)
    and columns [2qs, (2q+1)s) use lags 1..2s-1 and go through one batched
    rfft/irfft of size 2s.  Every (row, column) pair below the diagonal
    triangles lies in exactly one square: the level of the highest bit
    where their triangle indices differ.  The product meets each later
    sample with an exact zero, and 0 * inf and 0 * nan are nan, so it
    takes a non-finite sample j as 0, and j's terms are added to rows j
    up to the end of its triangle on their own.

    spectra, if given, is a dict the caller keeps for t: it maps "tri" to
    the triangle block and (n, s) to the transform of t's lags at level s,
    each filled on first use and read by later calls.  Reading them
    changes no bit of y.
    """
    n = x.size
    if n <= _LEAF:
        return np.convolve(t[:n], x)[:n]
    # pad to _TRI * 2^k so that every level's squares tile the arrays
    size = _TRI << (-(-n // _TRI) - 1).bit_length()
    cols = np.zeros(size)
    cols[:n] = x
    y = np.zeros(size)
    spectra = {} if spectra is None else spectra
    if "tri" not in spectra:
        # row j: zeros before column j, then t[0], ..., t[_TRI - 1 - j]
        padded = np.concatenate((np.zeros(_TRI - 1), t[:_TRI]))
        spectra["tri"] = sliding_window_view(padded, _TRI)[::-1].copy()
    lead = cols[: -(-n // _TRI) * _TRI]
    bad = ~np.isfinite(lead)
    if bad.any():
        lead = np.where(bad, 0.0, lead)
    np.matmul(lead.reshape(-1, _TRI), spectra["tri"], out=y[: lead.size].reshape(-1, _TRI))
    for j in np.flatnonzero(bad):
        end = j - j % _TRI + _TRI
        y[j:end] += t[: end - j] * x[j]
    s = _TRI
    while s < n:
        if (n, s) not in spectra:
            # lags 1..2s-1 of t; those at n or beyond reach no row below n
            lags = np.zeros(2 * s - 1)
            m = min(2 * s, n) - 1
            lags[:m] = t[1 : m + 1]
            spectra[n, s] = np.fft.rfft(lags, 2 * s)
        q = (n - s - 1) // (2 * s) + 1  # squares whose rows start before n
        blocks = cols[: 2 * q * s].reshape(q, 2 * s)[:, :s]
        spec = np.fft.rfft(blocks, 2 * s) * spectra[n, s]
        # row r of a square is entry s - 1 + r of the linear convolution;
        # the circular wrap lands on entries below s - 1 only
        y[: 2 * q * s].reshape(q, 2 * s)[:, s:] += np.fft.irfft(spec, 2 * s)[:, s - 1 : -1]
        s *= 2
    return y[:n]


def build_left_rlfi(grid: Grid, order: FracOrder | float) -> FracOperator:
    """Left Riemann-Liouville fractional integral, product-trapezoid rule.

    Row 0 is identically zero (integral over an empty interval).
    """
    order = _as_order(order)
    a = order.value
    n = grid.n_cells
    p = a + 1.0
    kappa = grid.h**a / gamma(a + 2.0)

    # interior band: second difference of m**(a+1) at lag m >= 1, 1 at lag 0
    m = np.arange(1, n + 1, dtype=float)
    band = np.concatenate(([1.0], (m + 1.0) ** p - 2.0 * m**p + (m - 1.0) ** p))
    # boundary column j = 0 absorbs the non-Toeplitz endpoint correction
    i_f = np.arange(n + 1, dtype=float)
    im1 = np.maximum(i_f - 1.0, 0.0)
    col0 = im1**p - i_f**a * (i_f - a - 1.0)
    col0[0] = 0.0
    return FracOperator(OperatorKind.LEFT_RLFI, order, grid, kappa * band, kappa * col0)


def build_left_rlfd(grid: Grid, order: FracOrder | float) -> FracOperator:
    """Left Riemann-Liouville fractional derivative, Grunwald-Letnikov."""
    order = _as_order(order)
    b = order.value
    k = np.arange(1, grid.n_cells + 1)
    w = np.concatenate(([1.0], np.cumprod(1.0 - (b + 1.0) / k)))
    kernel = grid.h ** (-b) * w
    return FracOperator(OperatorKind.LEFT_RLFD, order, grid, kernel, kernel)


def build_right_adjoint(op: FracOperator) -> FracOperator:
    """Right operator as the quadrature adjoint of a left one.

    R = W^-1 L^T W, the unique table satisfying the discrete
    integration-by-parts identity sum_i w_i g_i (Lf)_i = sum_i w_i f_i (Rg)_i
    exactly for all f, g.  Built from the left operator's two vectors; O(N).
    """
    if not op.kind.is_left:
        raise ValueError(f"adjoint construction expects a left operator, got {op.kind}")
    return FracOperator(
        _RIGHT_KIND[op.kind], op.order, op.grid, op._kernel, op._col0, "adjoint",
        op._spectra,
    )


def build_right_rlfi(grid: Grid, order: FracOrder | float) -> FracOperator:
    """Right RLFI by direct mirroring of the left scheme (cross-check only)."""
    return _mirror(build_left_rlfi(grid, order))


def build_right_rlfd(grid: Grid, order: FracOrder | float) -> FracOperator:
    """Right RLFD by direct mirroring of the left scheme (cross-check only)."""
    return _mirror(build_left_rlfd(grid, order))


def _mirror(left: FracOperator) -> FracOperator:
    kind = _RIGHT_KIND[left.kind]
    return FracOperator(kind, left.order, left.grid, left._kernel, left._col0, "mirror")


def _as_order(order: FracOrder | float) -> FracOrder:
    return order if isinstance(order, FracOrder) else FracOrder(order)
