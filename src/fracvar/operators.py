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
np.convolve, O(N^2).  Beyond that the samples are cut into blocks of
_BLOCK = 256.  The diagonal blocks are two matrix products with Toeplitz
blocks of the kernel (triangles of _TRI = 128 rows and the square below
them), and every pair of blocks goes through a frequency-domain delay
line (uniformly partitioned convolution, Gardner 1995): each block is
transformed once per level, the products for a block summed in the
frequency domain and inverted once.  Past _SPAN = 48 blocks only the
pairs inside groups of _RADIX = 8 blocks stay on a level, and the groups
are the blocks of the next one; the arrays are padded to a multiple of
the top level's block.  That is O(N log^2 N) time and O(N) memory in
all; at N = 4096 a warm apply takes about 0.2 ms, against 2.4 ms for
the direct convolution (2 vCPUs, one BLAS thread).  The near-field block
and the kernel's transforms at each level are made on an operator's
first apply and kept with it, shared with its adjoint
(build_right_adjoint), so every later apply of either reuses them.  Causality stays exact: output
i of a left operator depends on samples 0..i only, bit for bit, at every
N and for any samples.  A direct convolution reads only the samples at
or before each output; each block is transformed on its own (a batched
FFT shares no arithmetic between rows) and a block's output sums
products of earlier blocks only; and the near-field products meet each
later sample with an exact zero.  Since 0 * inf and 0 * nan are nan,
they take a non-finite sample as 0 and add its terms to the outputs at
and after it on their own.  The round-off is about 1e-15 of the largest
row sum of |L_ij f_j|, as for the direct convolution.

The inverse of the Toeplitz part is lower-triangular Toeplitz as well;
FracOperator.inverse_kernel gives its kernel in O(N) (closed form for the
RLFD, a power-series reciprocal for the RLFI), and the solver's
preconditioner applies it through the same matvec.

The dense table (FracOperator.coeffs) is gathered from the kernel on
first access and then cached.  No library code reads it; tests do.

Sharing.  DiscreteProblem (problems.py) builds each left operator it
needs and its adjoint once, and the Grid keeps the last 8 problems
assembled on it (problems.assemble).  Every evaluation of one problem on
one grid object so reuses the operators with their near-field block,
level transforms and inverse_kernel, and every preconditioner the
near-field block and level transforms of inverse_kernel.

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
    _LEAF = 768 cells; beyond, blocks of _BLOCK = 256 samples, the
    diagonal ones as matrix products and every pair of them through a
    frequency-domain delay line of radix _RADIX, O(N log^2 N) time.  Left
    kinds are exactly causal at every N, non-finite samples included.
    _spectra keeps the near-field block and the kernel's per-level
    transforms from the first block-path apply on, and under "inverse"
    those of inverse_kernel for the preconditioner; an adjoint shares its
    left operator's dict.  The dense table coeffs is built only when first
    read (by tests; the library never reads it), then cached.  Construct
    operators through the build_* functions; a DiscreteProblem builds
    the (operator, adjoint) pairs it needs once, and its grid keeps it.
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
# the diagonal blocks of side _BLOCK are two matrix products with triangles
# of side _TRI, and pairs of blocks go through a frequency-domain delay
# line: groups of _RADIX blocks on every level but the top, which pairs up
# at most _SPAN blocks
_LEAF = 768
_TRI = 128
_BLOCK = 2 * _TRI
_RADIX = 8
_SPAN = 48


def _lower_toeplitz(t: np.ndarray, x: np.ndarray, spectra: dict | None = None) -> np.ndarray:
    """y[i] = sum_{j <= i} t[i - j] x[j] for i < n = len(x); t has >= n lags.

    Up to _LEAF samples, one direct convolution.  Beyond, the samples are
    cut into blocks of side _BLOCK = 2 _TRI.  A diagonal block is two
    matrix products of the samples, a block to a row: its first half is
    the upper-triangular Toeplitz block tri[j, i] = t[i - j] (j <= i) on
    the first half of the samples, its second half the same triangle on
    the second half plus the square of lags 1..2 _TRI - 1 on the first.
    Every pair of blocks (i, j), j < i, goes through a frequency-domain
    delay line (uniformly partitioned convolution, Gardner 1995): each
    block is transformed once by an rfft of size 2s, the pair is the
    product with the transform K[i - j - 1] of lags (i-j-1)s + 1 ..
    (i-j+1)s - 1, and the products summed for block i are inverted once.
    Past _SPAN blocks only the pairs inside each group of _RADIX blocks
    stay on that level, and the groups become the blocks of the next
    level, of side _RADIX s, which pairs them up the same way.  The
    arrays are padded to a multiple of the top level's side.

    Output block i reads only transforms of blocks before it, and the
    products meet each later sample with an exact zero, so y[i] depends
    on x[:i + 1] only, bit for bit.  Since 0 * inf and 0 * nan are nan,
    the products take a non-finite sample j as 0, and j's terms are added
    to rows j up to the end of its block on their own.

    spectra, if given, is a dict the caller keeps for t: it maps "near"
    to the diagonal blocks' stacked square and triangle and (n, s) to the
    transforms K of the level of side s, each filled on first use and
    read by later calls.  Reading them changes no bit of y.
    """
    n = x.size
    if n <= _LEAF:
        return np.convolve(t[:n], x)[:n]
    sides = [_BLOCK]
    while -(-n // sides[-1]) > _SPAN:
        sides.append(_RADIX * sides[-1])
    size = -(-n // sides[-1]) * sides[-1]
    cols = np.zeros(size)
    cols[:n] = x
    y = np.zeros(size)
    spectra = {} if spectra is None else spectra
    if "near" not in spectra:
        # row j of the square is t[_TRI - j], ..., t[2 _TRI - 1 - j]; row
        # _TRI + j of the triangle is zeros before column j, then t[0], ...
        padded = np.concatenate((np.zeros(_TRI - 1), t[: 2 * _TRI]))
        spectra["near"] = sliding_window_view(padded, _TRI)[::-1].copy()
    near = spectra["near"]
    nb = -(-n // _BLOCK)
    lead = cols[: nb * _BLOCK]
    bad = ~np.isfinite(lead)
    if bad.any():
        lead = np.where(bad, 0.0, lead)
    lead = lead.reshape(nb, _BLOCK)
    rows = y[: nb * _BLOCK].reshape(nb, _BLOCK)
    np.matmul(lead[:, :_TRI], near[_TRI:], out=rows[:, :_TRI])
    np.matmul(lead, near, out=rows[:, _TRI:])
    for j in np.flatnonzero(bad):
        end = j - j % _BLOCK + _BLOCK
        y[j:end] += t[: end - j] * x[j]
    for s in sides:
        g = -(-n // s) if s == sides[-1] else _RADIX  # blocks to a group
        ng = -(-n // (g * s))  # groups that hold samples
        if (n, s) not in spectra:
            # lags at n or beyond reach no row below n
            lags = np.zeros(g * s)
            lags[: min(g * s, n)] = t[: min(g * s, n)]
            segments = sliding_window_view(lags[1:], 2 * s - 1)[::s]
            spectra[n, s] = np.fft.rfft(segments, 2 * s)
        K = spectra[n, s]
        # (place in the group, group, sample): places 0..g-2 are read and
        # 1..g-1 written; X holds place q in its rows q ng .. (q + 1) ng - 1,
        # Y place p in rows (p - 1) ng .. p ng - 1
        places = cols[: ng * g * s].reshape(ng, g, s).transpose(1, 0, 2)
        X = np.fft.rfft(places[:-1].copy(), 2 * s).reshape(-1, s + 1)
        Y = K[0] * X  # distance 1 reaches every row of Y
        prod = np.empty_like(X)
        for d in range(2, g):
            m = (g - d) * ng
            np.multiply(K[d - 1], X[:m], out=prod[:m])
            Y[(d - 1) * ng :] += prod[:m]
        # row r of block i is entry s - 1 + r of the linear convolution;
        # the circular wrap lands on entries below s - 1 only
        out = y[: ng * g * s].reshape(ng, g, s).transpose(1, 0, 2)[1:]
        out += np.fft.irfft(Y.reshape(g - 1, ng, s + 1), 2 * s)[..., s - 1 : -1]
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
