"""Sufficiency checks for candidate minimizers.

Three layers, in increasing strength:

* joint convexity of the Lagrangian in its channel arguments, certified by
  sampling the gradient inequality over a box (plus a sampled Hessian
  cross-check) -- a pragmatic certificate, not a proof;
* the excess function E(x,u,z,w) = L(x,u,w) - L(x,u,z) - dL/dv(x,u,z)*(w-z),
  nonnegative whenever L is convex in its derivative slot;
* exact-field verification: a slope field phi(x,y) with potential s(x,y)
  satisfying two partial-derivative identities; a trajectory of the field
  equation is then compared against the closed-form value s(b,.) - s(a,.).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import (
    Expr,
    Num,
    differentiate,
    evaluate,
    free_vars,
    parse,
    _eval,
    _evaluate_array,
)
from .grids import Grid, SampledFn, _weighted_l2
from .problems import VarProblem, assemble, _curved_pairs, _first_partials, _normalize_samples

__all__ = [
    "Counterexample",
    "ConvexityReport",
    "ExactField",
    "FieldReport",
    "FieldTrajectoryReport",
    "check_convexity",
    "gradient_inequality_gap",
    "excess",
    "check_field",
    "verify_field_minimizer",
]

_TOL = 1e-9
_MAX_INCONCLUSIVE = 16


def _as_expr(L) -> Expr:
    return parse(L) if isinstance(L, str) else L


def _lagrangian(L) -> Expr:
    """L as an expression; a name other than x, u and v is an error, not a
    point where L is undefined."""
    L = _as_expr(L)
    extra = free_vars(L) - {"x", "u", "v"}
    if extra:
        raise ValueError(f"L may use only x, u and v, found {sorted(extra)}")
    return L


def _check_box(box, n_axes: int, what: str):
    box = tuple(tuple(float(v) for v in pair) for pair in box)
    if len(box) != n_axes:
        raise ValueError(f"{what} needs {n_axes} (lo, hi) pairs, got {len(box)}")
    for lo, hi in box:
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"{what} bounds must be finite with lo < hi, got ({lo}, {hi})")
    return box


@dataclass(frozen=True)
class Counterexample:
    """A sampled point and increment where the gradient inequality fails."""

    x: float
    u: float
    v: float
    du: float
    dv: float
    violation: float  # gap value; negative means the inequality failed by that much


@dataclass(frozen=True)
class ConvexityReport:
    convex: bool
    counterexample: Counterexample | None
    box: tuple[tuple[float, float], ...]
    samples_per_axis: int
    inconclusive: tuple[tuple[float, float, float], ...] = ()


def gradient_inequality_gap(L, x, u, v, du, dv) -> float:
    """L(x,u+du,v+dv) - L(x,u,v) - dL/du*du - dL/dv*dv (negative = violation)."""
    L = _as_expr(L)
    base = {"x": x, "u": u, "v": v}
    bumped = {"x": x, "u": u + du, "v": v + dv}
    return float(
        evaluate(L, bumped)
        - evaluate(L, base)
        - evaluate(differentiate(L, "u"), base) * du
        - evaluate(differentiate(L, "v"), base) * dv
    )


def _marked(expr: Expr, env: dict, shape) -> tuple[np.ndarray, np.ndarray]:
    """expr on env in one marking pass: its values of the given shape, NaN
    where it is undefined, and the mask of those points."""
    bad = np.zeros(shape, dtype=bool)
    out = _eval(expr, env, bad)
    return np.where(bad, np.nan, out), bad


def _sample_grid(expr: Expr, env: dict, shape, inconclusive: list, coords) -> np.ndarray:
    """Evaluate on a full grid in one array pass; NaN out the points where
    expr is undefined and log the first of them, in flat order, that are
    not logged yet, up to _MAX_INCONCLUSIVE in all, each as its values of
    the env names in coords."""
    out, bad = _marked(expr, env, shape)
    for point in zip(*(np.broadcast_to(env[k], shape)[bad].tolist() for k in coords)):
        if len(inconclusive) == _MAX_INCONCLUSIVE:
            break
        if point not in inconclusive:
            inconclusive.append(point)
    return out


def check_convexity(L, box, samples_per_axis: int = 9) -> ConvexityReport:
    """Sampled certificate that L(x, u, v) is jointly convex in (u, v).

    Checks the gradient inequality
        L(x, u+du, v+dv) - L(x, u, v) >= dL/du * du + dL/dv * dv
    for every sampled base point and every sampled increment that stays in
    the box, and cross-checks the sampled (u, v) Hessian for positive
    semidefiniteness.  L, its u and v partials and its uu, uv and vv
    partials (by the solver's derivation rule; one it drops is zero) are
    each sampled once on one (x, u, v) grid of samples_per_axis points per
    axis, an integer >= 3.  Convex means both passed at every conclusive
    point and some gradient-inequality sample was conclusive; points where
    an expression is undefined are recorded as inconclusive, not as
    violations, in the order of those six samplings.
    L may use only x, u and v (ValueError otherwise).
    """
    L = _lagrangian(L)
    box = _check_box(box, 3, "box")
    s = samples_per_axis
    if not isinstance(s, (int, np.integer)) or isinstance(s, bool) or s < 3:
        raise ValueError(f"samples_per_axis must be an integer >= 3, got {s!r}")
    partials = _first_partials(L, ("u", "v"))
    second = _curved_pairs(partials, ("u", "v"))
    xs, us, vs = (np.linspace(lo, hi, s) for (lo, hi) in box)
    X, U, V = np.meshgrid(xs, us, vs, indexing="ij")
    env = {"x": X, "u": U, "v": V}
    inconclusive: list = []
    L0, Lu0, Lv0, a, b, c = (
        _sample_grid(Num(0.0) if e is None else e, env, X.shape, inconclusive, ("x", "u", "v"))
        for e in (L, *partials, *(second.get(pair) for pair in ((0, 0), (0, 1), (1, 1))))
    )
    worst = (0.0, None)  # (gap, Counterexample)
    conclusive = False
    for k, x in enumerate(xs):
        # gap[i,j,p,q]: base point (u_i, v_j), target point (u_p, v_q)
        gap = (
            L0[k][None, None, :, :]
            - L0[k][:, :, None, None]
            - Lu0[k][:, :, None, None] * (U[k][None, None, :, :] - U[k][:, :, None, None])
            - Lv0[k][:, :, None, None] * (V[k][None, None, :, :] - V[k][:, :, None, None])
        )
        if np.all(np.isnan(gap)):
            continue
        conclusive = True
        idx = np.unravel_index(np.nanargmin(gap), gap.shape)
        g = gap[idx]
        if g < worst[0]:
            i, j, p, q = idx
            worst = (
                g,
                Counterexample(
                    x=float(x),
                    u=float(us[i]),
                    v=float(vs[j]),
                    du=float(us[p] - us[i]),
                    dv=float(vs[q] - vs[j]),
                    violation=float(g),
                ),
            )

    counter = worst[1] if worst[0] < -_TOL else None
    # sampled PSD test of the (u, v) Hessian [[a, b], [b, c]]
    det = a * c - b * b
    bad = (a < -_TOL) | (c < -_TOL) | (det < -_TOL)
    bad &= ~np.isnan(a) & ~np.isnan(b) & ~np.isnan(c)
    hessian_ok = not np.any(bad)
    if counter is None and not hessian_ok:
        # most negative certificate quantity decides the searched point
        score = np.where(bad, np.fmin(np.fmin(a, c), det), np.inf)
        idx = np.unravel_index(np.argmin(score), score.shape)
        counter = _hessian_counterexample(L, (float(X[idx]), float(U[idx]), float(V[idx])),
                                          (L0[idx], Lu0[idx], Lv0[idx]), box)
    convex = conclusive and counter is None and hessian_ok
    return ConvexityReport(
        convex=convex,
        counterexample=None if convex else counter,
        box=box,
        samples_per_axis=int(s),
        inconclusive=tuple(inconclusive),
    )


def _hessian_counterexample(L, point, base, box) -> Counterexample:
    """Search small increments at a Hessian-negative point (x, u, v) for a
    violation of L's gradient inequality, given base = (L, dL/du, dL/dv)
    sampled there; the gap is what it found.

    L is evaluated once over the in-box increments (16 angles times 11
    halving scales); the first smallest gap in angle-major order is kept,
    gaps where L or a partial is undefined are skipped, and with no finite
    gap the increment is zero."""
    x, u, v = point
    L0, Lu0, Lv0 = base
    (_, _), (ulo, uhi), (vlo, vhi) = box
    span = max(uhi - ulo, vhi - vlo)
    angle, scale = np.meshgrid(np.linspace(0.0, 2 * np.pi, 16, endpoint=False),
                               span * 0.5 ** np.arange(1, 12), indexing="ij")
    du = (scale * np.cos(angle)).ravel()
    dv = (scale * np.sin(angle)).ravel()
    inside = (ulo <= u + du) & (u + du <= uhi) & (vlo <= v + dv) & (v + dv <= vhi)
    du, dv = du[inside], dv[inside]
    bumped = _marked(L, {"x": x, "u": u + du, "v": v + dv}, du.shape)[0]
    gap = bumped - L0 - Lu0 * du - Lv0 * dv
    gap[np.isnan(gap)] = np.inf
    k = int(np.argmin(gap)) if gap.size else None
    if k is None or not np.isfinite(gap[k]):
        return Counterexample(x=x, u=u, v=v, du=0.0, dv=0.0, violation=0.0)
    return Counterexample(x=x, u=u, v=v, du=float(du[k]), dv=float(dv[k]),
                          violation=float(gap[k]))


def excess(L, x, u, z, w):
    """Weierstrass excess E = L(x,u,w) - L(x,u,z) - dL/dv(x,u,z)*(w-z).

    A float for scalar arguments; for array arguments, the array of the
    elementwise values.
    """
    L = _as_expr(L)
    Lv = differentiate(L, "v")
    at_w = {"x": x, "u": u, "v": w}
    at_z = {"x": x, "u": u, "v": z}
    E = evaluate(L, at_w) - evaluate(L, at_z) - evaluate(Lv, at_z) * (np.asarray(w) - z)
    return float(E) if np.ndim(E) == 0 else E


@dataclass(frozen=True)
class ExactField:
    """Slope field phi(x, y) with potential s_fn(x, y) on a rectangle."""

    phi: Expr
    s_fn: Expr
    box: tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self) -> None:
        phi = _as_expr(self.phi)
        s_fn = _as_expr(self.s_fn)
        for name, e in (("phi", phi), ("s_fn", s_fn)):
            extra = free_vars(e) - {"x", "y"}
            if extra:
                raise ValueError(f"{name} may use only x and y, found {sorted(extra)}")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "s_fn", s_fn)
        object.__setattr__(self, "box", _check_box(self.box, 2, "field box"))


@dataclass(frozen=True)
class FieldReport:
    """Residuals of the two defining identities of an exact field."""

    passed: bool
    max_residual_slope: float  # d s/dx - (L - dL/dv * phi) along v = phi
    max_residual_momentum: float  # d s/dy - dL/dv along v = phi
    inconclusive: tuple[tuple[float, float], ...] = ()


def check_field(L, field: ExactField) -> FieldReport:
    """Sample the two field identities on a 21 x 21 grid over the field's box.

    Passes when the larger identity residual stays within 1e-8 at every
    conclusive sample point.  L may use only x, u and v (ValueError
    otherwise).
    """
    L = _lagrangian(L)
    (xlo, xhi), (ylo, yhi) = field.box
    X, Y = np.meshgrid(np.linspace(xlo, xhi, 21), np.linspace(ylo, yhi, 21),
                       indexing="ij")
    inconclusive: list = []
    env_xy = {"x": X, "y": Y}
    phi_v = _sample_grid(field.phi, env_xy, X.shape, inconclusive, ("x", "y"))
    sx = _sample_grid(differentiate(field.s_fn, "x"), env_xy, X.shape,
                      inconclusive, ("x", "y"))
    sy = _sample_grid(differentiate(field.s_fn, "y"), env_xy, X.shape,
                      inconclusive, ("x", "y"))
    env_L = {"x": X, "u": Y, "v": phi_v}
    L_v = _sample_grid(L, env_L, X.shape, inconclusive, ("x", "u"))
    Lv_v = _sample_grid(differentiate(L, "v"), env_L, X.shape,
                        inconclusive, ("x", "u"))
    r1 = np.abs(sx - (L_v - Lv_v * phi_v))
    r2 = np.abs(sy - Lv_v)
    m1 = float(np.nanmax(r1)) if not np.all(np.isnan(r1)) else np.nan
    m2 = float(np.nanmax(r2)) if not np.all(np.isnan(r2)) else np.nan
    passed = bool(np.isfinite(m1) and np.isfinite(m2) and max(m1, m2) <= 1e-8)
    return FieldReport(
        passed=passed,
        max_residual_slope=m1,
        max_residual_momentum=m2,
        inconclusive=tuple(inconclusive),
    )


@dataclass(frozen=True)
class FieldTrajectoryReport:
    """Verdict on a candidate trajectory of an exact field."""

    trajectory: bool  # field-equation residual within field_tol
    residual_norm: float
    field_tol: float
    J: float
    field_value: float  # s(b, .) - s(a, .) along the candidate
    gap: float
    min_excess: float


def verify_field_minimizer(
    L,
    field: ExactField,
    y0: SampledFn,
    alpha,
    grid: Grid,
) -> FieldTrajectoryReport:
    """Check y0 against the field equation and the field's value formula.

    The candidate is a field trajectory when the weighted interior norm of
    D^alpha y0 - phi(x, I^{1-alpha} y0) stays within 10 * h^min(alpha, 1-alpha)
    (the first-order endpoint layer of the derivative scheme sets the scale).
    The report also compares the functional value with the potential
    difference and samples the excess along the trajectory.  L may use only
    x, u and v (ValueError otherwise).
    """
    return _field_trajectory(L, field, y0, alpha, grid)[0]


def _field_trajectory(L, field: ExactField, y0, alpha, grid: Grid):
    """verify_field_minimizer's report with the node samples it rests on:
    (report, I^{1-alpha} y0, D^alpha y0, phi(x, I^{1-alpha} y0))."""
    L = _lagrangian(L)
    a_val = alpha.value if hasattr(alpha, "value") else float(alpha)
    p = VarProblem(grid.a, grid.b, alphas=(a_val,), betas=(a_val,), lagrangian=L)
    dp = assemble(p, grid)
    c = dp.channels(_normalize_samples(p, grid, y0), every=True)
    u, v = c
    x = grid.nodes
    sl = grid.interior()

    phi_vals = _evaluate_array(field.phi, {"x": x, "y": u}, x.shape)
    residual_norm = _weighted_l2(grid.quad_weights[sl], (v - phi_vals)[sl])
    field_tol = 10.0 * grid.h ** min(a_val, 1.0 - a_val)

    J = dp.value(c)
    s_end = float(evaluate(field.s_fn, {"x": grid.b, "y": float(u[-1])}))
    s_start = float(evaluate(field.s_fn, {"x": grid.a, "y": float(u[0])}))
    field_value = s_end - s_start

    E = excess(L, x[sl], u[sl], phi_vals[sl], v[sl])
    report = FieldTrajectoryReport(
        trajectory=bool(residual_norm <= field_tol),
        residual_norm=residual_norm,
        field_tol=field_tol,
        J=J,
        field_value=field_value,
        gap=float(abs(J - field_value)),
        min_excess=float(np.min(E)) if E.size else 0.0,
    )
    return report, u, v, phi_vals
