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
    ExprDomainError,
    ExprEvalError,
    differentiate,
    evaluate,
    free_vars,
    parse,
    _evaluate_array,
)
from .grids import Grid, SampledFn

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


def _sample_grid(expr: Expr, env: dict, shape, inconclusive: list, coords) -> np.ndarray:
    """Evaluate on a full grid; nan out domain failures and log the points,
    each as its values of the env names in coords."""
    try:
        return _evaluate_array(expr, env, shape)
    except (ExprDomainError, ExprEvalError):
        pass
    flat_env = {k: np.ravel(np.broadcast_to(val, shape)) for k, val in env.items()}
    out = np.full(int(np.prod(shape)), np.nan)
    for i in range(out.size):
        try:
            out[i] = evaluate(expr, {k: float(v[i]) for k, v in flat_env.items()})
        except (ExprDomainError, ExprEvalError):
            if len(inconclusive) < _MAX_INCONCLUSIVE:
                inconclusive.append(tuple(float(flat_env[k][i]) for k in coords))
    return out.reshape(shape)


def check_convexity(L, box, samples_per_axis: int = 9) -> ConvexityReport:
    """Sampled certificate that L(x, u, v) is jointly convex in (u, v).

    Checks the gradient inequality
        L(x, u+du, v+dv) - L(x, u, v) >= dL/du * du + dL/dv * dv
    for every sampled base point and every sampled increment that stays in
    the box, and cross-checks the sampled (u, v) Hessian for positive
    semidefiniteness.  Convex means both passed at every conclusive point;
    points where the expression is undefined are recorded as inconclusive,
    not as violations.
    """
    L = _as_expr(L)
    box = _check_box(box, 3, "box")
    s = int(samples_per_axis)
    if s < 3:
        raise ValueError(f"samples_per_axis must be >= 3, got {samples_per_axis}")
    Lu = differentiate(L, "u")
    Lv = differentiate(L, "v")
    xs, us, vs = (np.linspace(lo, hi, s) for (lo, hi) in box)
    U, V = np.meshgrid(us, vs, indexing="ij")
    inconclusive: list = []
    xuv = ("x", "u", "v")
    worst = (0.0, None)  # (gap, Counterexample)
    for x in xs:
        env = {"x": np.full_like(U, x), "u": U, "v": V}
        L0 = _sample_grid(L, env, U.shape, inconclusive, xuv)
        Lu0 = _sample_grid(Lu, env, U.shape, inconclusive, xuv)
        Lv0 = _sample_grid(Lv, env, U.shape, inconclusive, xuv)
        # gap[i,j,p,q]: base point (u_i, v_j), target point (u_p, v_q)
        gap = (
            L0[None, None, :, :]
            - L0[:, :, None, None]
            - Lu0[:, :, None, None] * (U[None, None, :, :] - U[:, :, None, None])
            - Lv0[:, :, None, None] * (V[None, None, :, :] - V[:, :, None, None])
        )
        if np.all(np.isnan(gap)):
            continue
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
    hessian_ok, hess_point = _hessian_psd(L, xs, us, vs, inconclusive)
    if counter is None and not hessian_ok:
        counter = _hessian_counterexample(L, hess_point, box)
    convex = counter is None and hessian_ok
    return ConvexityReport(
        convex=convex,
        counterexample=None if convex else counter,
        box=box,
        samples_per_axis=s,
        inconclusive=tuple(inconclusive),
    )


def _hessian_psd(L, xs, us, vs, inconclusive):
    """Sampled PSD test of the (u, v) Hessian; returns (ok, worst point)."""
    Luu = differentiate(differentiate(L, "u"), "u")
    Luv = differentiate(differentiate(L, "u"), "v")
    Lvv = differentiate(differentiate(L, "v"), "v")
    X, U, V = np.meshgrid(xs, us, vs, indexing="ij")
    env = {"x": X, "u": U, "v": V}
    a, b, c = (_sample_grid(d2, env, X.shape, inconclusive, ("x", "u", "v"))
               for d2 in (Luu, Luv, Lvv))
    det = a * c - b * b
    bad = (a < -_TOL) | (c < -_TOL) | (det < -_TOL)
    bad &= ~np.isnan(a) & ~np.isnan(b) & ~np.isnan(c)
    if not np.any(bad):
        return True, None
    # most negative certificate quantity decides the reported point
    score = np.where(bad, np.fmin(np.fmin(a, c), det), np.inf)
    idx = np.unravel_index(np.argmin(score), score.shape)
    return False, (float(X[idx]), float(U[idx]), float(V[idx]))


def _hessian_counterexample(L, point, box) -> Counterexample:
    """Search small increments at a Hessian-negative point for a gradient-
    inequality violation; the recorded gap is whatever the search found."""
    x, u, v = point
    (_, _), (ulo, uhi), (vlo, vhi) = box
    span = max(uhi - ulo, vhi - vlo)
    best = (np.inf, 0.0, 0.0)
    for angle in np.linspace(0.0, 2 * np.pi, 16, endpoint=False):
        for scale in span * 0.5 ** np.arange(1, 12):
            du = scale * np.cos(angle)
            dv = scale * np.sin(angle)
            if not (ulo <= u + du <= uhi and vlo <= v + dv <= vhi):
                continue
            try:
                g = gradient_inequality_gap(L, x, u, v, du, dv)
            except (ExprDomainError, ExprEvalError):
                continue
            if g < best[0]:
                best = (g, du, dv)
    g, du, dv = best
    if not np.isfinite(g):
        g, du, dv = 0.0, 0.0, 0.0
    return Counterexample(x=x, u=u, v=v, du=du, dv=dv, violation=float(g))


def excess(L, x: float, u: float, z: float, w: float) -> float:
    """Weierstrass excess E = L(x,u,w) - L(x,u,z) - dL/dv(x,u,z)*(w-z)."""
    L = _as_expr(L)
    Lv = differentiate(L, "v")
    at_w = {"x": x, "u": u, "v": w}
    at_z = {"x": x, "u": u, "v": z}
    return float(
        evaluate(L, at_w) - evaluate(L, at_z) - evaluate(Lv, at_z) * (np.asarray(w) - z)
    )


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
            # must be differentiable in both variables
            differentiate(e, "x")
            differentiate(e, "y")
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


def check_field(L, field: ExactField, grid_2d=21) -> FieldReport:
    """Sample the two field identities on the field's box.

    grid_2d is the sample count per axis (int or (nx, ny) pair).  Passes
    when the larger identity residual stays within 1e-8 at every
    conclusive sample point.
    """
    L = _as_expr(L)
    if isinstance(grid_2d, int):
        nx = ny = grid_2d
    else:
        nx, ny = (int(v) for v in grid_2d)
    if nx < 2 or ny < 2:
        raise ValueError(f"grid_2d needs at least 2 samples per axis, got {grid_2d}")
    (xlo, xhi), (ylo, yhi) = field.box
    X, Y = np.meshgrid(np.linspace(xlo, xhi, nx), np.linspace(ylo, yhi, ny),
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
    difference and samples the excess along the trajectory.
    """
    from .problems import VarProblem, assemble, _normalize_samples

    L = _as_expr(L)
    a_val = alpha.value if hasattr(alpha, "value") else float(alpha)
    p = VarProblem(grid.a, grid.b, alphas=(a_val,), betas=(a_val,), lagrangian=L)
    dp = assemble(p, grid)
    Y = _normalize_samples(p, grid, y0)
    u, v = dp.channels(Y)
    u, v = u[0], v[0]
    x = grid.nodes
    w = grid.quad_weights
    sl = grid.interior()

    phi_vals = _evaluate_array(field.phi, {"x": x, "y": u}, x.shape)
    e = (v - phi_vals)[sl]
    residual_norm = float(np.sqrt(np.sum(w[sl] * e * e)))
    field_tol = 10.0 * grid.h ** min(a_val, 1.0 - a_val)

    J = dp.functional_value(L, [u], [v])
    s_end = float(evaluate(field.s_fn, {"x": grid.b, "y": float(u[-1])}))
    s_start = float(evaluate(field.s_fn, {"x": grid.a, "y": float(u[0])}))
    field_value = s_end - s_start

    Lv = differentiate(L, "v")
    env_z = {"x": x[sl], "u": u[sl], "v": phi_vals[sl]}
    env_w = {"x": x[sl], "u": u[sl], "v": v[sl]}
    E = (
        np.asarray(evaluate(L, env_w), dtype=float)
        - np.asarray(evaluate(L, env_z), dtype=float)
        - np.asarray(evaluate(Lv, env_z), dtype=float) * (v[sl] - phi_vals[sl])
    )
    return FieldTrajectoryReport(
        trajectory=bool(residual_norm <= field_tol),
        residual_norm=residual_norm,
        field_tol=field_tol,
        J=J,
        field_value=field_value,
        gap=float(abs(J - field_value)),
        min_excess=float(np.min(E)) if E.size else 0.0,
    )
