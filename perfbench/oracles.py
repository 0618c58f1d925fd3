"""Analytic oracles for every operation the benchmark times.

Each check takes what an operation returned and returns None when the
answer is right, or raises Miss.  A Miss has a kind:

* "no-converge": the solver or the CLI said it did not converge.  That is
  an honest failure: the operation failed, but no answer was wrong.
* "wrong": the operation claimed success and its answer misses the oracle.

Tolerances are the ones the acceptance tests in tests/ use, where a test
covers the same quantity; the others are derived in the comment beside
them.  Checks receive plain values (reports, summary dicts, arrays), so
the self-test can hand them deliberately wrong answers.
"""

from __future__ import annotations

import math

import numpy as np

# v = D^{1/2} y is constant at the minimizer of v^2 - log(v + 2):
# 2v - 1/(v + 2) = 0  =>  v = -1 + sqrt(3/2)
LOG_MINIMIZER_V = -1.0 + math.sqrt(1.5)


class Miss(Exception):
    """An operation's answer failed its oracle."""

    def __init__(self, kind: str, reason: str):
        super().__init__(f"{kind}: {reason}")
        self.kind = kind
        self.reason = reason


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise Miss("wrong", reason)


def _converged(flag: bool, what: str) -> None:
    if not flag:
        raise Miss("no-converge", f"{what} did not converge")


# -- solves -------------------------------------------------------------------


def quadratic_solve(report, i_half_y: np.ndarray, nodes: np.ndarray) -> None:
    """minimize (v - 1)^2 with y(0)=0: the minimizer has I^{1/2} y = x.

    Acceptance 05: J <= 1e-6 and max |I^{1/2} y - x| <= 2e-2.
    """
    _converged(report.converged, "minimize")
    _require(report.J <= 1e-6, f"J = {report.J:.3e} > 1e-6")
    err = float(np.max(np.abs(i_half_y - nodes)))
    _require(err <= 2e-2, f"max |I^(1/2) y - x| = {err:.3e} > 2e-2")


def isoperimetric(report) -> None:
    """v^2 subject to integral of v = 1: lambda = -2, J = 1 (acceptance 06)."""
    _converged(report.converged, "solve_isoperimetric")
    _require(report.lam is not None, "multiplier is None")
    _require(abs(report.lam + 2.0) <= 1e-2, f"|lambda + 2| = {abs(report.lam + 2.0):.3e} > 1e-2")
    _require(abs(report.J - 1.0) <= 1e-2, f"|J - 1| = {abs(report.J - 1.0):.3e} > 1e-2")
    gap = report.constraint_gap
    _require(gap is not None and abs(gap) <= 1e-3, f"|constraint gap| = {gap!r} > 1e-3")


def stationary(report, el_norm: float, tol: float = 1e-6) -> None:
    """A converged solve must satisfy the Euler-Lagrange equation.

    el_norm is the weighted residual norm recomputed by el_residual at the
    returned y; the solver stops at grad_tol 1e-8, so 1e-6 leaves room for
    nothing but a wrong answer.
    """
    _converged(report.converged, "minimize")
    _require(el_norm <= tol, f"Euler-Lagrange residual norm {el_norm:.3e} > {tol:g}")


def log_minimizer(report, v: np.ndarray) -> None:
    """v^2 - log(v + 2): v = D^{1/2} y equals LOG_MINIMIZER_V on nodes 1..N.

    Node 0 of the derivative channel is replaced by node 1 in the
    functional, so only nodes 1..N carry the condition.
    """
    _converged(report.converged, "minimize")
    err = float(np.max(np.abs(v[1:] - LOG_MINIMIZER_V)))
    _require(err <= 1e-4, f"max |v - v*| = {err:.3e} > 1e-4")


# -- residuals and functionals at the analytic extremal ------------------------


def extremal_residual(interior_values: np.ndarray) -> None:
    """y = sqrt(x)/Gamma(3/2) solves (v - 1)^2; tests/test_problems.py bounds
    the interior residual by 5e-2."""
    m = float(np.max(np.abs(interior_values)))
    _require(m <= 5e-2, f"max interior residual {m:.3e} > 5e-2")


def extremal_functional(J: float, h: float) -> None:
    """J = 0 at the analytic extremal; the discrete value carries the O(h)
    error of the first-order derivative scheme (about 0.026 h measured), so
    the bound is 0.05 h."""
    _require(0.0 <= J <= 0.05 * h, f"J = {J:.3e} outside [0, {0.05 * h:.3e}]")


def directional_derivative(grad: np.ndarray, direction: np.ndarray, fd: float) -> None:
    """<grad, d> equals the central difference of the functional along d.

    The Lagrangian is quadratic, so the central difference is exact up to
    rounding: the tolerance is relative 1e-8.
    """
    dot = float(np.sum(grad * direction))
    dev = abs(dot - fd)
    _require(dev <= 1e-8 * max(1.0, abs(fd)), f"|<grad, d> - fd| = {dev:.3e}")


# -- certificates ---------------------------------------------------------------


def excess_value(value: float, z: float, w: float) -> None:
    """For v^2 and u^2 + u*v + v^2 the excess is (w - z)^2 exactly."""
    exact = (w - z) ** 2
    _require(abs(value - exact) <= 1e-9 * max(1.0, exact),
             f"excess {value!r} != (w - z)^2 = {exact!r}")


def convexity(report, expect_convex: bool) -> None:
    """Verdicts of acceptance 08; a 'not convex' verdict needs a witness."""
    _require(report.convex == expect_convex,
             f"convex = {report.convex}, expected {expect_convex}")
    if not expect_convex:
        _require(report.counterexample is not None, "no counterexample for a non-convex L")


def field_identities(report) -> None:
    _require(report.passed, "field identities do not hold")


def field_minimizer(report) -> None:
    """Acceptance 08: trajectory, |J - 1/2| <= 1e-2 and |gap| <= 1e-2."""
    _require(report.trajectory, "candidate is not a field trajectory")
    _require(abs(report.J - 0.5) <= 1e-2, f"|J - 0.5| = {abs(report.J - 0.5):.3e} > 1e-2")
    _require(abs(report.gap) <= 1e-2, f"|gap| = {abs(report.gap):.3e} > 1e-2")


# -- CLI fixtures -----------------------------------------------------------------


def _sweep(s: dict) -> None:
    """Acceptance 07: every row ok, distances to the classical x decreasing."""
    rows = s["rows"]
    _require(len(rows) == 3, f"{len(rows)} sweep rows, expected 3")
    bad = [r["status"] for r in rows if r["status"] != "ok"]
    if bad:
        raise Miss("no-converge", f"sweep rows not ok: {bad}")
    d = [r["distance"] for r in rows]
    _require(d[0] > d[1] > d[2], f"distances not decreasing: {d}")


def _solve_quadratic(s: dict) -> None:
    _require(s["J"] <= 1e-6, f"J = {s['J']:.3e} > 1e-6")


def _solve_iso(s: dict) -> None:
    _require(abs(s["lambda"] + 2.0) <= 1e-2, f"lambda = {s['lambda']}")
    _require(abs(s["J"] - 1.0) <= 1e-2, f"J = {s['J']}")
    _require(abs(s["constraint_gap"]) <= 1e-3, f"gap = {s['constraint_gap']}")


def _el_residual(s: dict) -> None:
    h = 1.0 / s["config"]["grid"]["n_cells"]
    _require(s["residual_interior_norm"] <= 5e-2,
             f"interior residual norm {s['residual_interior_norm']:.3e} > 5e-2")
    extremal_functional(s["J"], h)


def _eval_op(s: dict) -> None:
    # I^{1/2} 1 = 2 sqrt(x/pi); the product-trapezoid rule is exact for
    # constants and the trapezoid norm of 4x/pi is exact, sqrt(2/pi)
    exact = math.sqrt(2.0 / math.pi)
    _require(abs(s["result_norm"] - exact) <= 1e-9, f"result_norm {s['result_norm']!r}")


def _functional_zero(s: dict) -> None:
    _require(abs(s["J"]) <= 1e-12, f"J = {s['J']!r}, expected 0")


def _certify_convex(s: dict) -> None:
    _require(s["convex"] is True, "u^2 + u*v + v^2 reported not convex")


def _check_field(s: dict) -> None:
    _require(s["identities_pass"] and s["trajectory"], "field check failed")
    _require(abs(s["value_gap"]) <= 1e-2, f"value gap {s['value_gap']:.3e} > 1e-2")


FIXTURE_ORACLES = {
    "limit_sweep_classical": _sweep,
    "solve_quadratic": _solve_quadratic,
    "solve_iso_lambda2": _solve_iso,
    "el_residual_extremal": _el_residual,
    "evalop_rlfi": _eval_op,
    "functional_zero": _functional_zero,
    "certify_convex_mixed": _certify_convex,
    "check_field_halfx": _check_field,
}


def fixture(stem: str, rc: int, summary: dict) -> None:
    """Exit code, fixture oracle; exit 4 is the CLI's non-convergence code."""
    if rc == 4 or summary.get("converged") is False:
        raise Miss("no-converge", f"fracvar run exited {rc}")
    _require(rc == 0, f"fracvar run exited {rc}: {summary.get('error', '')}")
    FIXTURE_ORACLES[stem](summary)


def same_hash(stem: str, seen: str | None, now: str) -> None:
    """summary_hash must not change between passes or runs of the same code."""
    _require(seen is None or seen == now,
             f"{stem}: summary_hash {now[:12]} differs from earlier {seen[:12] if seen else ''}")
