"""Batch front-end: read a problem file, run one task, emit CSVs + summary.

Usage:
    fracvar run problem.json --out results/ [--n-cells N] [--quiet]

Exit codes: 0 success, 2 invalid problem file, 3 numerical failure,
4 non-convergence.  summary.json is byte-stable across runs except for
its "timings" entry; "summary_hash" is computed with timings removed.

_SECTIONS declares the problem-file schema once: each section's keys in
validation order, each with its check and its default or _REQUIRED;
resolve walks it.  _TASKS declares each task once: its runner and the
problem-file sections it requires or refuses.  Tasks that write the same
files share a runner: functional and el-residual evaluate a candidate,
solve and solve-iso run a solver.  The operator kinds are the keys of
_OPERATORS.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from .certify import ExactField, check_convexity, check_field, _field_trajectory
from .expressions import Expr, ExprDomainError, ExprError, _evaluate_array, _rename, parse
from .grids import Grid, weighted_norm
from .operators import (
    build_left_rlfd,
    build_left_rlfi,
    build_right_rlfd,
    build_right_rlfi,
)
from .problems import (
    Constraint,
    DiscreteProblem,
    Residual,
    VarProblem,
    assemble,
)
from .solve import SolveConfig, minimize, solve_isoperimetric
from .solve import _start as _solver_start

__all__ = ["main"]

_OPERATORS = {
    "left-rlfi": build_left_rlfi,
    "left-rlfd": build_left_rlfd,
    "right-rlfi": build_right_rlfi,
    "right-rlfd": build_right_rlfd,
}


class ProblemFileError(ValueError):
    """Problem-file validation failure; message names the offending key."""


# ---------------------------------------------------------------------------
# validation: a check takes (value, where, cfg), cfg holding the keys
# resolved before it, and returns the value to echo


def _only(obj, where: str, allowed) -> None:
    if not isinstance(obj, dict):
        raise ProblemFileError(f"{where}: expected an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ProblemFileError(
            f"{where}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _number(val, where: str, cfg=None) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ProblemFileError(f"{where}: expected a number, got {val!r}")
    return float(val)


def _positive(val, where: str, cfg=None) -> float:
    v = _number(val, where)
    if not v > 0:
        raise ProblemFileError(f"{where}: must be positive, got {v}")
    return v


def _right_end(val, where: str, cfg: dict) -> float:
    a, b = cfg["interval"]["a"], _number(val, where)
    if not b > a:
        raise ProblemFileError(f"interval: requires b > a, got a={a}, b={b}")
    return b


def _integer(val, where: str, cfg=None, lo: int = 1) -> int:
    if isinstance(val, bool) or not isinstance(val, int) or val < lo:
        what = "a positive integer" if lo == 1 else f"an integer >= {lo}"
        raise ProblemFileError(f"{where}: expected {what}, got {val!r}")
    return val


def _samples_per_axis(val, where: str, cfg=None) -> int:
    return _integer(val, where, lo=3)


def _order_value(val, where: str, cfg=None) -> float:
    v = _number(val, where)
    if not 0.0 < v < 1.0:
        raise ProblemFileError(
            f"{where}: order must lie strictly between 0 and 1, got {v}"
        )
    return v


def _order_list(val, where: str, cfg=None) -> list[float]:
    if isinstance(val, list):
        if not val:
            raise ProblemFileError(f"{where}: order list must not be empty")
        return [_order_value(v, f"{where}[{i}]") for i, v in enumerate(val)]
    return [_order_value(val, where)]


def _sweep_orders(val, where: str, cfg=None) -> list[float]:
    if not isinstance(val, list) or not val:
        raise ProblemFileError(f"{where}: expected a non-empty list of orders")
    return [_order_value(v, f"{where}[{i}]") for i, v in enumerate(val)]


def _expr_str(val, where: str, cfg=None) -> str:
    if not isinstance(val, str):
        raise ProblemFileError(f"{where}: expected an expression string")
    try:
        parse(val)
    except ExprError as exc:
        raise ProblemFileError(f"{where}: {exc}") from exc
    return val


def _candidates(val, where: str, cfg: dict) -> list[str]:
    items = val if isinstance(val, list) else [val]
    if len(items) != cfg["unknowns"]:
        raise ProblemFileError(
            f"{where}: expected {cfg['unknowns']} expression(s), got {len(items)}"
        )
    return [_expr_str(item, f"{where}[{i}]") for i, item in enumerate(items)]


def _one_of(choices: dict):
    """The check of a name that is a key of choices."""
    def check(val, where: str, cfg=None) -> str:
        if not isinstance(val, str) or val not in choices:
            noun = where.rpartition(".")[2]
            raise ProblemFileError(
                f"{where}: unknown {noun} {val!r}; expected one of {list(choices)}"
            )
        return val
    return check


def _pins_spec(obj, where: str, cfg: dict) -> list[dict] | None:
    """One {"left", "right"} pin object per unknown; null means no pins."""
    if obj is None:
        return None
    unknowns = cfg["unknowns"]
    items = obj if isinstance(obj, list) else [obj]
    if len(items) != unknowns and isinstance(obj, list):
        raise ProblemFileError(
            f"{where}: expected {unknowns} entries, got {len(items)}"
        )
    pins = []
    for i, item in enumerate(items):
        at = f"{where}[{i}]" if isinstance(obj, list) else where
        _only(item, at, ("left", "right"))
        pins.append({side: None if item.get(side) is None
                     else _number(item[side], f"{at}.{side}")
                     for side in ("left", "right")})
    return pins if len(pins) == unknowns else [dict(pins[0]) for _ in range(unknowns)]


def _box(n_axes: int):
    """The check of a list of n_axes [lo, hi] pairs."""
    def check(val, where: str, cfg=None) -> list[list[float]]:
        if not isinstance(val, list) or len(val) != n_axes:
            raise ProblemFileError(f"{where}: expected {n_axes} [lo, hi] pairs")
        out = []
        for i, pair in enumerate(val):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ProblemFileError(f"{where}[{i}]: expected [lo, hi]")
            lo = _number(pair[0], f"{where}[{i}][0]")
            hi = _number(pair[1], f"{where}[{i}][1]")
            if not lo < hi:
                raise ProblemFileError(f"{where}[{i}]: requires lo < hi, got [{lo}, {hi}]")
            out.append([lo, hi])
        return out
    return check


def _interval_box(*ranges):
    """The default of a box: the interval, then ranges."""
    return lambda cfg: [[cfg["interval"]["a"], cfg["interval"]["b"]], *ranges]


# ---------------------------------------------------------------------------
# shared builders


def _build_problem(cfg: dict, **overrides) -> VarProblem:
    """The problem cfg describes, with the fields in overrides replaced.

    A problem that VarProblem rejects (an integral order whose complement
    rounds to 1, an undeclared variable) raises ProblemFileError.
    """
    pins = None
    if "pins" in cfg:
        pins = tuple((p["left"], p["right"]) for p in cfg["pins"])
    try:
        con = None
        if "constraint" in cfg:
            con = Constraint(g=cfg["constraint"]["g"], ell=cfg["constraint"]["ell"])
        problem = VarProblem(
            a=cfg["interval"]["a"],
            b=cfg["interval"]["b"],
            alphas=tuple(cfg["orders"]["alpha"]),
            betas=tuple(cfg["orders"]["beta"]),
            lagrangian=cfg["lagrangian"],
            n_unknowns=cfg["unknowns"],
            constraint=con,
            pins=pins,
        )
        return dataclasses.replace(problem, **overrides)
    except ValueError as exc:
        raise ProblemFileError(f"problem: {exc}") from exc


def _build_grid(cfg: dict) -> Grid:
    return Grid(cfg["interval"]["a"], cfg["interval"]["b"], cfg["grid"]["n_cells"])


def _on_grid(text: str, grid: Grid) -> np.ndarray:
    """The expression text in x at the grid nodes."""
    return _evaluate_array(parse(text), {"x": grid.nodes}, grid.n_nodes)


def _candidate_samples(cfg: dict, problem: VarProblem, grid: Grid) -> np.ndarray:
    if "candidate" not in cfg:
        return _solver_start(problem, grid, None)
    return np.array([_on_grid(text, grid) for text in cfg["candidate"]])


def _one_channel(cfg: dict) -> tuple[VarProblem, Expr]:
    """The problem of a certify task and its L(x, u, v), u1 and v1 renamed
    u and v; these tasks take one unknown and one order on each side."""
    alphas, betas = cfg["orders"]["alpha"], cfg["orders"]["beta"]
    if cfg["unknowns"] != 1 or len(alphas) != 1 or len(betas) != 1:
        raise ProblemFileError(
            f"task {cfg['task']}: requires one unknown and one order on each side"
        )
    problem = _build_problem(cfg)
    return problem, _rename(problem.lagrangian, {"u1": "u", "v1": "v"})


def _report_samples(report) -> np.ndarray:
    """SolveReport.y as a (K, n_nodes) array."""
    fns = report.y if isinstance(report.y, tuple) else (report.y,)
    return np.array([fn.values for fn in fns])


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _nodes_table(
    out_dir: Path, dp: DiscreteProblem, Y: np.ndarray, c: np.ndarray, residual: np.ndarray | None
) -> None:
    """nodes.csv: x, the unknowns, their channels c (every one) and the residual rows."""
    if dp.problem.is_basic():
        header, rs = ["x", "y", "I_y", "D_y"], ["residual"]
    else:
        unknowns = range(1, dp.problem.n_unknowns + 1)
        header = ["x", *(f"y{k}" for k in unknowns), *dp.names]
        rs = [f"r{k}" for k in unknowns]
    columns = [dp.grid.nodes] + list(Y) + list(c)
    if residual is not None:
        header += rs
        columns += list(np.atleast_2d(residual))
    _write_csv(out_dir / "nodes.csv", header, zip(*columns))


# ---------------------------------------------------------------------------
# task runners: each returns (summary fields, exit code)


def _run_eval_op(cfg: dict, out_dir: Path):
    grid = _build_grid(cfg)
    op = _OPERATORS[cfg["operator"]["kind"]](grid, cfg["operator"]["order"])
    f_vals = _on_grid(cfg["candidate"][0], grid)
    result = op.apply(f_vals)
    _write_csv(out_dir / "nodes.csv", ["x", "f", "result"],
               zip(grid.nodes, f_vals, result))
    return {"operator": dict(cfg["operator"]),
            "result_norm": weighted_norm(grid, result)}, 0


def _run_candidate(cfg: dict, out_dir: Path):
    """functional and el-residual: J at the candidate; el-residual adds
    the residual columns and norms."""
    problem = _build_problem(cfg)
    grid = _build_grid(cfg)
    Y = _candidate_samples(cfg, problem, grid)
    dp = assemble(problem, grid)
    c = dp.channels(Y, every=True)  # applied once for J, the residual and nodes.csv
    summary = {"J": dp.value(c)}
    residual = None
    if cfg["task"] == "el-residual":
        residual = dp._residual_from(c)
        res = Residual(grid, residual, weighted_norm(grid, residual))
        summary.update(residual_norm=res.norm, residual_interior_norm=res.interior_norm())
    _nodes_table(out_dir, dp, Y, c, residual)
    return summary, 0


def _run_solve(cfg: dict, out_dir: Path):
    """solve (minimize) and solve-iso (solve_isoperimetric)."""
    problem = _build_problem(cfg)
    grid = _build_grid(cfg)
    y0 = _candidate_samples(cfg, problem, grid) if "candidate" in cfg else None
    solver = minimize if cfg["task"] == "solve" else solve_isoperimetric
    report = solver(problem, grid, SolveConfig(**cfg["solver"]), y0=y0)
    Y = _report_samples(report)
    dp = assemble(problem, grid)
    c = dp.channels(Y, every=True)
    # stationarity of L + lam g is the meaningful residual; an abnormal
    # solve-iso (lam None) has none to report
    residual = None
    if cfg["task"] == "solve":
        residual = dp._residual_from(c)
    elif report.lam is not None:
        residual = dp._residual_from(c) + report.lam * dp._residual_from(c, constraint=True)
    _nodes_table(out_dir, dp, Y, c, residual)
    _write_csv(out_dir / "history.csv", ["iter", "J", "grad_norm"],
               ((i, J, g) for i, (J, g) in enumerate(report.history)))
    summary = {
        "J": report.J,
        "residual_norm": report.residual_norm,
        "lambda": report.lam,
        "constraint_gap": report.constraint_gap,
        "iters": report.iters,
        "converged": report.converged,
        "stop_reason": report.stop_reason,
        "linear_iters": report.linear_iters,
    }
    return summary, 0 if report.converged else 4


def _run_certify_convex(cfg: dict, out_dir: Path):
    _, L = _one_channel(cfg)
    report = check_convexity(L, cfg["certify"]["box"], cfg["certify"]["samples_per_axis"])
    summary = {
        "convex": report.convex,
        "box": [list(p) for p in report.box],
        "samples_per_axis": report.samples_per_axis,
        "inconclusive_points": len(report.inconclusive),
    }
    if report.counterexample is not None:
        summary["counterexample"] = dataclasses.asdict(report.counterexample)
    return summary, 0


def _run_check_field(cfg: dict, out_dir: Path):
    problem, L = _one_channel(cfg)
    if cfg["orders"]["alpha"] != cfg["orders"]["beta"]:
        raise ProblemFileError(
            f"task check-field: requires alpha = beta, got {cfg['orders']['alpha'][0]}"
            f" and {cfg['orders']['beta'][0]}"
        )
    grid = _build_grid(cfg)
    field = ExactField(phi=cfg["field"]["phi"], s_fn=cfg["field"]["s"], box=cfg["field"]["box"])
    id_report = check_field(L, field)
    summary = {
        "identities_pass": id_report.passed,
        "max_residual_slope": id_report.max_residual_slope,
        "max_residual_momentum": id_report.max_residual_momentum,
    }
    Y = _candidate_samples(cfg, problem, grid)
    traj, u, v, phi_vals = _field_trajectory(L, field, Y[0], problem.alphas[0], grid)
    summary.update(
        {
            "trajectory": traj.trajectory,
            "eq_residual_norm": traj.residual_norm,
            "field_tol": traj.field_tol,
            "J": traj.J,
            "field_value": traj.field_value,
            "value_gap": traj.gap,
            "min_excess": traj.min_excess,
        }
    )
    _write_csv(
        out_dir / "nodes.csv",
        ["x", "y", "I_y", "D_y", "phi", "eq_residual"],
        zip(grid.nodes, Y[0], u, v, phi_vals, v - phi_vals),
    )
    return summary, 0


def _run_limit_sweep(cfg: dict, out_dir: Path):
    grid = _build_grid(cfg)
    classical = _on_grid(cfg["sweep"]["classical"], grid)
    rows = []
    any_ok = False
    for order in cfg["sweep"]["orders"]:
        # the sweep solves without the constraint, as minimize requires
        problem = _build_problem(cfg, alphas=(order,), betas=(order,), constraint=None)
        try:
            report = minimize(problem, grid, SolveConfig(**cfg["solver"]))
        except (ArithmeticError, ExprDomainError) as exc:
            rows.append((order, "", "", f"error: {exc}"))
            continue
        dist = weighted_norm(grid, _report_samples(report)[0] - classical)
        status = "ok" if report.converged else "no-converge"
        any_ok = any_ok or report.converged
        rows.append((order, report.J, dist, status))
    _write_csv(out_dir / "sweep.csv", ["order", "J", "distance", "status"], rows)
    summary = {
        "orders": cfg["sweep"]["orders"],
        "rows": [
            {"order": o, "J": J, "distance": d, "status": s}
            for (o, J, d, s) in rows
        ],
    }
    return summary, 0 if any_ok else 4


# task: (runner, sections it requires, sections it refuses)
_TASKS = {
    "eval-op": (_run_eval_op, ("operator", "candidate"), ()),
    "functional": (_run_candidate, (), ()),
    "el-residual": (_run_candidate, (), ()),
    "solve": (_run_solve, (), ("constraint",)),
    "solve-iso": (_run_solve, ("constraint",), ()),
    "certify-convex": (_run_certify_convex, (), ()),
    "check-field": (_run_check_field, ("field",), ()),
    "limit-sweep": (_run_limit_sweep, ("sweep",), ()),
}


# ---------------------------------------------------------------------------
# problem-file schema

_REQUIRED = object()  # the default of a key that must be given

# Every top-level key of a problem file, in validation order: key ->
# (check, default).  A section's check is the same kind of table for its
# own keys.  An absent key is an error when its default is _REQUIRED and
# is left out when it is None; any other default (called with cfg when it
# is callable) goes through the check.  A check that returns None leaves
# its key out, so "pins": null means no pins.
_SECTIONS = {
    "interval": ({"a": (_number, _REQUIRED), "b": (_right_end, _REQUIRED)}, _REQUIRED),
    "orders": ({"alpha": (_order_list, _REQUIRED),
                "beta": (_order_list, _REQUIRED)}, _REQUIRED),
    "unknowns": (_integer, 1),
    "lagrangian": (_expr_str, _REQUIRED),
    "constraint": ({"g": (_expr_str, _REQUIRED), "ell": (_number, _REQUIRED)}, None),
    "field": ({"box": (_box(2), _interval_box([0.0, 1.0])),
               "phi": (_expr_str, _REQUIRED),
               "s": (_expr_str, _REQUIRED)}, None),
    "grid": ({"n_cells": (_integer, _REQUIRED)}, _REQUIRED),
    "solver": ({"max_iters": (_integer, SolveConfig.max_iters),
                "grad_tol": (_positive, SolveConfig.grad_tol)}, {}),
    "pins": (_pins_spec, None),
    "task": (_one_of(_TASKS), _REQUIRED),
    "candidate": (_candidates, None),
    "operator": ({"kind": (_one_of(_OPERATORS), _REQUIRED),
                  "order": (_order_value, _REQUIRED)}, None),
    "sweep": ({"orders": (_sweep_orders, _REQUIRED),
               "classical": (_expr_str, _REQUIRED)}, None),
    # validated for every task, echoed only by certify-convex
    "certify": ({"box": (_box(3), _interval_box([-1.0, 1.0], [-1.0, 1.0])),
                 "samples_per_axis": (_samples_per_axis, 9)}, {}),
}


def _take(obj: dict, where: str, key: str, spec: tuple, out: dict, cfg: dict) -> None:
    """Check obj[key], or its default, by spec = (check, default) into
    out[key]; see _SECTIONS."""
    check, default = spec
    path = key if where == "problem" else f"{where}.{key}"
    if key in obj:
        val = obj[key]
    elif default is _REQUIRED:
        raise ProblemFileError(f"{where}: missing required key '{key}'")
    elif default is None:
        return
    else:
        val = default(cfg) if callable(default) else default
    if isinstance(check, dict):
        _only(val, path, check)
        out[key] = {}
        for sub_key, sub_spec in check.items():
            _take(val, path, sub_key, sub_spec, out[key], cfg)
        return
    val = check(val, path, cfg)
    if val is not None:
        out[key] = val


def resolve(doc: dict, n_cells_override: int | None = None) -> dict:
    """Validate the problem document and fill every default.

    The returned dict is the effective configuration echoed into
    summary.json; feeding it back through this function reproduces the
    same run.
    """
    _only(doc, "problem", _SECTIONS)
    cfg = {}
    for key, spec in _SECTIONS.items():
        _take(doc, "problem", key, spec, cfg, cfg)
        if key == "grid" and n_cells_override is not None:
            cfg["grid"]["n_cells"] = _integer(n_cells_override, "--n-cells")
    task = cfg["task"]
    if task != "certify-convex":
        del cfg["certify"]
    _, requires, refuses = _TASKS[task]
    if any(key not in cfg for key in requires):
        listed = " and ".join(f"'{key}'" for key in requires)
        raise ProblemFileError(f"task {task}: requires {listed}")
    for key in refuses:
        if key in cfg:
            raise ProblemFileError(f"task {task}: does not take '{key}'")
    n = cfg["grid"]["n_cells"]
    if task in ("el-residual", "check-field") and n < 2:
        raise ProblemFileError(f"task {task}: grid.n_cells must be at least 2, got {n}")
    return cfg


# ---------------------------------------------------------------------------
# summary plumbing


def _write_summary(out_dir: Path, cfg: dict, raw: bytes, result: dict, t0: float) -> None:
    """summary.json: the task, its config, the input's hash and the result;
    summary_hash covers everything but the "timings" entry."""
    timings = {"total_s": round(time.perf_counter() - t0, 6)}
    payload = {"task": cfg["task"], "config": cfg,
               "input_sha256": hashlib.sha256(raw).hexdigest(), **result}
    text = json.dumps(payload, sort_keys=True)
    payload.update(summary_hash=hashlib.sha256(text.encode()).hexdigest(), timings=timings)
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracvar",
        description="Fractional variational problems: operators, solves, certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one task from a problem file")
    run_p.add_argument("problem", help="path to the problem JSON file")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--n-cells", type=int, default=None,
                       help="override grid.n_cells from the file")
    run_p.add_argument("--quiet", action="store_true", help="suppress stdout chatter")
    args = parser.parse_args(argv)

    try:
        raw = Path(args.problem).read_bytes()
    except OSError as exc:
        print(f"fracvar: cannot read problem file: {exc}", file=sys.stderr)
        return 2
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(f"fracvar: problem file is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = resolve(doc, args.n_cells)
    except ProblemFileError as exc:
        print(f"fracvar: invalid problem file: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"fracvar: cannot create output directory: {exc}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    try:
        result, code = _TASKS[cfg["task"]][0](cfg, out_dir)
    except ProblemFileError as exc:
        print(f"fracvar: invalid problem file: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ExprDomainError) as exc:
        print(f"fracvar: numerical failure: {exc}", file=sys.stderr)
        _write_summary(out_dir, cfg, raw, {"error": str(exc)}, t0)
        return 3
    _write_summary(out_dir, cfg, raw, result, t0)

    if not args.quiet:
        keys = [k for k in ("J", "residual_norm", "lambda", "converged", "convex",
                            "identities_pass", "trajectory") if k in result]
        brief = ", ".join(f"{k}={result[k]}" for k in keys)
        print(f"fracvar {cfg['task']}: {brief or 'done'} -> {out_dir / 'summary.json'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
