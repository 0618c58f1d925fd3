"""Batch front-end: read a problem file, run one task, emit CSVs + summary.

Usage:
    fracvar run problem.json --out results/ [--n-cells N] [--quiet]

Exit codes: 0 success, 2 invalid problem file, 3 numerical failure,
4 non-convergence.  summary.json is byte-stable across runs except for
its "timings" entry; "summary_hash" is computed with timings removed.
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

from .certify import ExactField, check_convexity, check_field, verify_field_minimizer
from .expressions import ExprDomainError, ExprError, _evaluate_array, parse
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
    VarProblem,
    assemble,
    augmented_lagrangian,
)
from .solve import SolveConfig, minimize, solve_isoperimetric
from .solve import _start as _solver_start

__all__ = ["main"]

_TASKS = (
    "eval-op",
    "functional",
    "el-residual",
    "solve",
    "solve-iso",
    "certify-convex",
    "check-field",
    "limit-sweep",
)
_OP_KINDS = ("left-rlfi", "left-rlfd", "right-rlfi", "right-rlfd")


class ProblemFileError(ValueError):
    """Problem-file validation failure; message names the offending key."""


# ---------------------------------------------------------------------------
# validation


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise ProblemFileError(f"{where}: missing required key '{key}'")
    return obj[key]


def _only(obj, where: str, allowed: tuple[str, ...]) -> None:
    if not isinstance(obj, dict):
        raise ProblemFileError(f"{where}: expected an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ProblemFileError(
            f"{where}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _number(val, where: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ProblemFileError(f"{where}: expected a number, got {val!r}")
    return float(val)


def _order_value(val, where: str) -> float:
    v = _number(val, where)
    if not 0.0 < v < 1.0:
        raise ProblemFileError(
            f"{where}: order must lie strictly between 0 and 1, got {v}"
        )
    return v


def _order_list(val, where: str) -> list[float]:
    if isinstance(val, list):
        if not val:
            raise ProblemFileError(f"{where}: order list must not be empty")
        return [_order_value(v, f"{where}[{i}]") for i, v in enumerate(val)]
    return [_order_value(val, where)]


def _expr_str(val, where: str) -> str:
    if not isinstance(val, str):
        raise ProblemFileError(f"{where}: expected an expression string")
    try:
        parse(val)
    except ExprError as exc:
        raise ProblemFileError(f"{where}: {exc}") from exc
    return val


def _pin_value(val, where: str):
    if val is None:
        return None
    return _number(val, where)


def _pins_spec(obj, unknowns: int):
    if obj is None:
        return None
    items = obj if isinstance(obj, list) else [obj]
    if len(items) != unknowns and isinstance(obj, list):
        raise ProblemFileError(
            f"pins: expected {unknowns} entries, got {len(items)}"
        )
    pairs = []
    for i, item in enumerate(items):
        where = f"pins[{i}]" if isinstance(obj, list) else "pins"
        _only(item, where, ("left", "right"))
        pairs.append(
            (
                _pin_value(item.get("left"), f"{where}.left"),
                _pin_value(item.get("right"), f"{where}.right"),
            )
        )
    if len(pairs) == 1 and unknowns > 1:
        pairs = pairs * unknowns
    return tuple(pairs)


def _box_spec(val, n_axes: int, where: str):
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
        out.append((lo, hi))
    return tuple(out)


_TOP_KEYS = (
    "interval",
    "orders",
    "unknowns",
    "lagrangian",
    "constraint",
    "field",
    "grid",
    "solver",
    "pins",
    "task",
    "candidate",
    "operator",
    "sweep",
    "certify",
)


def resolve(doc: dict, n_cells_override: int | None = None) -> dict:
    """Validate the problem document and fill every default.

    The returned dict is the effective configuration echoed into
    summary.json; feeding it back through this function reproduces the
    same run.
    """
    _only(doc, "problem", _TOP_KEYS)

    interval = _need(doc, "interval", "problem")
    _only(interval, "interval", ("a", "b"))
    a = _number(_need(interval, "a", "interval"), "interval.a")
    b = _number(_need(interval, "b", "interval"), "interval.b")
    if not b > a:
        raise ProblemFileError(f"interval: requires b > a, got a={a}, b={b}")

    orders = _need(doc, "orders", "problem")
    _only(orders, "orders", ("alpha", "beta"))
    alphas = _order_list(_need(orders, "alpha", "orders"), "orders.alpha")
    betas = _order_list(_need(orders, "beta", "orders"), "orders.beta")

    unknowns = doc.get("unknowns", 1)
    if isinstance(unknowns, bool) or not isinstance(unknowns, int) or unknowns < 1:
        raise ProblemFileError(f"unknowns: expected a positive integer, got {unknowns!r}")

    lagrangian = _expr_str(_need(doc, "lagrangian", "problem"), "lagrangian")

    constraint = None
    if "constraint" in doc:
        cobj = doc["constraint"]
        _only(cobj, "constraint", ("g", "ell"))
        constraint = {
            "g": _expr_str(_need(cobj, "g", "constraint"), "constraint.g"),
            "ell": _number(_need(cobj, "ell", "constraint"), "constraint.ell"),
        }

    field = None
    if "field" in doc:
        fobj = doc["field"]
        _only(fobj, "field", ("phi", "s", "box"))
        fbox = (
            _box_spec(fobj["box"], 2, "field.box")
            if "box" in fobj
            else ((a, b), (0.0, 1.0))
        )
        field = {
            "phi": _expr_str(_need(fobj, "phi", "field"), "field.phi"),
            "s": _expr_str(_need(fobj, "s", "field"), "field.s"),
            "box": [list(p) for p in fbox],
        }

    gobj = _need(doc, "grid", "problem")
    _only(gobj, "grid", ("n_cells",))
    n_cells = _need(gobj, "n_cells", "grid")
    if isinstance(n_cells, bool) or not isinstance(n_cells, int) or n_cells < 1:
        raise ProblemFileError(f"grid.n_cells: expected a positive integer, got {n_cells!r}")
    if n_cells_override is not None:
        if n_cells_override < 1:
            raise ProblemFileError(f"--n-cells: expected a positive integer, got {n_cells_override}")
        n_cells = n_cells_override

    sobj = doc.get("solver", {})
    _only(sobj, "solver", ("max_iters", "grad_tol", "step_init"))
    defaults = SolveConfig()
    solver = {
        "max_iters": sobj.get("max_iters", defaults.max_iters),
        "grad_tol": sobj.get("grad_tol", defaults.grad_tol),
        "step_init": sobj.get("step_init", defaults.step_init),
    }
    if (
        isinstance(solver["max_iters"], bool)
        or not isinstance(solver["max_iters"], int)
        or solver["max_iters"] < 1
    ):
        raise ProblemFileError(
            f"solver.max_iters: expected a positive integer, got {solver['max_iters']!r}"
        )
    for key in ("grad_tol", "step_init"):
        v = _number(solver[key], f"solver.{key}")
        if not v > 0:
            raise ProblemFileError(f"solver.{key}: must be positive, got {v}")
        solver[key] = v

    pins = _pins_spec(doc.get("pins"), unknowns)

    task = _need(doc, "task", "problem")
    if task not in _TASKS:
        raise ProblemFileError(
            f"task: unknown task {task!r}; expected one of {list(_TASKS)}"
        )

    candidate = None
    if "candidate" in doc:
        cval = doc["candidate"]
        items = cval if isinstance(cval, list) else [cval]
        if len(items) != unknowns:
            raise ProblemFileError(
                f"candidate: expected {unknowns} expression(s), got {len(items)}"
            )
        candidate = [
            _expr_str(item, f"candidate[{i}]") for i, item in enumerate(items)
        ]

    operator = None
    if "operator" in doc:
        oobj = doc["operator"]
        _only(oobj, "operator", ("kind", "order"))
        kind = _need(oobj, "kind", "operator")
        if kind not in _OP_KINDS:
            raise ProblemFileError(
                f"operator.kind: unknown kind {kind!r}; expected one of {list(_OP_KINDS)}"
            )
        operator = {
            "kind": kind,
            "order": _order_value(_need(oobj, "order", "operator"), "operator.order"),
        }

    sweep = None
    if "sweep" in doc:
        swobj = doc["sweep"]
        _only(swobj, "sweep", ("orders", "classical"))
        sw_orders = _need(swobj, "orders", "sweep")
        if not isinstance(sw_orders, list) or not sw_orders:
            raise ProblemFileError("sweep.orders: expected a non-empty list of orders")
        sweep = {
            "orders": [
                _order_value(v, f"sweep.orders[{i}]") for i, v in enumerate(sw_orders)
            ],
            "classical": _expr_str(
                _need(swobj, "classical", "sweep"), "sweep.classical"
            ),
        }

    certify = {"box": [[a, b], [-1.0, 1.0], [-1.0, 1.0]], "samples_per_axis": 9}
    if "certify" in doc:
        cvobj = doc["certify"]
        _only(cvobj, "certify", ("box", "samples_per_axis"))
        if "box" in cvobj:
            certify["box"] = [list(p) for p in _box_spec(cvobj["box"], 3, "certify.box")]
        if "samples_per_axis" in cvobj:
            spa = cvobj["samples_per_axis"]
            if isinstance(spa, bool) or not isinstance(spa, int) or spa < 3:
                raise ProblemFileError(
                    f"certify.samples_per_axis: expected an integer >= 3, got {spa!r}"
                )
            certify["samples_per_axis"] = spa

    # task-specific requirements
    if task == "eval-op" and (operator is None or candidate is None):
        raise ProblemFileError("task eval-op: requires 'operator' and 'candidate'")
    if task == "solve-iso" and constraint is None:
        raise ProblemFileError("task solve-iso: requires 'constraint'")
    if task == "check-field" and field is None:
        raise ProblemFileError("task check-field: requires 'field'")
    if task == "limit-sweep" and sweep is None:
        raise ProblemFileError("task limit-sweep: requires 'sweep'")

    cfg = {
        "interval": {"a": a, "b": b},
        "orders": {"alpha": alphas, "beta": betas},
        "unknowns": unknowns,
        "lagrangian": lagrangian,
        "grid": {"n_cells": n_cells},
        "solver": solver,
        "task": task,
    }
    if constraint is not None:
        cfg["constraint"] = constraint
    if field is not None:
        cfg["field"] = field
    if pins is not None:
        cfg["pins"] = [{"left": l, "right": r} for (l, r) in pins]
    if candidate is not None:
        cfg["candidate"] = candidate
    if operator is not None:
        cfg["operator"] = operator
    if sweep is not None:
        cfg["sweep"] = sweep
    if task == "certify-convex":
        cfg["certify"] = certify
    return cfg


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


def _build_cfg(cfg: dict) -> SolveConfig:
    s = cfg["solver"]
    return SolveConfig(
        max_iters=s["max_iters"], grad_tol=s["grad_tol"], step_init=s["step_init"]
    )


def _candidate_samples(cfg: dict, problem: VarProblem, grid: Grid) -> np.ndarray:
    if "candidate" not in cfg:
        return _solver_start(problem, grid, None)
    env = {"x": grid.nodes}
    rows = [_evaluate_array(parse(text), env, grid.n_nodes) for text in cfg["candidate"]]
    return np.array(rows)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _channel_columns(problem: VarProblem):
    """(y names, u names, v names, residual names) for the nodes table."""
    if problem.is_basic():
        return ["y"], ["I_y"], ["D_y"], ["residual"]
    ys = [f"y{k + 1}" for k in range(problem.n_unknowns)]
    us = list(problem.u_names())
    vs = list(problem.v_names())
    rs = [f"r{k + 1}" for k in range(problem.n_unknowns)]
    return ys, us, vs, rs


def _nodes_table(
    out_dir: Path, dp: DiscreteProblem, Y: np.ndarray, residual: np.ndarray | None
) -> None:
    u, v = dp.channels(Y)
    ys, us, vs, rs = _channel_columns(dp.problem)
    header = ["x"] + ys + us + vs
    columns = [dp.grid.nodes] + list(Y) + u + v
    if residual is not None:
        header += rs
        columns += list(np.atleast_2d(residual))
    _write_csv(out_dir / "nodes.csv", header, zip(*columns))


# ---------------------------------------------------------------------------
# task runners: each returns (summary fields, exit code)


def _run_eval_op(cfg: dict, out_dir: Path):
    grid = _build_grid(cfg)
    order = cfg["operator"]["order"]
    kind = cfg["operator"]["kind"]
    build = {
        "left-rlfi": build_left_rlfi,
        "left-rlfd": build_left_rlfd,
        "right-rlfi": build_right_rlfi,
        "right-rlfd": build_right_rlfd,
    }[kind]
    op = build(grid, order)
    f_expr = parse(cfg["candidate"][0])
    f_vals = _evaluate_array(f_expr, {"x": grid.nodes}, grid.n_nodes)
    result = op.apply(f_vals)
    _write_csv(
        out_dir / "nodes.csv",
        ["x", "f", "result"],
        zip(grid.nodes, f_vals, result),
    )
    summary = {
        "operator": {"kind": kind, "order": order},
        "result_norm": weighted_norm(grid, result),
    }
    return summary, 0


def _run_functional(cfg: dict, out_dir: Path):
    problem = _build_problem(cfg)
    grid = _build_grid(cfg)
    Y = _candidate_samples(cfg, problem, grid)
    dp = assemble(problem, grid)
    J = dp.functional(Y)
    _nodes_table(out_dir, dp, Y, residual=None)
    return {"J": J}, 0


def _run_el_residual(cfg: dict, out_dir: Path):
    problem = _build_problem(cfg)
    grid = _build_grid(cfg)
    Y = _candidate_samples(cfg, problem, grid)
    dp = assemble(problem, grid)
    res = dp.residual(Y)
    J = dp.functional(Y)
    _nodes_table(out_dir, dp, Y, residual=res.values)
    return {
        "J": J,
        "residual_norm": res.norm,
        "residual_interior_norm": res.interior_norm(),
    }, 0


def _solve_summary(problem, grid, report):
    Y = np.atleast_2d(
        report.y.values
        if not isinstance(report.y, tuple)
        else np.array([fn.values for fn in report.y])
    )
    summary = {
        "J": report.J,
        "residual_norm": report.residual_norm,
        "lambda": report.lam,
        "constraint_gap": report.constraint_gap,
        "iters": report.iters,
        "converged": report.converged,
    }
    return Y, summary


def _run_solve(cfg: dict, out_dir: Path):
    problem = _build_problem(cfg)
    grid = _build_grid(cfg)
    y0 = _candidate_samples(cfg, problem, grid) if "candidate" in cfg else None
    report = minimize(problem, grid, _build_cfg(cfg), y0=y0)
    Y, summary = _solve_summary(problem, grid, report)
    dp = assemble(problem, grid)
    _nodes_table(out_dir, dp, Y, residual=dp.residual(Y).values)
    _write_csv(
        out_dir / "history.csv",
        ["iter", "J", "grad_norm"],
        ((i, J, g) for i, (J, g) in enumerate(report.history)),
    )
    return summary, 0 if report.converged else 4


def _run_solve_iso(cfg: dict, out_dir: Path):
    problem = _build_problem(cfg)
    grid = _build_grid(cfg)
    y0 = _candidate_samples(cfg, problem, grid) if "candidate" in cfg else None
    report = solve_isoperimetric(problem, grid, _build_cfg(cfg), y0=y0)
    Y, summary = _solve_summary(problem, grid, report)
    # stationarity of the multiplier-augmented problem is the meaningful residual
    if report.lam is not None:
        dp = assemble(augmented_lagrangian(problem, report.lam), grid)
        _nodes_table(out_dir, dp, Y, residual=dp.residual(Y).values)
    else:
        _nodes_table(out_dir, assemble(problem, grid), Y, residual=None)
    _write_csv(
        out_dir / "history.csv",
        ["iter", "J", "grad_norm"],
        ((i, J, g) for i, (J, g) in enumerate(report.history)),
    )
    return summary, 0 if report.converged else 4


def _run_certify_convex(cfg: dict, out_dir: Path):
    report = check_convexity(
        cfg["lagrangian"],
        cfg["certify"]["box"],
        cfg["certify"]["samples_per_axis"],
    )
    summary = {
        "convex": report.convex,
        "box": [list(p) for p in report.box],
        "samples_per_axis": report.samples_per_axis,
        "inconclusive_points": len(report.inconclusive),
    }
    if report.counterexample is not None:
        c = report.counterexample
        summary["counterexample"] = {
            "x": c.x, "u": c.u, "v": c.v, "du": c.du, "dv": c.dv,
            "violation": c.violation,
        }
    return summary, 0


def _run_check_field(cfg: dict, out_dir: Path):
    problem = _build_problem(cfg)
    grid = _build_grid(cfg)
    field = ExactField(
        phi=cfg["field"]["phi"],
        s_fn=cfg["field"]["s"],
        box=tuple(tuple(p) for p in cfg["field"]["box"]),
    )
    id_report = check_field(cfg["lagrangian"], field)
    summary = {
        "identities_pass": id_report.passed,
        "max_residual_slope": id_report.max_residual_slope,
        "max_residual_momentum": id_report.max_residual_momentum,
    }
    alpha = problem.alphas[0]
    Y = _candidate_samples(cfg, problem, grid)
    traj = verify_field_minimizer(
        cfg["lagrangian"], field, Y[0], alpha, grid
    )
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
    dp = assemble(problem, grid)
    u, v = dp.channels(Y)
    phi_vals = _evaluate_array(
        parse(cfg["field"]["phi"]), {"x": grid.nodes, "y": u[0]}, grid.n_nodes
    )
    _write_csv(
        out_dir / "nodes.csv",
        ["x", "y", "I_y", "D_y", "phi", "eq_residual"],
        zip(grid.nodes, Y[0], u[0], v[0], phi_vals, v[0] - phi_vals),
    )
    return summary, 0


def _run_limit_sweep(cfg: dict, out_dir: Path):
    grid = _build_grid(cfg)
    classical = _evaluate_array(
        parse(cfg["sweep"]["classical"]), {"x": grid.nodes}, grid.n_nodes
    )
    rows = []
    any_ok = False
    for order in cfg["sweep"]["orders"]:
        # the sweep solves without the constraint, as minimize requires
        problem = _build_problem(cfg, alphas=(order,), betas=(order,), constraint=None)
        try:
            report = minimize(problem, grid, _build_cfg(cfg))
        except ArithmeticError as exc:
            rows.append((order, "", "", f"error: {exc}"))
            continue
        y_vals = report.y.values if not isinstance(report.y, tuple) else report.y[0].values
        dist = weighted_norm(grid, y_vals - classical)
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


_RUNNERS = {
    "eval-op": _run_eval_op,
    "functional": _run_functional,
    "el-residual": _run_el_residual,
    "solve": _run_solve,
    "solve-iso": _run_solve_iso,
    "certify-convex": _run_certify_convex,
    "check-field": _run_check_field,
    "limit-sweep": _run_limit_sweep,
}


# ---------------------------------------------------------------------------
# summary plumbing


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _write_summary(out_dir: Path, payload: dict, timings: dict) -> None:
    payload = _jsonable(payload)
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
    payload["summary_hash"] = digest
    payload["timings"] = _jsonable(timings)
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
        result, code = _RUNNERS[cfg["task"]](cfg, out_dir)
    except ProblemFileError as exc:
        print(f"fracvar: invalid problem file: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ExprDomainError) as exc:
        print(f"fracvar: numerical failure: {exc}", file=sys.stderr)
        _write_summary(
            out_dir,
            {"task": cfg["task"], "config": cfg, "error": str(exc),
             "input_sha256": hashlib.sha256(raw).hexdigest()},
            {"total_s": round(time.perf_counter() - t0, 6)},
        )
        return 3
    elapsed = time.perf_counter() - t0

    payload = {
        "task": cfg["task"],
        "config": cfg,
        "input_sha256": hashlib.sha256(raw).hexdigest(),
    }
    payload.update(result)
    _write_summary(out_dir, payload, {"total_s": round(elapsed, 6)})

    if not args.quiet:
        keys = [k for k in ("J", "residual_norm", "lambda", "converged", "convex",
                            "identities_pass", "trajectory") if k in result]
        brief = ", ".join(f"{k}={result[k]}" for k in keys)
        print(f"fracvar {cfg['task']}: {brief or 'done'} -> {out_dir / 'summary.json'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
