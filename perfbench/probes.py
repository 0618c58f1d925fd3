"""Per-layer probes: each layer's public functions timed on fixed inputs.

Every traced run, whatever its workload, runs the same probes, so each
per-layer metric means the same thing on every workload.  A probe times a
batch of calls and reports the median over several batches; the N=4096
probes take seconds each and run once.  Spans cover each probe group.

Exact counts (solve iterations, converged share, computed table bytes)
repeat exactly between runs of the same code; the caller checks that.
"""

from __future__ import annotations

import itertools
import json
import time

import numpy as np

import oracles
import workloads as wl
from fracvar import (
    Constraint,
    ExactField,
    Grid,
    SampledFn,
    SolveConfig,
    assemble,
    build_left_rlfd,
    build_left_rlfi,
    build_right_adjoint,
    check_convexity,
    ExprDomainError,
    check_field,
    differentiate,
    evaluate,
    gamma,
    minimize,
    parse,
    solve_isoperimetric,
    verify_field_minimizer,
)
from fracvar import cli

PROBE_LAGRANGIANS = (wl.QUADRATIC, wl.MIXED, wl.LOG, "v^2", "u^2 + u*v + v^2")
SCALAR_ENV = {"x": 0.5, "u": 0.25, "v": 0.75}
ALL_FIXTURES = (wl.SWEEP_FIXTURE,) + wl.CERTIFY_FIXTURES


def per_call(fn, calls: int, reps: int) -> float:
    """Median over reps batches of the mean seconds per call in a batch."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        out.append((time.perf_counter() - t0) / calls)
    return float(np.median(out))


def timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _build_four(g: Grid):
    I = build_left_rlfi(g, 0.5)
    D = build_left_rlfd(g, 0.5)
    return I, D, build_right_adjoint(I), build_right_adjoint(D)


def _cycle(items, fn):
    """A call that applies fn to the next item, round robin."""
    it = itertools.cycle(items)
    return lambda: fn(next(it))


def operators(m: dict) -> None:
    g = Grid(0.0, 1.0, 512)
    m["operators.build_ms.N512"] = per_call(lambda: _build_four(g), 1, 5) * 1e3
    ops = _build_four(g)
    x = np.sqrt(g.nodes)
    m["operators.apply_us.N512"] = per_call(_cycle(ops, lambda op: op.apply(x)), 200, 7) * 1e6
    g = Grid(0.0, 1.0, 4096)
    ops, dt = timed(lambda: _build_four(g))
    m["operators.build_ms.N4096"] = dt * 1e3
    # computed from the array sizes, not measured
    m["operators.table_mib.N4096"] = sum(op.coeffs.nbytes for op in ops) / 2**20
    x = np.sqrt(g.nodes)
    m["operators.apply_us.N4096"] = per_call(_cycle(ops, lambda op: op.apply(x)), 8, 5) * 1e6


def expressions(m: dict) -> None:
    m["expressions.parse_us"] = per_call(_cycle(PROBE_LAGRANGIANS, parse), 500, 7) * 1e6
    trees = [parse(s) for s in PROBE_LAGRANGIANS]
    pairs = [(e, var) for e in trees for var in ("u", "v")]
    m["expressions.differentiate_us"] = per_call(
        _cycle(pairs, lambda p: differentiate(*p)), 500, 7) * 1e6
    m["expressions.evaluate_scalar_us"] = per_call(
        _cycle(trees, lambda e: evaluate(e, SCALAR_ENV)), 1000, 7) * 1e6
    # L and its two partials on a 513-node environment, as one solver
    # iteration evaluates them
    g = Grid(0.0, 1.0, 512)
    L = parse(wl.MIXED)
    exprs = (L, differentiate(L, "u"), differentiate(L, "v"))
    env = {"x": g.nodes, "u": np.sqrt(g.nodes), "v": np.cos(g.nodes)}
    m["expressions.evaluate_us.N512"] = per_call(
        lambda: [evaluate(e, env) for e in exprs], 200, 7) * 1e6


def problems(m: dict) -> None:
    p = wl.half_problem(wl.QUADRATIC, pins=(0.0, None))
    g = Grid(0.0, 1.0, 512)
    m["problems.assemble_ms.N512"] = per_call(lambda: assemble(p, g), 1, 5) * 1e3
    dp = assemble(p, g)
    Y = (np.sqrt(g.nodes) / gamma(1.5))[None, :]
    m["problems.gradient_us.N512"] = per_call(lambda: dp.gradient(Y), 100, 7) * 1e6
    m["problems.functional_us.N512"] = per_call(lambda: dp.functional(Y), 100, 7) * 1e6
    del dp
    g = Grid(0.0, 1.0, 4096)
    _, dt = timed(lambda: assemble(p, g))
    m["problems.assemble_ms.N4096"] = dt * 1e3


def solve(m: dict) -> None:
    """The solve-ladder's solves, once each, for their exact iteration counts."""
    quad = wl.half_problem(wl.QUADRATIC, pins=(0.0, None))
    iso = wl.half_problem("v^2", constraint=Constraint("v", 1.0), pins=(0.0, None))
    cases = [(f"min.N{n}", minimize, quad, n, SolveConfig(max_iters=25_000, grad_tol=1e-9))
             for n in (64, 128, 256, 512)]
    cases += [(f"iso.N{n}", solve_isoperimetric, iso, n,
               SolveConfig(max_iters=8000, grad_tol=1e-6)) for n in (64, 128, 256)]
    cases += [("mixed.N128", minimize, wl.half_problem(wl.MIXED), 128,
               SolveConfig(max_iters=5000))]
    converged = 0
    for name, fn, problem, n, cfg in cases:
        report, dt = timed(lambda: fn(problem, Grid(0.0, 1.0, n), cfg))
        m[f"solve.iters.{name}"] = report.iters
        converged += bool(report.converged)
        if name == "min.N512":
            m["solve.iter_us.N512"] = dt / report.iters * 1e6
    # the domain-failure case counts as attempted and not converged
    try:
        converged += minimize(wl.half_problem(wl.LOG), Grid(0.0, 1.0, 64)).converged
    except ExprDomainError:
        pass
    m["solve.converged"] = converged / (len(cases) + 1)


def certify(m: dict) -> None:
    m["certify.check_convexity_ms"] = per_call(
        _cycle([L for L, _ in wl.CONVEXITY_CASES],
               lambda L: check_convexity(L, wl.CONVEXITY_BOX)), 10, 7) * 1e3
    fld = ExactField(phi="1", s_fn="y - x/2", box=((0.0, 1.0), (-1.0, 1.5)))
    m["certify.check_field_ms"] = per_call(lambda: check_field("v^2/2", fld), 10, 7) * 1e3
    g = Grid(0.0, 1.0, 1024)
    y0 = SampledFn(g, np.sqrt(g.nodes) / gamma(1.5))
    m["certify.verify_field_ms.N1024"] = per_call(
        lambda: verify_field_minimizer("v^2/2", fld, y0, 0.5, g), 1, 5) * 1e3


def cli_layer(m: dict, ctx: wl.Context) -> list[tuple[str, str, str]]:
    """resolve, then every fixture once; returns (op, kind, reason) failures."""
    docs = [json.loads((ctx.fixtures / f"{s}.json").read_text()) for s in ALL_FIXTURES]
    m["cli.resolve_us"] = per_call(_cycle(docs, cli.resolve), 100, 7) * 1e6
    overhead, failures = [], []
    for stem in ALL_FIXTURES:
        op = ctx.cli_op(stem)
        rc, outer = timed(op.call)
        try:
            op.check(rc)
        except oracles.Miss as miss:
            failures.append((f"probe.cli.{stem}", miss.kind, miss.reason))
        total = json.loads((ctx.out_dir / stem / "summary.json").read_text())["timings"]["total_s"]
        m[f"cli.task_s.{stem}"] = total
        overhead.append(outer - total)
    m["cli.overhead_ms"] = float(np.median(overhead)) * 1e3
    return failures


def run_all(tracer, ctx: wl.Context) -> tuple[dict, list[tuple[str, str, str]]]:
    m: dict = {}
    for layer, fn in (("operators", operators), ("expressions", expressions),
                      ("problems", problems), ("solve", solve), ("certify", certify)):
        with tracer.span(f"probe.{layer}", layer):
            fn(m)
    with tracer.span("probe.cli", "cli"):
        failures = cli_layer(m, ctx)
    for name in ("solve.converged", "operators.table_mib.N4096"):
        ctx.record_count(f"probe.{name}", m[name])
    for name in m:
        if name.startswith("solve.iters."):
            ctx.record_count(f"probe.{name}", m[name])
    return m, failures
