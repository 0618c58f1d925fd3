"""The two workloads: fixed operation lists, each with its oracle.

Each workload is one closed-loop caller in its own process: it issues its
operations back to back, the next only after the previous returned.  The
seed fixes the inputs that are drawn at random (the excess points, the
candidate and direction of the two-unknown problem) and the order in which
the operation groups run; the same seed gives the same inputs.

Only public fracvar names are called, fracvar.cli.main included.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles
from fracvar import (
    Constraint,
    ExactField,
    Grid,
    SampledFn,
    SolveConfig,
    VarProblem,
    assemble,
    build_left_rlfd,
    build_left_rlfi,
    check_convexity,
    check_field,
    el_residual,
    el_residual_general,
    evaluate_functional,
    excess,
    gamma,
    gradient,
    minimize,
    solve_isoperimetric,
    verify_field_minimizer,
)
from fracvar import cli

QUADRATIC = "(v - 1)^2"
MIXED = "v^2 + u*v + x*u + u^2"
LOG = "v^2 - log(v + 2)"
# two unknowns, alphas (0.3, 0.7), betas (0.4, 0.6): every channel appears,
# and L is quadratic, so central differences of J are exact
TWO_UNKNOWN = "v1^2 + v2*v3 + u1*v4 + u2^2 + x*u3 + (v4 - 1)^2 + u4*v1"
CONVEXITY_CASES = (
    ("v^2", True),
    ("-(v^2)", False),
    ("u^2 + u*v + v^2", True),
    ("u*v", False),
    (LOG, True),
)
CONVEXITY_BOX = ((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))
EXCESS_LAGRANGIANS = ("u^2 + u*v + v^2", "v^2")
EXCESS_CALLS = 10_000
SWEEP_FIXTURE = "limit_sweep_classical"


@dataclass
class Op:
    """One timed call and the oracle that judges its result."""

    name: str  # statistics key; repeated calls of one kind share it
    layer: str  # fracvar module of the called function
    call: Callable[[], Any]
    check: Callable[[Any], None]
    counts: Callable[[Any], dict] | None = None  # exact counts from the result


@dataclass
class Context:
    """State shared by all passes of a run, and by runs in one checkout.

    hashes and counts start from what earlier runs recorded, so a change
    between runs of the same code shows.
    """

    fixtures: Path
    out_dir: Path
    hashes: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)

    def record_count(self, name: str, value) -> None:
        seen = self.counts.setdefault(name, value)
        if seen != value:
            flag = f"exact count {name} = {value}, earlier {seen}"
            if flag not in self.flags:
                self.flags.append(flag)

    def cli_op(self, stem: str) -> Op:
        out = self.out_dir / stem
        argv = ["run", str(self.fixtures / f"{stem}.json"), "--out", str(out), "--quiet"]

        def check(rc: int) -> None:
            summary = json.loads((out / "summary.json").read_text())
            now = summary["summary_hash"]
            oracles.same_hash(stem, self.hashes.setdefault(stem, now), now)
            oracles.fixture(stem, rc, summary)

        return Op(f"cli.{stem}", "cli", functools.partial(cli.main, argv), check)


@dataclass
class Workload:
    name: str
    groups: list[list[Op]]  # run in a seed-chosen order, ops in a group in order
    key_op: Callable[[list[dict]], float]  # per-pass op times -> key_op_s
    key_op2: Callable[[list[dict]], float]
    aliases: Callable[[list[dict]], dict]  # finer metrics, printed ungated

    def ops(self) -> list[Op]:
        return [op for group in self.groups for op in group]


def _median_of(*names: str) -> Callable[[list[dict]], float]:
    """Median over passes of the summed time of the named operations."""
    return lambda passes: float(np.median([sum(sum(p[n]) for n in names) for p in passes]))


def _ordered(groups: list[list[Op]], seed: int) -> list[list[Op]]:
    order = np.random.default_rng(seed).permutation(len(groups))
    return [groups[i] for i in order]


def half_problem(lagrangian, **kw) -> VarProblem:
    return VarProblem(0.0, 1.0, alphas=0.5, betas=0.5, lagrangian=lagrangian, **kw)


def _solve_counts(report) -> dict:
    return {"iters": int(report.iters), "converged": bool(report.converged)}


# -- solve-ladder -----------------------------------------------------------------


def solve_ladder(seed: int, ctx: Context) -> Workload:
    quad = half_problem(QUADRATIC, pins=(0.0, None))
    quad_cfg = SolveConfig(max_iters=25_000, grad_tol=1e-9)
    iso = half_problem("v^2", constraint=Constraint("v", 1.0), pins=(0.0, None))
    iso_cfg = SolveConfig(max_iters=8000, grad_tol=1e-6)
    mixed = half_problem(MIXED)
    log = half_problem(LOG)
    groups = []

    for n in (64, 128, 256, 512):
        g = Grid(0.0, 1.0, n)

        def check(r, g=g):
            oracles.quadratic_solve(r, build_left_rlfi(g, 0.5).apply(r.y.values), g.nodes)

        groups.append([Op(f"minimize.N{n}", "solve",
                          functools.partial(minimize, quad, g, quad_cfg), check, _solve_counts)])
    for n in (64, 128, 256):
        g = Grid(0.0, 1.0, n)
        groups.append([Op(f"solve_isoperimetric.N{n}", "solve",
                          functools.partial(solve_isoperimetric, iso, g, iso_cfg),
                          oracles.isoperimetric, _solve_counts)])

    g128 = Grid(0.0, 1.0, 128)

    def check_mixed(r):
        oracles.stationary(r, el_residual(mixed, r.y, g128).norm)

    groups.append([Op("minimize.mixed.N128", "solve",
                      functools.partial(minimize, mixed, g128, SolveConfig(max_iters=5000)),
                      check_mixed, _solve_counts)])

    g64 = Grid(0.0, 1.0, 64)

    def check_log(r):
        oracles.log_minimizer(r, build_left_rlfd(g64, 0.5).apply(r.y.values))

    groups.append([Op("minimize.log.N64", "solve",
                      functools.partial(minimize, log, g64, SolveConfig()),
                      check_log, _solve_counts)])
    groups.append([ctx.cli_op(SWEEP_FIXTURE)])

    def aliases(passes):
        return {"solve_s.N512": _median_of("minimize.N512")(passes),
                "iso_s.N256": _median_of("solve_isoperimetric.N256")(passes)}

    # all direct solver calls together: a single short solve (iso_s.N256)
    # spreads too much between runs to gate on
    solves = [op.name for group in groups for op in group if op.layer == "solve"]
    return Workload("solve-ladder", _ordered(groups, seed), _median_of("minimize.N512"),
                    _median_of(*solves), aliases)


# -- grid-certify: the operator half ------------------------------------------------


def _smooth_rows(rng, x: np.ndarray, rows: int) -> np.ndarray:
    """Low-frequency random functions, zero at the left end."""
    out = np.zeros((rows, x.size))
    for r in range(rows):
        for k in range(1, 4):
            out[r] += rng.uniform(-1.0, 1.0) * np.sin(k * np.pi * x)
        out[r] += rng.uniform(-1.0, 1.0) * x
    return out


def _grid_groups(seed: int) -> list[list[Op]]:
    """Operators assembled from scratch up to N=4096, applied 1 to 4 times."""
    quad = half_problem(QUADRATIC)
    groups = []
    for n in (1024, 2048, 4096):
        g = Grid(0.0, 1.0, n)
        y = np.sqrt(g.nodes) / gamma(1.5)
        groups.append([Op(f"el_residual.N{n}", "problems",
                          functools.partial(el_residual, quad, y, g),
                          lambda r, g=g: oracles.extremal_residual(r.values[0][g.interior()]))])
        groups.append([Op(f"evaluate_functional.N{n}", "problems",
                          functools.partial(evaluate_functional, quad, y, g),
                          lambda J, g=g: oracles.extremal_functional(J, g.h))])

    two = VarProblem(0.0, 1.0, alphas=(0.3, 0.7), betas=(0.4, 0.6),
                     lagrangian=TWO_UNKNOWN, n_unknowns=2)
    g2 = Grid(0.0, 1.0, 2048)
    rng = np.random.default_rng(seed)
    Y = _smooth_rows(rng, g2.nodes, 2)
    D = _smooth_rows(rng, g2.nodes, 2)
    fd_cache: list[float] = []

    def central_difference() -> float:
        # the oracle's own assembly, made once per run and then released
        if not fd_cache:
            dp = assemble(two, g2)
            eps = 1e-3
            fd_cache.append((dp.functional(Y + eps * D) - dp.functional(Y - eps * D)) / (2 * eps))
        return fd_cache[0]

    groups.append([Op("el_residual_general.N2048", "problems",
                      functools.partial(el_residual_general, two, Y, g2),
                      lambda r: oracles.directional_derivative(
                          g2.quad_weights * r.values, D, central_difference()))])
    groups.append([Op("gradient.N2048", "solve",
                      functools.partial(gradient, two, Y, g2),
                      lambda G: oracles.directional_derivative(G, D, central_difference()))])
    return groups


# -- grid-certify: the expression half ----------------------------------------------


CERTIFY_FIXTURES = (
    "certify_convex_mixed",
    "check_field_halfx",
    "el_residual_extremal",
    "evalop_rlfi",
    "functional_zero",
    "solve_iso_lambda2",
    "solve_quadratic",
)


def _excess_us(passes: list[dict], q: float) -> float:
    calls = np.concatenate([p["excess"] for p in passes])
    return float(np.percentile(calls, q)) * 1e6


def _certify_groups(seed: int, ctx: Context) -> list[list[Op]]:
    """One-shot parses and scalar evaluations: excess, certificates, CLI fixtures."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(EXCESS_CALLS, 4))
    pts[:, 0] = (pts[:, 0] + 1.0) / 2.0  # x in [0, 1]; u, z, w in [-1, 1]
    excess_ops = []
    for i, (x, u, z, w) in enumerate(pts.tolist()):
        L = EXCESS_LAGRANGIANS[i % 2]
        excess_ops.append(Op("excess", "certify",
                             functools.partial(excess, L, x, u, z, w),
                             functools.partial(oracles.excess_value, z=z, w=w)))
    convexity_ops = [
        Op("check_convexity", "certify",
           functools.partial(check_convexity, L, CONVEXITY_BOX),
           functools.partial(oracles.convexity, expect_convex=expect))
        for L, expect in CONVEXITY_CASES
    ]
    fld = ExactField(phi="1", s_fn="y - x/2", box=((0.0, 1.0), (-1.0, 1.5)))
    g = Grid(0.0, 1.0, 1024)
    y0 = SampledFn(g, np.sqrt(g.nodes) / gamma(1.5))
    groups = [
        excess_ops,
        convexity_ops,
        [Op("check_field", "certify", functools.partial(check_field, "v^2/2", fld),
            oracles.field_identities)],
        [Op("verify_field_minimizer.N1024", "certify",
            functools.partial(verify_field_minimizer, "v^2/2", fld, y0, 0.5, g),
            oracles.field_minimizer)],
    ]
    groups += [[ctx.cli_op(stem)] for stem in CERTIFY_FIXTURES]
    return groups


def grid_certify(seed: int, ctx: Context) -> Workload:
    """The operator-heavy and the expression-heavy halves in one workload.

    Two workloads leave each run long enough to average the run-to-run
    drift of a shared two-core machine; the halves keep their own key
    metrics (el_residual at N=4096, the median excess call), so each still
    shows the change aimed at it.
    """
    cli_seconds = _median_of(*(f"cli.{stem}" for stem in CERTIFY_FIXTURES))

    def aliases(passes):
        return {"residual_s.N4096": _median_of("el_residual.N4096")(passes),
                "excess_us.p50": _excess_us(passes, 50), "excess_us.p99": _excess_us(passes, 99),
                "cli_s": cli_seconds(passes),
                "general_pair_s.N2048": _median_of("el_residual_general.N2048",
                                                   "gradient.N2048")(passes)}

    groups = _grid_groups(seed) + _certify_groups(seed, ctx)
    return Workload("grid-certify", _ordered(groups, seed), _median_of("el_residual.N4096"),
                    lambda passes: _excess_us(passes, 50) * 1e-6, aliases)


BUILDERS = {"solve-ladder": solve_ladder, "grid-certify": grid_certify}
