"""End-to-end checks of the `fracvar run` entry point."""
import csv
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from fracvar.cli import main
from helpers import record_assembly_work


def write_problem(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def base_solve_doc(**extra):
    doc = {
        "task": "solve",
        "interval": {"a": 0.0, "b": 1.0},
        "orders": {"alpha": 0.5, "beta": 0.5},
        "lagrangian": "(v - 1)^2",
        "grid": {"n_cells": 64},
        "pins": {"left": 0.0, "right": None},
        "solver": {"max_iters": 4000, "grad_tol": 1e-8},
    }
    doc.update(extra)
    return doc


def test_eval_op_table(tmp_path):
    doc = {
        "task": "eval-op",
        "interval": {"a": 0.0, "b": 1.0},
        "orders": {"alpha": 0.5, "beta": 0.5},
        "lagrangian": "v",
        "grid": {"n_cells": 64},
        "operator": {"kind": "left-rlfi", "order": 0.5},
        "candidate": "1",
    }
    out = tmp_path / "out"
    rc = main(["run", write_problem(tmp_path / "p.json", doc), "--out", str(out), "--quiet"])
    assert rc == 0
    rows = read_csv(out / "nodes.csv")
    assert len(rows) == 65  # n_cells + 1
    got = np.array([float(r["result"]) for r in rows])
    x = np.array([float(r["x"]) for r in rows])
    assert np.max(np.abs(got - 2.0 * np.sqrt(x) / math.sqrt(math.pi))) <= 1e-4
    summary = read_summary(out)
    assert summary["task"] == "eval-op"
    assert "input_sha256" in summary and "summary_hash" in summary


def test_functional_zero_fixture(tmp_path):
    doc = {
        "task": "functional",
        "interval": {"a": 0.0, "b": 1.0},
        "orders": {"alpha": 0.5, "beta": 0.5},
        "lagrangian": "v^2",
        "grid": {"n_cells": 64},
        "pins": {"left": 0.0, "right": None},
    }
    out = tmp_path / "out"
    rc = main(["run", write_problem(tmp_path / "p.json", doc), "--out", str(out), "--quiet"])
    assert rc == 0
    assert read_summary(out)["J"] == 0.0


def test_solve_task_writes_history(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", write_problem(tmp_path / "p.json", base_solve_doc()),
               "--out", str(out), "--quiet"])
    assert rc == 0
    summary = read_summary(out)
    assert summary["converged"] is True
    assert summary["J"] <= 1e-6
    hist = read_csv(out / "history.csv")
    assert [c for c in hist[0]] == ["iter", "J", "grad_norm"]
    nodes = read_csv(out / "nodes.csv")
    assert len(nodes) == 65
    assert set(nodes[0]) == {"x", "y", "I_y", "D_y", "residual"}


def test_solve_iso_lambda_fixture(tmp_path):
    doc = {
        "task": "solve-iso",
        "interval": {"a": 0.0, "b": 1.0},
        "orders": {"alpha": 0.5, "beta": 0.5},
        "lagrangian": "v^2",
        "constraint": {"g": "v", "ell": 1.0},
        "grid": {"n_cells": 64},
        "pins": {"left": 0.0, "right": None},
        "solver": {"max_iters": 8000, "grad_tol": 1e-6},
    }
    out = tmp_path / "out"
    rc = main(["run", write_problem(tmp_path / "p.json", doc), "--out", str(out), "--quiet"])
    assert rc == 0
    summary = read_summary(out)
    assert -2.02 <= summary["lambda"] <= -1.98
    assert summary["converged"] is True


def test_nonconvergence_exits_4(tmp_path):
    # Newton solves a quadratic in one step; the quartic term keeps three
    # steps short of grad_tol
    doc = base_solve_doc(lagrangian="(v - 1)^2 + v^4",
                         solver={"max_iters": 3, "grad_tol": 1e-14})
    out = tmp_path / "out"
    rc = main(["run", write_problem(tmp_path / "p.json", doc), "--out", str(out), "--quiet"])
    assert rc == 4
    assert read_summary(out)["converged"] is False


def test_malformed_order_exits_2(tmp_path, capsys):
    doc = base_solve_doc(orders={"alpha": 1.5, "beta": 0.5})
    rc = main(["run", write_problem(tmp_path / "p.json", doc),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "between 0 and 1" in capsys.readouterr().err


def test_infinite_endpoint_exits_2(tmp_path, capsys):
    # json writes -inf as -Infinity, which the problem-file reader accepts
    doc = base_solve_doc(interval={"a": -math.inf, "b": 1.0})
    out = tmp_path / "out"
    rc = main(["run", write_problem(tmp_path / "p.json", doc), "--out", str(out)])
    assert rc == 2
    assert "interval endpoints must be finite" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    doc = base_solve_doc(bogus=1)
    rc = main(["run", write_problem(tmp_path / "p.json", doc),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_solver_step_init_exits_2(tmp_path, capsys):
    # every line search starts at the full Newton step; the setting is gone
    doc = base_solve_doc(solver={"step_init": 0.5})
    rc = main(["run", write_problem(tmp_path / "p.json", doc),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "fracvar: invalid problem file: solver: unknown key(s) ['step_init'];"
        " allowed: ['grad_tol', 'max_iters']\n")


def test_missing_required_key_exits_2(tmp_path, capsys):
    doc = base_solve_doc()
    del doc["lagrangian"]
    rc = main(["run", write_problem(tmp_path / "p.json", doc),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "lagrangian" in capsys.readouterr().err


def test_unreadable_file_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2


def test_invalid_json_exits_2(tmp_path):
    p = tmp_path / "p.json"
    p.write_text("{not json")
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2


def test_domain_error_exits_3(tmp_path):
    doc = {
        "task": "functional",
        "interval": {"a": 0.0, "b": 1.0},
        "orders": {"alpha": 0.5, "beta": 0.5},
        "lagrangian": "v^2",
        "grid": {"n_cells": 32},
        "candidate": "log(x - 2)",
    }
    out = tmp_path / "out"
    rc = main(["run", write_problem(tmp_path / "p.json", doc), "--out", str(out), "--quiet"])
    assert rc == 3
    assert "error" in read_summary(out)


def test_empty_sweep_orders_exits_2(tmp_path, capsys):
    doc = {
        "task": "limit-sweep",
        "interval": {"a": 0.0, "b": 1.0},
        "orders": {"alpha": 0.5, "beta": 0.5},
        "lagrangian": "v^2/2 + u^2/2",
        "grid": {"n_cells": 16},
        "pins": {"left": 0.0, "right": 1.0},
        "sweep": {"orders": [], "classical": "x"},
    }
    rc = main(["run", write_problem(tmp_path / "p.json", doc),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "sweep.orders" in capsys.readouterr().err


def test_single_order_sweep_matches_plain_solve(tmp_path):
    common = {
        "interval": {"a": 0.0, "b": 1.0},
        "orders": {"alpha": 0.5, "beta": 0.5},
        "lagrangian": "(v - 1)^2",
        "grid": {"n_cells": 32},
        "pins": {"left": 0.0, "right": None},
        "solver": {"max_iters": 4000, "grad_tol": 1e-8},
    }
    sweep_doc = dict(common, task="limit-sweep",
                     sweep={"orders": [0.5], "classical": "x"})
    solve_doc = dict(common, task="solve")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", write_problem(tmp_path / "s.json", sweep_doc),
                 "--out", str(out_a), "--quiet"]) == 0
    assert main(["run", write_problem(tmp_path / "p.json", solve_doc),
                 "--out", str(out_b), "--quiet"]) == 0
    rows = read_csv(out_a / "sweep.csv")
    assert len(rows) == 1
    assert rows[0]["status"] == "ok"
    assert float(rows[0]["J"]) == read_summary(out_b)["J"]


def test_n_cells_override(tmp_path):
    doc = base_solve_doc()
    out = tmp_path / "out"
    rc = main(["run", write_problem(tmp_path / "p.json", doc),
               "--out", str(out), "--n-cells", "32", "--quiet"])
    assert rc == 0
    assert read_summary(out)["config"]["grid"]["n_cells"] == 32
    assert len(read_csv(out / "nodes.csv")) == 33


def test_summary_determinism(tmp_path):
    doc = base_solve_doc()
    path = write_problem(tmp_path / "p.json", doc)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", path, "--out", str(out_a), "--quiet"]) == 0
    assert main(["run", path, "--out", str(out_b), "--quiet"]) == 0
    sa = read_summary(out_a)
    sb = read_summary(out_b)
    assert sa["summary_hash"] == sb["summary_hash"]
    sa.pop("timings")
    sb.pop("timings")
    assert sa == sb


def test_quiet_flag_controls_stdout(tmp_path, capsys):
    doc = base_solve_doc(solver={"max_iters": 200, "grad_tol": 1e-6})
    path = write_problem(tmp_path / "p.json", doc)
    main(["run", path, "--out", str(tmp_path / "a")])
    assert "fracvar solve" in capsys.readouterr().out
    main(["run", path, "--out", str(tmp_path / "b"), "--quiet"])
    assert capsys.readouterr().out == ""


def test_config_echo_allows_rerun(tmp_path):
    # the echoed config is itself a valid problem document
    doc = base_solve_doc()
    out = tmp_path / "out"
    main(["run", write_problem(tmp_path / "p.json", doc), "--out", str(out), "--quiet"])
    echoed = read_summary(out)["config"]
    out2 = tmp_path / "out2"
    rc = main(["run", write_problem(tmp_path / "p2.json", echoed),
               "--out", str(out2), "--quiet"])
    assert rc == 0
    assert read_summary(out2)["J"] == read_summary(out)["J"]


FIXTURES = Path(__file__).resolve().parent.parent / "demos" / "problems"


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["orders"].update(alpha=1e-17), "1 - alpha rounds to 1"),
    (lambda doc: doc.update(lagrangian="(v - 1)^2 + w"), "undeclared variable"),
], ids=["tiny-alpha", "undeclared-variable"])
def test_problem_rejected_by_varproblem_exits_2(tmp_path, capsys, edit, message):
    doc = json.loads((FIXTURES / "el_residual_extremal.json").read_text())
    edit(doc)
    rc = main(["run", write_problem(tmp_path / "p.json", doc),
               "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_overflowing_literal_exits_2(tmp_path, capsys):
    doc = json.loads((FIXTURES / "functional_zero.json").read_text())
    doc["lagrangian"] = "v^2 + 1e999*u"
    rc = main(["run", write_problem(tmp_path / "p.json", doc),
               "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert "lagrangian: number '1e999' overflows a float" in capsys.readouterr().err


def test_null_pins_mean_no_pins(tmp_path):
    rc, summary = run_fixture(tmp_path, "solve_quadratic", pins=None)
    assert rc == 0 and summary["converged"]
    assert "pins" not in summary["config"]


def test_sweep_order_rejected_by_varproblem_exits_2(tmp_path, capsys):
    doc = json.loads((FIXTURES / "limit_sweep_classical.json").read_text())
    doc["sweep"]["orders"] = [1e-17]
    rc = main(["run", write_problem(tmp_path / "p.json", doc),
               "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert "1 - alpha rounds to 1" in capsys.readouterr().err


# -- output shapes ----------------------------------------------------------
# Every task's exit code, files, CSV headers and top-level summary keys.

def fixture_doc(stem, **edits):
    doc = json.loads((FIXTURES / f"{stem}.json").read_text())
    doc.update(edits)
    return doc


def multi_doc(task):
    # two unknowns, two integral orders: channels u1..u4 and v1, v2
    return fixture_doc(
        "functional_zero", task=task, unknowns=2,
        orders={"alpha": [0.5, 0.3], "beta": 0.5},
        lagrangian="v1^2 + v2^2 + u1*u3 + u2*u4", candidate=["x", "x^2"],
    )


def eval_op_doc(kind):
    return fixture_doc("evalop_rlfi", operator={"kind": kind, "order": 0.5},
                       candidate="x")


SUMMARY_BASE = {"task", "config", "input_sha256", "summary_hash", "timings"}
SOLVE_KEYS = {"J", "residual_norm", "lambda", "constraint_gap", "iters", "converged",
              "stop_reason", "linear_iters"}
CONVEX_KEYS = {"convex", "box", "samples_per_axis", "inconclusive_points"}
NODES_1 = ["x", "y", "I_y", "D_y"]
NODES_MULTI = ["x", "y1", "y2", "u1", "u2", "u3", "u4", "v1", "v2"]
HISTORY = ["iter", "J", "grad_norm"]

SHAPES = {
    "eval-op": (
        fixture_doc("evalop_rlfi"), 0,
        {"nodes.csv": ["x", "f", "result"]}, {"operator", "result_norm"}),
    "eval-op-left-rlfd": (
        eval_op_doc("left-rlfd"), 0,
        {"nodes.csv": ["x", "f", "result"]}, {"operator", "result_norm"}),
    "eval-op-right-rlfi": (
        eval_op_doc("right-rlfi"), 0,
        {"nodes.csv": ["x", "f", "result"]}, {"operator", "result_norm"}),
    "eval-op-right-rlfd": (
        eval_op_doc("right-rlfd"), 0,
        {"nodes.csv": ["x", "f", "result"]}, {"operator", "result_norm"}),
    "functional": (
        fixture_doc("functional_zero"), 0, {"nodes.csv": NODES_1}, {"J"}),
    "functional-multi": (
        multi_doc("functional"), 0, {"nodes.csv": NODES_MULTI}, {"J"}),
    "el-residual": (
        fixture_doc("el_residual_extremal"), 0,
        {"nodes.csv": NODES_1 + ["residual"]},
        {"J", "residual_norm", "residual_interior_norm"}),
    "el-residual-multi": (
        multi_doc("el-residual"), 0, {"nodes.csv": NODES_MULTI + ["r1", "r2"]},
        {"J", "residual_norm", "residual_interior_norm"}),
    "solve": (
        fixture_doc("solve_quadratic"), 0,
        {"nodes.csv": NODES_1 + ["residual"], "history.csv": HISTORY}, SOLVE_KEYS),
    "solve-no-converge": (
        base_solve_doc(lagrangian="(v - 1)^2 + v^4",
                       solver={"max_iters": 3, "grad_tol": 1e-14}), 4,
        {"nodes.csv": NODES_1 + ["residual"], "history.csv": HISTORY}, SOLVE_KEYS),
    "solve-iso": (
        fixture_doc("solve_iso_lambda2"), 0,
        {"nodes.csv": NODES_1 + ["residual"], "history.csv": HISTORY}, SOLVE_KEYS),
    "solve-iso-abnormal": (
        fixture_doc("solve_iso_lambda2", constraint={"g": "x", "ell": 1.0}), 4,
        {"nodes.csv": NODES_1, "history.csv": HISTORY}, SOLVE_KEYS),
    "certify-convex": (
        fixture_doc("certify_convex_mixed"), 0, {}, CONVEX_KEYS),
    "certify-convex-violated": (
        fixture_doc("certify_convex_mixed", lagrangian="-(v^2)"), 0, {},
        CONVEX_KEYS | {"counterexample"}),
    "check-field": (
        fixture_doc("check_field_halfx"), 0,
        {"nodes.csv": NODES_1 + ["phi", "eq_residual"]},
        {"identities_pass", "max_residual_slope", "max_residual_momentum",
         "trajectory", "eq_residual_norm", "field_tol", "J", "field_value",
         "value_gap", "min_excess"}),
    "limit-sweep": (
        fixture_doc("limit_sweep_classical"), 0,
        {"sweep.csv": ["order", "J", "distance", "status"]}, {"orders", "rows"}),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", list(SHAPES))
def test_output_shape(tmp_path, case):
    doc, code, tables, keys = SHAPES[case]
    out = tmp_path / "out"
    rc = main(["run", write_problem(tmp_path / "p.json", doc), "--out", str(out), "--quiet"])
    assert rc == code
    assert {p.name for p in out.iterdir()} == {"summary.json", *tables}
    for name, header in tables.items():
        with open(out / name, newline="") as fh:
            assert next(csv.reader(fh)) == header
    assert set(read_summary(out)) == SUMMARY_BASE | keys


def test_abnormal_solve_iso_warns_and_reports_no_multiplier(tmp_path):
    doc, *_ = SHAPES["solve-iso-abnormal"]
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning, match="abnormal"):
        rc = main(["run", write_problem(tmp_path / "p.json", doc),
                   "--out", str(out), "--quiet"])
    assert rc == 4
    summary = read_summary(out)
    assert summary["lambda"] is None and summary["converged"] is False


def test_convexity_counterexample_keys(tmp_path):
    doc, *_ = SHAPES["certify-convex-violated"]
    out = tmp_path / "out"
    main(["run", write_problem(tmp_path / "p.json", doc), "--out", str(out), "--quiet"])
    summary = read_summary(out)
    assert summary["convex"] is False
    assert set(summary["counterexample"]) == {"x", "u", "v", "du", "dv", "violation"}


def test_n_cells_override_zero_exits_2(tmp_path, capsys):
    rc = main(["run", write_problem(tmp_path / "p.json", base_solve_doc()),
               "--out", str(tmp_path / "out"), "--n-cells", "0", "--quiet"])
    assert rc == 2
    assert "--n-cells: expected a positive integer, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_samples_per_axis_past_its_bound_exits_2(tmp_path, capsys):
    # one check_convexity call holds about 4 s^4 doubles per x slice
    doc = fixture_doc("certify_convex_mixed")
    doc["certify"]["samples_per_axis"] = 33
    rc = main(["run", write_problem(tmp_path / "p.json", doc),
               "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert ("certify.samples_per_axis: expected an integer from 3 to 32, got 33"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


ONE_CELL = [("el_residual_extremal", "el-residual"), ("check_field_halfx", "check-field")]


@pytest.mark.parametrize("stem, task", ONE_CELL, ids=[stem for stem, _ in ONE_CELL])
@pytest.mark.parametrize("how", ["file", "override"])
def test_interior_norm_tasks_refuse_one_cell(tmp_path, capsys, stem, task, how):
    # one cell has no interior node to take the residual norm over
    if how == "file":
        doc, argv = fixture_doc(stem, grid={"n_cells": 1}), []
    else:
        doc, argv = fixture_doc(stem), ["--n-cells", "1"]
    out = tmp_path / "out"
    rc = main(["run", write_problem(tmp_path / "p.json", doc), "--out", str(out),
               "--quiet", *argv])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"fracvar: invalid problem file: task {task}: grid.n_cells must be at least 2, got 1\n")
    assert not out.exists()


@pytest.mark.parametrize("stem", sorted(p.stem for p in FIXTURES.glob("*.json")
                                        if p.stem not in dict(ONE_CELL)))
def test_other_tasks_run_on_one_cell(tmp_path, stem):
    rc = main(["run", str(FIXTURES / f"{stem}.json"), "--out", str(tmp_path / "out"),
               "--n-cells", "1", "--quiet"])
    assert rc == 0


# -- sections each task needs or refuses -------------------------------------

REQUIRED = [
    ("evalop_rlfi", "operator", "task eval-op: requires 'operator' and 'candidate'"),
    ("evalop_rlfi", "candidate", "task eval-op: requires 'operator' and 'candidate'"),
    ("solve_iso_lambda2", "constraint", "task solve-iso: requires 'constraint'"),
    ("check_field_halfx", "field", "task check-field: requires 'field'"),
    ("limit_sweep_classical", "sweep", "task limit-sweep: requires 'sweep'"),
]


@pytest.mark.parametrize("stem, section, message", REQUIRED,
                         ids=[f"{stem}-{section}" for stem, section, _ in REQUIRED])
def test_missing_required_section_exits_2(tmp_path, capsys, stem, section, message):
    doc = fixture_doc(stem)
    del doc[section]
    out = tmp_path / "out"
    rc = main(["run", write_problem(tmp_path / "p.json", doc), "--out", str(out), "--quiet"])
    assert rc == 2
    assert capsys.readouterr().err == f"fracvar: invalid problem file: {message}\n"
    assert not out.exists()


def test_solve_refuses_constraint(tmp_path, capsys):
    doc = fixture_doc("solve_quadratic", constraint={"g": "v", "ell": 1.0})
    out = tmp_path / "out"
    rc = main(["run", write_problem(tmp_path / "p.json", doc), "--out", str(out), "--quiet"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "fracvar: invalid problem file: task solve: does not take 'constraint'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("stem", ["functional_zero", "limit_sweep_classical"])
def test_constraint_still_accepted(tmp_path, stem):
    doc = fixture_doc(stem, constraint={"g": "v", "ell": 1.0})
    out = tmp_path / "out"
    rc = main(["run", write_problem(tmp_path / "p.json", doc), "--out", str(out), "--quiet"])
    assert rc == 0
    assert read_summary(out)["config"]["constraint"] == {"g": "v", "ell": 1.0}


# -- names and shapes --------------------------------------------------------

BAD_NAMES = [
    ({"task": []}, "task: unknown task []; expected one of"),
    ({"task": {}}, "task: unknown task {}; expected one of"),
    ({"operator": {"kind": ["left-rlfi"], "order": 0.5}},
     "operator.kind: unknown kind ['left-rlfi']; expected one of"),
]


@pytest.mark.parametrize("edit, message", BAD_NAMES, ids=["task-list", "task-object", "kind-list"])
def test_task_and_kind_must_be_strings(tmp_path, capsys, edit, message):
    doc = fixture_doc("evalop_rlfi", **edit)
    out = tmp_path / "out"
    rc = main(["run", write_problem(tmp_path / "p.json", doc), "--out", str(out), "--quiet"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"fracvar: invalid problem file: {message}")
    assert not out.exists()


def run_fixture(tmp_path, stem, **edits):
    """(exit code, summary or None) of one fixture run with edits."""
    tmp_path.mkdir(exist_ok=True)
    out = tmp_path / stem
    doc = fixture_doc(stem, **edits)
    rc = main(["run", write_problem(tmp_path / f"{stem}.json", doc),
               "--out", str(out), "--quiet"])
    summary = read_summary(out) if (out / "summary.json").exists() else None
    return rc, summary


def test_certify_convex_reads_indexed_names(tmp_path):
    rc, summary = run_fixture(tmp_path, "certify_convex_mixed", lagrangian="-(v1^2)")
    assert rc == 0
    assert summary["convex"] is False
    assert summary["inconclusive_points"] == 0
    _, alias = run_fixture(tmp_path / "alias", "certify_convex_mixed", lagrangian="-(v^2)")
    assert summary["counterexample"] == alias["counterexample"]


def test_check_field_reads_indexed_names(tmp_path):
    rc, summary = run_fixture(tmp_path, "check_field_halfx", lagrangian="v1^2/2")
    assert rc == 0
    _, alias = run_fixture(tmp_path / "alias", "check_field_halfx")
    drop = ("config", "input_sha256", "summary_hash", "timings")
    assert {k: v for k, v in summary.items() if k not in drop} == {
        k: v for k, v in alias.items() if k not in drop}
    assert summary["identities_pass"] and summary["trajectory"]


ONE_CHANNEL = "requires one unknown and one order on each side"
SHAPES_REFUSED = [
    ("certify_convex_mixed", {"unknowns": 2, "lagrangian": "v1^2 + v2^2"},
     f"task certify-convex: {ONE_CHANNEL}"),
    ("certify_convex_mixed", {"orders": {"alpha": [0.3, 0.5], "beta": 0.5}},
     f"task certify-convex: {ONE_CHANNEL}"),
    ("certify_convex_mixed", {"lagrangian": "-(w^2)"},
     "problem: lagrangian uses undeclared variable(s) ['w']"),
    ("check_field_halfx", {"unknowns": 2, "lagrangian": "v1^2/2",
                           "candidate": ["sqrt(x)", "sqrt(x)"]},
     f"task check-field: {ONE_CHANNEL}"),
    ("check_field_halfx", {"unknowns": 2, "lagrangian": "v1^2/2 + v2^2/2",
                           "candidate": ["sqrt(x)", "sqrt(x)"]},
     f"task check-field: {ONE_CHANNEL}"),
    ("check_field_halfx", {"orders": {"alpha": 0.5, "beta": 0.3}},
     "task check-field: requires alpha = beta, got 0.5 and 0.3"),
]


@pytest.mark.parametrize("stem, edits, message", SHAPES_REFUSED, ids=[
    "convex-two-unknowns", "convex-two-alphas", "convex-unknown-name",
    "field-two-unknowns", "field-two-unknowns-both-used", "field-alpha-not-beta"])
def test_certify_tasks_refuse_other_shapes(tmp_path, capsys, stem, edits, message):
    rc, summary = run_fixture(tmp_path, stem, **edits)
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"fracvar: invalid problem file: {message}")
    assert summary is None


def test_compare_cli_reports_key_set_changes_on_their_own_lines():
    # a removed and an added summary key are listed by path; the keys both
    # runs share are still compared number by number
    path = Path(__file__).resolve().parent.parent / "tools" / "compare_cli.py"
    spec = importlib.util.spec_from_file_location("compare_cli", path)
    compare_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_cli)
    a = {"exit": "0", "summary.json": {
        "J": 1.0, "config": {"solver": {"max_iters": 5, "step_init": 1.0}},
        "summary_hash": "aa"}}
    b = {"exit": "0", "summary.json": {
        "J": 1.25, "config": {"solver": {"max_iters": 5}}, "stop_reason": "converged",
        "summary_hash": "bb"}}
    changes = compare_cli.compare(a, b)
    assert changes == ({"summary.json": 0.2}, ["summary.json/config/solver/step_init"],
                       ["summary.json/stop_reason"])
    assert compare_cli.report("case", a, b, *changes) == [
        "DIFF  case exit 0 vs 0: summary.json (0.2)",
        "      removed summary.json/config/solver/step_init",
        "      added   summary.json/stop_reason",
    ]
    b["summary.json"]["J"] = 1.0
    changes = compare_cli.compare(a, b)
    assert compare_cli.report("case", a, b, *changes)[0] == "DIFF  case exit 0 vs 0: key set only"
    assert compare_cli.report("case", a, a, *compare_cli.compare(a, a)) == ["same  case exit 0"]


def test_compare_cli_scales_csv_numbers_by_their_column():
    # round-off beside a larger entry of the same column reads as small;
    # a real change still reads as large
    path = Path(__file__).resolve().parent.parent / "tools" / "compare_cli.py"
    spec = importlib.util.spec_from_file_location("compare_cli", path)
    compare_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_cli)

    def run(*column):
        return {"exit": "0", "nodes.csv": [["r"], *[[repr(x)] for x in column]]}

    diffs, removed, added = compare_cli.compare(run(1.0, 4e-12), run(1.0, -4e-12))
    assert 0.0 < diffs["nodes.csv"] <= 1e-11
    assert (removed, added) == ([], [])
    diffs, _, _ = compare_cli.compare(run(1.0, 2.0), run(1.0, 3.0))
    assert diffs["nodes.csv"] == pytest.approx(1.0 / 3.0)


def test_compare_cli_scales_solver_outputs_by_the_solve():
    # in a run that wrote history.csv, a residual counts relative to at
    # least the solve's grad_tol and J relative to at least the largest J
    # of the history, in summary.json and where stdout echoes them;
    # round-off reads as small, a real change as large
    path = Path(__file__).resolve().parent.parent / "tools" / "compare_cli.py"
    spec = importlib.util.spec_from_file_location("compare_cli", path)
    compare_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_cli)

    def run(residuals, J, grad_tol, history=True):
        out = {"exit": "0",
               "stdout": f"fracvar solve: J={J!r}, residual_norm={residuals[0]!r}, "
                         "lambda=None, converged=True -> <out>/summary.json\n",
               "summary.json": {"J": J, "config": {"solver": {"grad_tol": grad_tol}}},
               "nodes.csv": [["x", "residual"], *[["0.5", repr(r)] for r in residuals]]}
        if history:
            out["history.csv"] = [["iter", "J", "grad_norm"], ["0", "1.0", "0.5"],
                                  ["1", repr(J), "1e-9"]]
        return out

    # a converged residual that moved by round-off
    diffs, _, _ = compare_cli.compare(run([4.8e-14, -1e-14], 0.5, 1e-6),
                                      run([4.57e-14, -1e-14], 0.5, 1e-6))
    assert 0.0 < diffs["nodes.csv"] <= 1e-8 and "summary.json" not in diffs
    # J of 1e-28 against 6e-29 beside a history J of 1
    diffs, _, _ = compare_cli.compare(run([0.0], 1e-28, 1e-8), run([0.0], 6e-29, 1e-8))
    assert 0.0 < diffs["summary.json"] <= 1e-27
    assert 0.0 < diffs["stdout"] <= 1e-27
    # J of 1 against 2 is a change, in summary.json and in stdout
    diffs, _, _ = compare_cli.compare(run([0.0], 1.0, 1e-8), run([0.0], 2.0, 1e-8))
    assert diffs["summary.json"] >= 0.1 and diffs["stdout"] >= 0.1
    # a residual far above grad_tol that doubled
    diffs, _, _ = compare_cli.compare(run([1e-3], 0.5, 1e-8), run([2e-3], 0.5, 1e-8))
    assert diffs["nodes.csv"] >= 0.1
    # without a history the per-column and per-number rules stay
    diffs, _, _ = compare_cli.compare(run([4.8e-14], 1e-28, 1e-6, history=False),
                                      run([4.57e-14], 6e-29, 1e-6, history=False))
    assert diffs["nodes.csv"] >= 0.01 and diffs["summary.json"] >= 0.1


def test_sweep_domain_error_is_a_row_per_order(tmp_path):
    # L is undefined at the start point (v = 0 there), so every order fails
    # on its own row and, with no converged row, the sweep exits 4
    doc = fixture_doc("limit_sweep_classical", lagrangian="(v - 1)^2 + 1/v")
    doc["sweep"]["orders"] = [0.9, 0.99]
    out = tmp_path / "out"
    rc = main(["run", write_problem(tmp_path / "p.json", doc), "--out", str(out), "--quiet"])
    assert rc == 4
    rows = read_csv(out / "sweep.csv")
    assert [r["order"] for r in rows] == ["0.9", "0.99"]
    for r in rows:
        assert r["status"] == "error: division by zero in '1/v' at position 0"
        assert r["J"] == r["distance"] == ""
    statuses = [row["status"] for row in read_summary(out)["rows"]]
    assert statuses == [r["status"] for r in rows]


def test_solve_builds_each_operator_once(tmp_path, monkeypatch):
    # nodes.csv and the residual take the operators the solver built
    import fracvar.problems

    counts = {}
    for name in ("build_left_rlfi", "build_left_rlfd", "build_right_adjoint"):
        def counted(*args, _build=getattr(fracvar.problems, name), _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _build(*args)
        monkeypatch.setattr(fracvar.problems, name, counted)
    rc = main(["run", str(FIXTURES / "solve_quadratic.json"), "--out", str(tmp_path / "out"),
               "--quiet"])
    assert rc == 0
    assert counts == {"build_left_rlfd": 1, "build_left_rlfi": 1, "build_right_adjoint": 2}


@pytest.mark.parametrize("stem, partials", [("solve_quadratic", 3), ("solve_iso_lambda2", 6)])
def test_solve_assembles_one_problem(stem, partials, tmp_path, monkeypatch):
    # the solver, nodes.csv and the residual share the problem the grid
    # keeps: L (and g) are differentiated once per channel name, then once
    # per kept pair for the second partials
    made, derived = record_assembly_work(monkeypatch)
    rc = main(["run", str(FIXTURES / f"{stem}.json"), "--out", str(tmp_path / "out"),
               "--quiet"])
    assert rc == 0
    assert (len(made), len(derived)) == (1, partials)


@pytest.mark.parametrize("stem, applies", [
    ("el_residual_extremal", {"left": 2, "adjoint": 1}),
    ("functional_zero", {"left": 2}),
])
def test_candidate_tasks_apply_each_channel_once(tmp_path, monkeypatch, stem, applies):
    # J, the residual and nodes.csv share one application of the two
    # channels I y and D y; the residual adds the one adjoint L reads
    from fracvar.operators import FracOperator

    counts = {}
    apply = FracOperator.apply

    def counted(op, f):
        counts[op._form] = counts.get(op._form, 0) + 1
        return apply(op, f)

    monkeypatch.setattr(FracOperator, "apply", counted)
    rc = main(["run", str(FIXTURES / f"{stem}.json"), "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 0
    assert counts == applies
