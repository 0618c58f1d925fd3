"""End-to-end checks of the `fracvar run` entry point."""
import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from fracvar.cli import main


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


def test_unknown_key_exits_2(tmp_path, capsys):
    doc = base_solve_doc(bogus=1)
    rc = main(["run", write_problem(tmp_path / "p.json", doc),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


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


def test_sweep_order_rejected_by_varproblem_exits_2(tmp_path, capsys):
    doc = json.loads((FIXTURES / "limit_sweep_classical.json").read_text())
    doc["sweep"]["orders"] = [1e-17]
    rc = main(["run", write_problem(tmp_path / "p.json", doc),
               "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert "1 - alpha rounds to 1" in capsys.readouterr().err
