"""Compare `fracvar run` between two source trees, case by case.

Usage:
    python tools/compare_cli.py SRC_A SRC_B

Runs every problem file in demos/problems/ and the variants declared in
VARIANTS below through `python -m fracvar run` once with PYTHONPATH=SRC_A
and once with PYTHONPATH=SRC_B.  Side A runs with PYTHONHASHSEED=1 and
side B with PYTHONHASHSEED=2, so `compare_cli.py src src` checks that the
output does not depend on the process.

Per case it compares the exit code, stdout (output directory masked),
stderr (the file:line of warnings masked), summary.json without its
"timings" entry, and every CSV written.  It prints one line per case, the
largest relative difference of any number that differs, and exits 1 if
any case differs at all.  Standard library only.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "demos" / "problems"
DROP = object()  # marks a key a variant removes

# name: (fixture stem, {key: new value or DROP}, extra argv)
VARIANTS = {
    "eval-op-no-operator": ("evalop_rlfi", {"operator": DROP}, []),
    "eval-op-no-candidate": ("evalop_rlfi", {"candidate": DROP}, []),
    "solve-iso-no-constraint": ("solve_iso_lambda2", {"constraint": DROP}, []),
    "check-field-no-field": ("check_field_halfx", {"field": DROP}, []),
    "check-field-no-candidate": ("check_field_halfx", {"candidate": DROP}, []),
    "limit-sweep-no-sweep": ("limit_sweep_classical", {"sweep": DROP}, []),
    "unknown-task": ("solve_quadratic", {"task": "bogus"}, []),
    "unknown-kind": ("evalop_rlfi", {"operator": {"kind": "bogus", "order": 0.5}}, []),
    "eval-op-right-rlfd": (
        "evalop_rlfi", {"operator": {"kind": "right-rlfd", "order": 0.3},
                        "candidate": "x"}, []),
    "pins-list": ("solve_quadratic", {"pins": [{"left": 0.0, "right": None}]}, []),
    "pins-two-unknowns": (
        "functional_zero", {"unknowns": 2, "lagrangian": "v1^2 + v2^2 + u1*u2",
                            "candidate": ["x", "x^2"]}, []),
    "tiny-alpha": ("el_residual_extremal", {"orders": {"alpha": 1e-17, "beta": 0.5}}, []),
    "n-cells-0": ("solve_quadratic", {}, ["--n-cells", "0"]),
    "n-cells-32": ("el_residual_extremal", {}, ["--n-cells", "32"]),
    "no-converge": (
        "solve_quadratic", {"lagrangian": "(v - 1)^2 + v^4",
                            "solver": {"max_iters": 3, "grad_tol": 1e-14}}, []),
    "domain-error": ("functional_zero", {"candidate": "log(x - 2)"}, []),
    "solve-iso-abnormal": ("solve_iso_lambda2", {"constraint": {"g": "x", "ell": 1.0}}, []),
    "convex-violated": ("certify_convex_mixed", {"lagrangian": "-(v^2)"}, []),
    "functional-constraint": ("functional_zero", {"constraint": {"g": "v", "ell": 1.0}}, []),
    "el-residual-constraint": (
        "el_residual_extremal", {"constraint": {"g": "v", "ell": 1.0}}, []),
    "limit-sweep-constraint": (
        "limit_sweep_classical", {"constraint": {"g": "v", "ell": 1.0}}, []),
    "certify-convex-constraint": (
        "certify_convex_mixed", {"constraint": {"g": "v", "ell": 1.0}}, []),
    "solve-constraint": ("solve_quadratic", {"constraint": {"g": "v", "ell": 1.0}}, []),
}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")
_WARNING_AT = re.compile(r"^\S+\.py:\d+:", re.MULTILINE)


def cases(work: Path) -> dict[str, tuple[Path, list[str]]]:
    """name -> (problem file, extra argv): the fixtures, then the variants."""
    out = {p.stem: (p, []) for p in sorted(FIXTURES.glob("*.json"))}
    for name, (stem, edits, argv) in VARIANTS.items():
        doc = json.loads((FIXTURES / f"{stem}.json").read_text())
        for key, val in edits.items():
            if val is DROP:
                doc.pop(key, None)
            else:
                doc[key] = val
        path = work / f"{name}.json"
        path.write_text(json.dumps(doc))
        out[name] = (path, argv)
    return out


def run(src: str, hash_seed: str, problem: Path, argv: list[str], out: Path) -> dict:
    """Everything one run leaves behind, keyed by what it is."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()),
               PYTHONHASHSEED=hash_seed)
    out.parent.mkdir()
    proc = subprocess.run(
        [sys.executable, "-m", "fracvar", "run", str(problem), "--out", str(out), *argv],
        capture_output=True, text=True, env=env, cwd=out.parent,
    )
    result = {
        "exit": str(proc.returncode),
        "stdout": proc.stdout.replace(str(out), "<out>"),
        "stderr": _WARNING_AT.sub("<file>:<line>:", proc.stderr),
    }
    if (out / "summary.json").exists():
        summary = json.loads((out / "summary.json").read_text())
        summary.pop("timings", None)
        result["summary.json"] = summary
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="") as fh:
            result[path.name] = list(csv.reader(fh))
    return result


def _rel(x: float, y: float) -> float:
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    scale = max(abs(x), abs(y))
    return math.inf if not math.isfinite(scale) else abs(x - y) / scale


def _float(tok) -> float | None:
    if isinstance(tok, bool) or not isinstance(tok, (int, float, str)):
        return None
    try:
        return float(tok)
    except ValueError:
        return None


def diff(x, y) -> float:
    """0 if x == y; else the largest relative difference of numbers that
    differ where everything else agrees; inf if anything else differs."""
    if x == y:
        return 0.0
    if isinstance(x, dict) and isinstance(y, dict):
        if set(x) != set(y):
            return math.inf
        return max(diff(x[k], y[k]) for k in x)
    if isinstance(x, list) and isinstance(y, list):
        if len(x) != len(y):
            return math.inf
        return max(diff(a, b) for a, b in zip(x, y))
    if isinstance(x, str) and isinstance(y, str):
        if _NUMBER.sub("#", x) != _NUMBER.sub("#", y):
            return math.inf
        nx, ny = _NUMBER.findall(x), _NUMBER.findall(y)
        return max(diff(float(a), float(b)) for a, b in zip(nx, ny))
    fx, fy = _float(x), _float(y)
    if fx is None or fy is None:
        return math.inf
    return _rel(fx, fy)


def compare(a: dict, b: dict) -> dict[str, float]:
    """What differs between two runs of one case, with its size."""
    diffs = {}
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            diffs[key] = math.inf
            continue
        x, y = a[key], b[key]
        if key == "summary.json":
            # the hash follows from the rest; report it only on its own
            x, y = dict(x), dict(y)
            hx, hy = x.pop("summary_hash", None), y.pop("summary_hash", None)
            if x == y and hx != hy:
                diffs["summary_hash"] = math.inf
        if key.endswith(".csv") and x[:1] != y[:1]:
            diffs[key + " header"] = math.inf
        d = diff(x, y) if key != "exit" or x == y else math.inf
        if d or x != y:
            diffs[key] = d
    return diffs


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/compare_cli.py SRC_A SRC_B", file=sys.stderr)
        return 2
    src_a, src_b = args
    worst = 0.0
    n_diff = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, (problem, extra) in cases(work).items():
            ra = run(src_a, "1", problem, extra, work / f"{name}.a" / "out")
            rb = run(src_b, "2", problem, extra, work / f"{name}.b" / "out")
            diffs = compare(ra, rb)
            if diffs:
                n_diff += 1
                worst = max(worst, *diffs.values())
                what = ", ".join(f"{k} ({v:.3g})" for k, v in diffs.items())
                print(f"DIFF  {name} exit {ra['exit']} vs {rb['exit']}: {what}")
            else:
                print(f"same  {name} exit {ra['exit']}")
    print(f"{n_diff} case(s) differ; largest relative difference {worst:.3g}")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
