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
any case differs at all.  A CSV number counts relative to the largest
finite magnitude in its column on either side, a summary.json number
relative to the larger of the two.  A key that only one side has (an
output file, or a key of summary.json at any depth) is printed on a line
of its own, "removed PATH" or "added PATH", and the rest is compared on
the keys both sides share.  Standard library only.
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
TWO_ORDERS = {"alpha": [0.3, 0.7], "beta": [0.4, 0.6]}

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
    "interval-infinite": ("solve_quadratic", {"interval": {"a": -math.inf, "b": 1.0}}, []),
    "tiny-alpha": ("el_residual_extremal", {"orders": {"alpha": 1e-17, "beta": 0.5}}, []),
    "n-cells-0": ("solve_quadratic", {}, ["--n-cells", "0"]),
    "n-cells-32": ("el_residual_extremal", {}, ["--n-cells", "32"]),
    # past the direct-convolution cutoff: the triangle products, the FFT
    # levels and the preconditioner's block solves
    "el-residual-n-cells-2048": ("el_residual_extremal", {}, ["--n-cells", "2048"]),
    "solve-n-cells-2048": ("solve_quadratic", {}, ["--n-cells", "2048"]),
    "solver-step-init": ("solve_quadratic", {"solver": {"step_init": 0.5}}, []),
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
    "task-list": ("solve_quadratic", {"task": []}, []),
    "task-object": ("solve_quadratic", {"task": {}}, []),
    "kind-list": ("evalop_rlfi", {"operator": {"kind": ["left-rlfi"], "order": 0.5}}, []),
    "convex-indexed-violated": ("certify_convex_mixed", {"lagrangian": "-(v1^2)"}, []),
    "check-field-indexed": ("check_field_halfx", {"lagrangian": "v1^2/2"}, []),
    "check-field-two-unknowns": (
        "check_field_halfx", {"unknowns": 2, "lagrangian": "v1^2/2",
                              "candidate": ["sqrt(x)", "sqrt(x)"]}, []),
    "check-field-alpha-not-beta": (
        "check_field_halfx", {"orders": {"alpha": 0.5, "beta": 0.3}}, []),
    # several orders per side: the channel order u1.., v1.. is exercised
    "el-residual-two-by-two": (
        "el_residual_extremal",
        {"unknowns": 2, "orders": TWO_ORDERS, "candidate": ["sqrt(x)", "x^2"],
         "lagrangian": "v1^2 + v2*v3 + u1*v4 + u2^2 + x*u3 + (v4 - 1)^2 + u4*v1"}, []),
    "solve-two-by-two": (
        "solve_quadratic",
        {"unknowns": 2, "orders": TWO_ORDERS,
         "lagrangian": "(v1 - x)^2 + v2^2 + v3^2 + (v4 - 1)^2 + v1*v4/2 + u1^2"
                       " + u1*v2/4 + u2^2 + u3*u4/4 + exp(u4)/8",
         "pins": [{"left": 0.0, "right": None}, {"left": None, "right": None}]}, []),
    "solve-iso-two-orders": (
        "solve_iso_lambda2",
        {"orders": TWO_ORDERS, "lagrangian": "v1^2 + v2^2 + u1*u2",
         "constraint": {"g": "v1", "ell": 1.0}}, []),
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


def _rel(x: float, y: float, scale: float | None = None) -> float:
    """|x - y| relative to scale, by default the larger of |x| and |y|;
    inf where they differ and either is not finite."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / (max(abs(x), abs(y)) if scale is None else scale)


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


def table_diff(x: list, y: list) -> float:
    """diff for two CSV tables (lists of rows), where a number counts
    relative to the largest finite magnitude in its column on either side:
    round-off in an entry near zero reads as small as it is beside the
    column's larger entries."""
    if [len(row) for row in x] != [len(row) for row in y]:
        return math.inf
    scale = {}
    for row in x + y:
        for j, tok in enumerate(row):
            f = _float(tok)
            if f is not None and math.isfinite(f):
                scale[j] = max(scale.get(j, 0.0), abs(f))
    worst = 0.0
    for a, b in zip(x, y):
        for j, (s, t) in enumerate(zip(a, b)):
            fs, ft = _float(s), _float(t)
            d = diff(s, t) if fs is None or ft is None else _rel(fs, ft, scale.get(j))
            worst = max(worst, d)
    return worst


def key_changes(x, y, path: str = "") -> tuple[list[str], list[str]]:
    """(removed, added): the key paths of dicts in x that y lacks, and
    those of y that x lacks, through nested dicts and equal-length lists."""
    removed, added = [], []
    if isinstance(x, dict) and isinstance(y, dict):
        removed += [path + str(k) for k in x if k not in y]
        added += [path + str(k) for k in y if k not in x]
        pairs = [(f"{path}{k}/", x[k], y[k]) for k in x if k in y]
    elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        pairs = [(f"{path}{i}/", a, b) for i, (a, b) in enumerate(zip(x, y))]
    else:
        pairs = []
    for sub, a, b in pairs:
        more_removed, more_added = key_changes(a, b, sub)
        removed += more_removed
        added += more_added
    return removed, added


def shared(x, y):
    """x with every dict cut down to the keys y has at the same place."""
    if isinstance(x, dict) and isinstance(y, dict):
        return {k: shared(v, y[k]) for k, v in x.items() if k in y}
    if isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        return [shared(a, b) for a, b in zip(x, y)]
    return x


def compare(a: dict, b: dict) -> tuple[dict[str, float], list[str], list[str]]:
    """What differs between two runs of one case: the differing entries
    with their size, compared on the keys both runs have, and the removed
    and added key paths."""
    removed, added = key_changes(a, b)
    diffs = {}
    for key in sorted(set(a) & set(b)):
        x, y = shared(a[key], b[key]), shared(b[key], a[key])
        if key == "summary.json":
            # the hash follows from the rest; report it only on its own
            x, y = dict(x), dict(y)
            hx, hy = x.pop("summary_hash", None), y.pop("summary_hash", None)
            keys_same = not any(p.startswith(key + "/") for p in removed + added)
            if x == y and hx != hy and keys_same:
                diffs["summary_hash"] = math.inf
        if key.endswith(".csv") and x[:1] != y[:1]:
            diffs[key + " header"] = math.inf
        measure = table_diff if key.endswith(".csv") else diff
        d = measure(x, y) if key != "exit" or x == y else math.inf
        if d or x != y:
            diffs[key] = d
    return diffs, removed, added


def report(name: str, a: dict, b: dict, diffs: dict, removed: list, added: list) -> list[str]:
    """The lines printed for a case whose runs a and b compare as given:
    "same" or "DIFF", then one line per removed or added key path."""
    if not (diffs or removed or added):
        return [f"same  {name} exit {a['exit']}"]
    what = ", ".join(f"{k} ({v:.3g})" for k, v in diffs.items()) or "key set only"
    lines = [f"DIFF  {name} exit {a['exit']} vs {b['exit']}: {what}"]
    lines += [f"      removed {path}" for path in removed]
    lines += [f"      added   {path}" for path in added]
    return lines


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
            changes = compare(ra, rb)
            print("\n".join(report(name, ra, rb, *changes)))
            if any(changes):
                n_diff += 1
                worst = max(worst, *changes[0].values())
    print(f"{n_diff} case(s) differ; largest relative difference {worst:.3g}")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
