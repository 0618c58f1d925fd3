"""fracvar benchmark: one workload per process, closed loop, oracle-checked.

Run from the repository root:

    python3 perfbench/run.py --workload solve-ladder --seed 1 --seconds 50 --trace 0

Workloads: solve-ladder, grid-certify (see workloads.py and manifest.json).  The run repeats passes over the workload's operation list
for about --seconds seconds, checks every result against its oracle and
prints, as its last line, one JSON object with the keys correct, attempted,
failed and metrics.  The line before it holds the details: per-operation
times, failures with their reasons, exact counts, machine facts.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes, then runs the per-layer probes, and reports the
per-layer metrics and the tracing overhead; its spans are written to
.perfbench/trace_<workload>.json when the run ends.

Every summary_hash and exact count is kept in .perfbench/state-<code>.json,
where <code> fingerprints the sources, fixtures and benchmark, so a change
between runs of the same code shows: a changed hash fails an operation, a
changed count is flagged.

Timings cover only this process and the set-up processes it starts.
"""

from __future__ import annotations

import os
import time

T_START = time.perf_counter()

# Pin the BLAS pool before numpy loads; one thread keeps timings steady on a
# shared two-core machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

import oracles
from spans import NoTrace, Tracer

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"
SCHEMA_VERSION = 1
SETUP_SAMPLES = 7
WORKLOADS = ("solve-ladder", "grid-certify")


def _load_fracvar() -> None:
    """Put the checkout's own sources first on the path, or stop."""
    src = ROOT / "src"
    if not (src / "fracvar" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: fracvar sources not found under {src}")
    if not (ROOT / "demos" / "problems").is_dir():
        raise SystemExit(f"perfbench: problem fixtures not found under {ROOT / 'demos'}")
    sys.path.insert(0, str(src))


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload, print 'ready' and exit (set-up timing)")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


# -- machine facts ------------------------------------------------------------------


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _revision() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        rev = _read(ROOT / ".git" / ref)
        if not rev:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    rev = line.split()[0]
        return rev or "unknown"
    return head or "unknown (not a git checkout)"


def machine_facts() -> dict:
    import numpy as np

    cpu = next((line.split(":", 1)[1].strip()
                for line in _read(Path("/proc/cpuinfo")).splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches[f"L{_read(idx / 'level')} {_read(idx / 'type')}"] = _read(idx / "size")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "schema_version": SCHEMA_VERSION,
        "revision": _revision(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


# -- state kept between runs in one checkout ----------------------------------------------


def _state_path() -> Path:
    """One state file per version of the code: another version may change
    its outputs, and that is no determinism failure."""
    digest = hashlib.sha256()
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos" / "problems").glob("*.json"),
             *Path(__file__).resolve().parent.glob("*.py")]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return STATE_DIR / f"state-{digest.hexdigest()[:16]}.json"


def _load_state(path: Path) -> dict:
    try:
        state = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        state = {}
    return {"hashes": state.get("hashes", {}), "counts": state.get("counts", {})}


def _save_state(path: Path, ctx) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"hashes": ctx.hashes, "counts": ctx.counts},
                              sort_keys=True, indent=1) + "\n")
    os.replace(tmp, path)


# -- measurement -----------------------------------------------------------------------


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Process start to 'ready' (imports and workload built) in fresh processes."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            rest = proc.stdout.read()
            rc = proc.wait(timeout=60)
        if line.strip() != "ready" or rc != 0:
            raise SystemExit(f"perfbench: set-up process failed (exit {rc}): {line}{rest}")
        out.append(dt)
    return out


def run_pass(workload, tracer, ctx) -> dict:
    """Issue every operation once, back to back; time each call alone."""
    times = defaultdict(list)
    failures = []
    t_pass = time.perf_counter()
    with tracer.span("pass", "bench"):
        for op in workload.ops():
            with tracer.span(op.name, op.layer):
                t0 = time.perf_counter()
                try:
                    result = op.call()
                except Exception as exc:  # counted as a failed operation, run goes on
                    times[op.name].append(time.perf_counter() - t0)
                    failures.append((op.name, "error", f"{type(exc).__name__}: {exc}"))
                    continue
                times[op.name].append(time.perf_counter() - t0)
            with tracer.span(f"oracle.{op.name}", "oracle"):
                try:
                    op.check(result)
                except oracles.Miss as miss:
                    failures.append((op.name, miss.kind, miss.reason))
                if op.counts is not None:
                    for key, value in op.counts(result).items():
                        ctx.record_count(f"{workload.name}.{op.name}.{key}", value)
    return {"times": times, "failures": failures,
            "attempted": sum(len(v) for v in times.values()),
            "pass_s": time.perf_counter() - t_pass}


def run_passes(workload, ctx, seconds: float, tracer_for, min_passes: int = 1):
    """Passes until about `seconds` have gone: stop when the next pass would
    end more than half a pass after the budget."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, tracer_for(len(passes)), ctx))
        est = statistics.median(p["pass_s"] for p in passes)
        if len(passes) >= min_passes and time.perf_counter() - start + est / 2 > seconds:
            return passes


def _unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_mib", "MiB"), ("_s", "s")):
        if any(part.endswith(suffix) for part in name.split(".")):
            return unit
    if ".iters." in name:
        return "count"
    if name.endswith("converged"):
        return "fraction"
    raise ValueError(f"no unit for metric {name}")


def _metric_block(values: dict) -> dict:
    return {k: {"value": float(v), "unit": _unit(k)} for k, v in values.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    _load_fracvar()
    import numpy as np

    import probes
    import workloads as wl

    if args.setup_only:
        wl.BUILDERS[args.workload](args.seed, wl.Context(ROOT / "demos" / "problems", STATE_DIR))
        print("ready", flush=True)
        return 0

    state_path = _state_path()
    state = _load_state(state_path)
    STATE_DIR.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="out_", dir=STATE_DIR))
    ctx = wl.Context(ROOT / "demos" / "problems", out_dir, state["hashes"], state["counts"])
    try:
        workload = wl.BUILDERS[args.workload](args.seed, ctx)
        setup_in_process = time.perf_counter() - T_START
        setup = [] if args.trace else setup_seconds(args.workload, args.seed)
        if args.trace:
            tracer = Tracer()
            passes = run_passes(workload, ctx, args.seconds,
                                lambda i: tracer if i % 2 else NoTrace(), min_passes=2)
            probe_metrics, probe_failures = probes.run_all(tracer, ctx)
        else:
            passes = run_passes(workload, ctx, args.seconds, lambda i: NoTrace())
            probe_failures = []
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    _save_state(state_path, ctx)

    pass_times = [p["times"] for p in passes]
    failures = Counter(f for p in passes for f in p["failures"])
    failures.update(probe_failures)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(failures.values())
    wrong = any(kind == "wrong" for (_, kind, _) in failures)
    walls = [sum(sum(v) for v in t.values()) for t in pass_times]

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes),
        "pass_wall_s": walls,
        "op_median_s": {name: float(np.median([s for t in pass_times for s in t[name]]))
                        for name in pass_times[0]},
        "finer_metrics": workload.aliases(pass_times),
        "failures": [{"op": op, "kind": kind, "reason": reason, "count": n}
                     for (op, kind, reason), n in sorted(failures.items())],
        "flags": ctx.flags,
        "setup_samples_s": setup,
        "setup_in_process_s": setup_in_process,  # run.py start to workload built
        "machine": machine_facts(),
    }
    if args.trace:
        traced_ids = {sid for sid, parent, name, *_ in tracer.spans
                      if parent is None and name == "pass"}
        metrics = dict(probe_metrics)
        metrics["trace.overhead_s"] = (statistics.median(p["pass_s"] for p in passes[1::2])
                                       - statistics.median(p["pass_s"] for p in passes[0::2]))
        detail["pass_self_s"] = tracer.self_seconds(traced_ids)
        detail["spans"] = len(tracer.spans)
        tracer.write(STATE_DIR / f"trace_{args.workload}.json")
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "key_op_s": workload.key_op(pass_times),
            "key_op2_s": workload.key_op2(pass_times),
        }
    for flag in ctx.flags:
        print(f"perfbench: FLAG {flag}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": _metric_block(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
