"""fockbridge benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 20 --trace 0

Run it from anywhere; it benchmarks the fockbridge sources in ``src/`` next
to this directory and refuses to run without them.  The last line of
standard output is one JSON object, ``{"correct", "attempted", "failed",
"metrics"}``, whose metrics are the ones BENCHMARK.json names: its
``end_to_end`` list with ``--trace 0``, its ``per_layer`` list with
``--trace 1``.  ``--trace 1`` repeats the untraced passes and then runs one
pass with every public fockbridge function wrapped in a timer.  The lines
before the result list every metric with its unit, then the pass wall time,
the per-operation latency, the failure fraction, the worst margin and the
environment.  See NOTES.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Cold set-up runs in fresh processes, half before the passes and half after
#: them, so that a slow spell of the machine does not take all of them;
#: setup_s is their median.
SETUP_RUNS = 6

#: A latency percentile is printed only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def _declared_metrics(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of the ``end_to_end`` or ``per_layer`` metrics BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[kind]]


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cap_blas_threads(nproc: int) -> None:
    """At most nproc OpenBLAS threads; must run before numpy is imported."""
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    if not current.isdigit() or not 1 <= int(current) <= nproc:
        os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)


def _openblas_threads():
    """The OpenBLAS thread count numpy's BLAS reports, or None if not found."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_sha() -> str:
    """HEAD of the checkout's git metadata, read from files; "unknown" without it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(np, scipy, nproc: int) -> dict:
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
        "git_sha": _git_sha(),
    }


def _setup_seconds(spec: dict, runs: int) -> list[float]:
    """Cold import plus rule and symbol builds, each in a fresh process."""
    probe = HERE / "setup_probe.py"
    arg = json.dumps(dict(spec, src=str(SRC)))
    times = []
    for _ in range(runs):
        done = subprocess.run([sys.executable, str(probe), arg], capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _passes(workload, seconds: float) -> tuple[list[float], list]:
    """Untraced passes for at most ``seconds``, and at least one.

    Another pass starts only while one of median length still fits, so a
    workload whose pass outlasts the window runs exactly once.
    """
    walls, results = [], []
    while not walls or sum(walls) + statistics.median(walls) <= seconds:
        wall, res = workload.run_pass()
        walls.append(wall)
        results.extend(res)
    return walls, results


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def _median_by_kind(results) -> dict:
    """Median latency of each kind of operation, in seconds."""
    by_kind = {}
    for r in results:
        by_kind.setdefault(r.kind, []).append(r.seconds)
    return {kind: statistics.median(v) for kind, v in sorted(by_kind.items())}


def _layer_values(tracer, traced_wall: float, untraced_wall: float, verify_ops) -> dict:
    """Every per-layer value the trace gives; a function never called reads 0."""
    summary = tracer.summary()
    values = {}
    for name, _ in _declared_metrics("per_layer"):
        base, _, stat = name.rpartition(".")
        entry = summary.get(base, {"calls": 0, "self_s": 0.0, "durations": []})
        if stat == "calls":
            values[name] = entry["calls"]
        elif stat == "self_s":
            values[name] = entry["self_s"]
        elif stat == "p50_ms":
            values[name] = 1e3 * _percentile(entry["durations"], 50)
    values.update(tracer.counts)
    for op in verify_ops:
        values[f"verify.{op.kind}.wall_s"] = op.seconds
        values[f"verify.{op.kind}.margin"] = op.margin
    values["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    values["span_coverage"] = sum(e["self_s"] for e in summary.values()) / traced_wall
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fockbridge" / "__init__.py").is_file():
        print(f"perfbench: no fockbridge sources at {SRC}", file=sys.stderr)
        return 2
    nproc = _nproc()
    _cap_blas_threads(nproc)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import fockbridge as fb
    import fockbridge.cli  # noqa: F401  (bound as fb.cli for the CLI workload)

    if Path(fb.__file__).resolve().parent != SRC / "fockbridge":
        print(f"perfbench: imported fockbridge from {fb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS, build_setup

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = HERE / "work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        workload = WORKLOADS[args.workload](fb, args.seed, Path(workdir))
        setup = _setup_seconds(workload.spec, SETUP_RUNS // 2) if args.trace == 0 else []
        rule_build_s = build_setup(fb, workload.spec)
        results = []
        if workload.warmup_pass:
            results.extend(workload.run_pass()[1])
        walls, timed = _passes(workload, args.seconds)
        results.extend(timed)
        if args.trace == 0:
            setup += _setup_seconds(workload.spec, SETUP_RUNS - SETUP_RUNS // 2)
        if args.trace == 1:
            tracer = Tracer()
            tracer.install(fb)
            try:
                traced_wall, traced = workload.run_pass(tracer)
            finally:
                tracer.uninstall()
            results.extend(traced)
            tracer.write(HERE / "out" / f"{args.workload}-seed{args.seed}-spans.jsonl.gz")

    attempted = len(results)
    failed = sum(not r.ok for r in results)
    latencies_ms = [1e3 * r.seconds for r in timed]
    wall_s = statistics.median(walls)
    if args.trace == 0:
        values = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: (values[name], unit) for name, unit in _declared_metrics("end_to_end")}
    else:
        verify_ops = timed if args.workload == "verify_all" else []
        values = _layer_values(tracer, traced_wall, wall_s, verify_ops)
        values["quadrature.rule_build_s"] = rule_build_s
        metrics = {name: (values.get(name, 0), unit) for name, unit in _declared_metrics("per_layer")}

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    # Reported, not bounded: see NOTES.md on why these are not end_to_end metrics.
    print(f"wall_s {wall_s:.6g} s (median of {len(walls)} passes)")
    n = len(latencies_ms)
    print(f"op_p50_ms {_percentile(latencies_ms, 50):.6g} ms ({n} samples)")
    beyond = n - math.ceil(0.95 * n)
    if beyond >= TAIL_SAMPLES:
        print(f"op_p95_ms {_percentile(latencies_ms, 95):.6g} ms ({n} samples, {beyond} beyond it)")
    fail_frac = failed / attempted
    max_margin = max(r.margin for r in results)
    print(f"fail_frac {fail_frac:.6g} ratio ({failed} of {attempted} operations)")
    print(f"max_margin {max_margin:.6g} ratio")
    for r in results:
        if not r.ok:
            print(f"failed: {r.kind}: margin {r.margin:.3g} {r.detail}")
    print("env " + json.dumps(_environment(np, scipy, nproc)))
    print("run " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops_per_pass": workload.op_count(), "pass_walls_s": walls, "setup_runs_s": setup,
        "op_median_s": _median_by_kind(timed),
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
