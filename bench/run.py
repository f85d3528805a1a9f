"""qconc benchmark: one command for every workload and metric.

    python3 bench/run.py --workload {cli-oneshot,bound-scaling,roof-corpus} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; qconc is imported from ``src/``,
so nothing is built.  The workload runs in a child process (worker.py),
on one core, with BLAS and OpenMP limited to one thread.  Set-up is timed
from the start of that process to its first timed operation, in five
fresh processes, and reported as the median at the reference speed (see
workloads.REF_KERNEL_S).  The last line of standard output is one JSON
object: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli-oneshot", "bound-scaling", "roof-corpus")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "QCONC_THREADS")
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cli_p50_s": "s",
    "bound_n3_ms": "ms",
    "bound_n6_ms": "ms",
    "roof_d_s": "s",
    "roof_e_s": "s",
    "roof_d_gap": "1",
    "roof_e_gap": "bit",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in PINNED:
        env[var] = "1"
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, setup_only: bool, deadline: float) -> tuple[float, float, list[str]]:
    """Start one workload process; returns its raw and scaled set-up seconds and its output lines."""
    rundir = os.path.join("bench", "out", f"run-{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rundir", rundir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env()) as proc:
        try:
            first = proc.stdout.readline()
            setup = time.perf_counter() - t0
            speed = proc.stdout.readline().split()
            rest = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))[0]
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit("error: the workload process ran past the deadline")
    if first.strip() != "READY" or speed[:1] != ["SPEED"] or proc.returncode != 0:
        raise SystemExit(f"error: the workload process failed (exit {proc.returncode})")
    return setup, setup * float(speed[1]), rest.splitlines()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in ("src/qconc/__init__.py", "fixtures/bell.json") if not os.path.isfile(p)]
    if missing:
        print(f"error: run from the root of a qconc checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    # One core for the workload and every process it starts, so that the
    # reference kernel runs where the timed work runs.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runs = [run_worker(args, True, deadline) for _ in range(SETUP_SAMPLES - 1)]
    runs.append(run_worker(args, False, deadline))
    lines = runs[-1][2]
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    raw = [r[0] for r in runs]
    setups = [r[1] for r in runs]
    print(f"setup_s: {len(runs)} fresh processes; raw median {statistics.median(raw):.6g} s "
          f"({' '.join(f'{s:.4f}' for s in raw)}); at reference speed median {statistics.median(setups):.6g} s")
    for err in result["errors"]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, value, unit in result["per_layer"]}
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setups), peak_rss_mb=result["peak_rss_mb"])
        if set(values) != set(END_TO_END_UNITS):
            raise SystemExit(f"error: metrics missing: {sorted(set(END_TO_END_UNITS) - set(values))}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
