"""One workload process: set up, print READY, run rounds, check, report.

Started by run.py, which times it from process start to the READY line
(set-up time).  Right after READY it prints ``SPEED <factor>``: the
reference kernel time over the median of 101 kernel runs, which scales
that set-up time to the reference speed.  With --setup-only it exits
there.  The last line of its output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

import probe
import tracing
from workloads import REF_KERNEL_S, WORKLOADS, ref_kernel


def src_lines() -> int:
    count = 0
    for root, _, files in os.walk(os.path.join("src", "qconc")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    count += sum(1 for line in fh if line.strip())
    return count


def describe(name: str, raw: list[float], scaled: list[float], unit: str, scale: float) -> str:
    """Median (p90 from 40 samples on) of the raw times and of the scaled ones."""
    parts = []
    for label, values in (("raw", raw), ("at reference speed", scaled)):
        xs = [v * scale for v in values]
        text = f"median {statistics.median(xs):.6g} {unit}"
        if len(xs) >= 40:
            text += f", p90 {statistics.quantiles(xs, n=10)[-1]:.6g} {unit}"
        parts.append(f"{label} {text}")
    return f"{name}: {len(raw)} samples; " + "; ".join(parts)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rundir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    os.makedirs(args.rundir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.rundir, tracing.NullTracer())
        wl.setup()
        print("READY", flush=True)
        print(f"SPEED {REF_KERNEL_S / statistics.median(ref_kernel() for _ in range(101))!r}", flush=True)
        if args.setup_only:
            return 0
        return run(wl, args)
    finally:
        shutil.rmtree(args.rundir, ignore_errors=True)


def run(wl, args) -> int:
    tracer = tracing.Tracer() if args.trace else None
    null = wl.tr
    traced_rounds, plain_rounds = [], []
    start = time.perf_counter()
    rounds = 0

    # Whole rounds, stopping where the run length comes closest to
    # --seconds; a traced run alternates traced and untraced rounds and
    # needs at least one of each.
    def more() -> bool:
        elapsed = time.perf_counter() - start
        return elapsed + 0.5 * elapsed / rounds < args.seconds or (args.trace and rounds < 2)

    while rounds == 0 or more():
        traced = tracer is not None and rounds % 2 == 0
        wl.tr = tracer if traced else null
        t0, k0 = time.perf_counter(), len(wl.kernel)
        with wl.tr.span("bench.round", wl.name):
            wl.round()
        # Round time at the reference speed, so that the machine's speed
        # changes between rounds do not pass for tracing overhead.
        scale = REF_KERNEL_S / statistics.median(wl.kernel[k0:])
        (traced_rounds if traced else plain_rounds).append((time.perf_counter() - t0) * scale)
        wl.end_round()
        rounds += 1
    elapsed = time.perf_counter() - start
    wl.tr = null

    try:
        wl.verify()
        e2e = wl.end_to_end()
    except Exception as exc:  # a check that cannot run is a failed check
        wl.errors.append(f"verification raised {exc!r}")
        e2e = {}
    kernel_ms = 1e3 * statistics.median(wl.kernel)
    q1, _, q3 = statistics.quantiles(wl.kernel, n=4)
    lines = [
        f"workload {wl.name} seed {args.seed}: {rounds} rounds in {elapsed:.2f} s",
        f"ops attempted={wl.attempted} failed={wl.failed}",
        f"results_sha256 {wl.digest()}",
        f"host.ref_kernel_ms: median {kernel_ms:.6g} ms, quartiles {1e3 * q1:.6g} {1e3 * q3:.6g} "
        f"over {len(wl.kernel)} runs; speed factor {REF_KERNEL_S / statistics.median(wl.kernel):.4f}",
        f"src.lines: {src_lines()}",
    ]
    for key, name, unit, scale in (("cli", "cli_p50_s", "s", 1.0), ("bound.n3", "bound_n3_ms", "ms", 1e3),
                                   ("bound.n6", "bound_n6_ms", "ms", 1e3)):
        lines.append(describe(name, wl.samples[key], wl.scaled[key], unit, scale))
    for key, name in (("roof.d", "roof_d_s"), ("roof.e", "roof_e_s")):
        lines.append(f"{name}: {len(wl.samples[key])} roofs; raw mean {statistics.fmean(wl.samples[key]):.6g} s; "
                     f"at reference speed mean {wl.roof_mean(key):.6g} s")
    if hasattr(wl, "extra_lines"):
        lines.extend(wl.extra_lines())
    out = {
        "attempted": wl.attempted,
        "failed": wl.failed,
        "errors": wl.errors[:20],
        "metrics": e2e,
        "peak_rss_mb": wl.peak_rss_kb() / 1024.0,
    }
    if tracer is not None:
        layers = tracer.self_times()
        lines.append("self time by layer over traced rounds: "
                     + ", ".join(f"{k} {v:.4f} s" for k, v in sorted(layers.items())))
        overhead = 100.0 * (statistics.fmean(traced_rounds) / statistics.fmean(plain_rounds) - 1.0)
        lines.append(f"tracing overhead: {overhead:+.3f}% at reference speed (traced {len(traced_rounds)} rounds, "
                     f"untraced {len(plain_rounds)} rounds, {len(tracer.spans)} spans)")
        per_layer, probe_tracer = probe.measure(args.seed)
        per_layer["host.ref_kernel_ms"] = kernel_ms
        per_layer["src.lines"] = src_lines()
        per_layer["trace.overhead_pct"] = overhead
        missing = [name for name, _ in probe.PER_LAYER if name not in per_layer]
        if missing:
            wl.errors.append(f"per-layer metrics missing: {missing}")
        out["per_layer"] = [[name, per_layer.get(name, 0.0), unit] for name, unit in probe.PER_LAYER]
        path = os.path.join("bench", "out", f"trace-{wl.name}-seed{args.seed}.json")
        tracing.write_all(path, {"workload": tracer, "probe": probe_tracer}, layers)
        lines.append(f"trace written to {path}")
    for line in lines:
        print(line)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
