"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--workloads cli-oneshot ...] \
        [--out bench/out/set-a.json] [--against bench/out/set-b.json]

For every workload and end-to-end metric it prints the median and the
quartiles of the per-seed values (``statistics.quantiles(n=4)``), and the
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json.
``--against`` compares the medians with an earlier set made the same way.
Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()

    runs: dict[str, list[dict]] = {}
    for wl in args.workloads:
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["digest"] = next(x.split()[1] for x in lines if x.startswith("results_sha256"))
            result["host_ref_kernel_ms"] = float(
                next(x for x in lines if x.startswith("host.ref_kernel_ms")).split()[2])
            runs.setdefault(wl, []).append(result)
            print(f"{wl} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)
    before = {}
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            before = json.load(fh)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':14} {'metric':12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}"
          + ("  vs-earlier" if before else ""))
    for wl, results in runs.items():
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else 0.0
            line = f"{wl:14} {name:12} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} {bound:6.3f}"
            if wl in before:
                old = statistics.median(r["metrics"][name]["value"] for r in before[wl])
                line += f"  {med / old - 1.0:+.3f}"
            print(line)
        kernel = [r["host_ref_kernel_ms"] for r in results]
        q1, _, q3 = statistics.quantiles(kernel, n=4)
        print(f"{wl:14} host.ref_kernel_ms median {statistics.median(kernel):.4g} quartiles {q1:.4g} {q3:.4g}; "
              f"failed share {sorted({r['failed'] / r['attempted'] for r in results})}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
