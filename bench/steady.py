#!/usr/bin/env python3
"""Steadiness of the benchmark: repeat each workload with different seeds
and compare each end-to-end metric's spread with its bound.

Usage, from the root of a checkout:

    python3 bench/steady.py --runs 10 [--trace]

Every workload of BENCHMARK.json runs with seeds 1 .. --runs.  For every
workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median against the metric's bound from BENCHMARK.json, plus
the share of failed operations.  With --trace every untraced run is
followed by a traced run with the same seed, and the tracing overhead is
the median over these pairs of traced job time over untraced job_s, minus
one; the pairing keeps slow drifts of the machine out of the ratio.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    for workload in names:
        started = time.monotonic()
        results, ratios = [], []
        for seed in range(1, args.runs + 1):
            results.append(run(workload, seed, spec["run_seconds"], 0))
            if args.trace:
                traced = run(workload, seed, spec["run_seconds"], 1)
                ratios.append(traced["metrics"]["trace.job_s"]["value"]
                              / results[-1]["metrics"]["job_s"]["value"])
        per_run = (time.monotonic() - started) / (len(results) + len(ratios))
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {args.runs} runs of {per_run:.1f} s wall each, "
              f"failed share {sorted(shares)}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            print(f"  {metric['name']:12s} median {med:.5g} {metric['unit']}  "
                  f"Q1 {q1:.5g}  Q3 {q3:.5g}  spread {spread:.3f}  "
                  f"bound {metric['bound']}  {'ok' if spread <= metric['bound'] else 'WIDE'}")
            print("    " + " ".join(f"{v:.5g}" for v in values))
        if ratios:
            print(f"  tracing overhead {statistics.median(ratios) - 1:+.1%} "
                  f"(median of {len(ratios)} pairs; "
                  + " ".join(f"{r - 1:+.1%}" for r in ratios) + ")")
            layers = traced["metrics"]
            job = layers["trace.job_s"]["value"]
            for name, m in layers.items():
                share = f"  {m['value'] / job:6.1%}" if m["unit"] == "s" else ""
                if m["value"]:
                    print(f"    {name:34s} {m['value']:10.4g} {m['unit']}{share}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
