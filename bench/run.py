#!/usr/bin/env python3
"""codespectra benchmark: one workload, timed per job, checked apart from the program.

Usage, from the root of a checkout:

    python3 bench/run.py --workload spectral --seed 1 --seconds 55 --trace 0

--trace 0 prints the end-to-end metrics:
  job_s        median wall time of one job (a fixed round of CLI calls),
               over every job of the run, each with its own seed;
  setup_s      median, over fresh interpreters started between the jobs,
               of the time from process start to `import codespectra` plus
               building the workload's codes;
  peak_rss_mb  peak resident set size of the process that ran the jobs.
--trace 1 runs the same jobs with spans around each layer and prints the
per-layer self times and counts instead.

Every call's outputs are checked afterwards (see checks.py); a call that
raised or failed a check counts as a failed operation and the command
exits 1.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; correct speaks of the calls that
returned, so it is false only when a check failed, while a call that raised
shows in failed alone.  Without src/codespectra in the current
directory the command exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402

# One BLAS thread: a second one spins and inflates CPU time without
# shortening a p <= 50 eigensolve.  Must not exceed nproc.
BLAS_ENV = {var: "1" for var in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
WORKER_GRACE_S = 100

PER_LAYER = [
    "codes.make.s", "codes.code_report.s", "codes.code_report.alloc_peak_mb",
    "signal.sample_codewords.s", "signal.sample_codewords.calls",
    "spectra.summarize.s", "spectra.gram.s", "spectra.center_scale.s",
    "spectra.eig_hermitian.s", "spectra.eig_hermitian.calls",
    "spectra.ks_statistic.s", "laws.cdf.calls", "spectra.trace_moments.s",
    "svg.render_histogram_svg.s", "cli.self.s",
    "paths.paths_audit.s", "paths.enumerate.s",
    "paths.count_W.s", "paths.count_W.calls",
    "paths.count_W_pair.s", "paths.count_W_pair.calls",
    "paths.expect_omega.s", "paths.expect_omega.calls",
    "trace.job_s",
]


def unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    return "MB" if name.endswith("_mb") else "s"


def layer_metrics(spans_file: Path, jobs: list[dict]) -> dict[str, float]:
    """Median over jobs of each per-layer value; self time is a span's
    duration minus the durations of its direct children."""
    data = json.loads(spans_file.read_text())
    spans = data["spans"]
    child = [0.0] * len(spans)
    for name, job, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    per_job = [dict(c) for c in data["counters"]]
    for (name, job, _, start, end), covered in zip(spans, child):
        acc = per_job[job]
        acc[name + ".s"] = acc.get(name + ".s", 0.0) + (end - start - covered)
        acc[name + ".calls"] = acc.get(name + ".calls", 0) + 1
    for acc, job in zip(per_job, jobs):
        acc["trace.job_s"] = job["wall_s"]
    return {name: statistics.median(acc.get(name, 0) for acc in per_job)
            for name in PER_LAYER}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "codespectra" / "__init__.py").is_file():
        print(f"error: {src}/codespectra not found; run from the repository root",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy loads, here and in every child
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    sys.path.insert(0, str(src))

    out = root / ".bench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    worker = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), args.workload,
         str(args.seed), str(args.seconds), str(args.trace), str(out)],
        env=env, timeout=args.seconds + WORKER_GRACE_S)
    if worker.returncode != 0:
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    run = json.loads((out / "jobs.json").read_text())
    jobs, setup = run["jobs"], run["setup_s"]

    from checks import Checker  # numpy and scipy load only after the timed worker
    checker = Checker()
    calls = WORKLOADS[args.workload]["calls"]
    attempted = failed = check_failures = 0
    for job in jobs:
        verdicts = checker.check_job(calls, job["seed"], out / job["dir"], job["errors"])
        attempted += len(verdicts)
        for call, error, verdict in zip(calls, job["errors"], verdicts):
            if verdict is not None:
                failed += 1
                check_failures += error is None
                print(f"FAILED {job['dir']} {call['command']} {call}: {verdict}",
                      file=sys.stderr)
        shutil.rmtree(out / job["dir"])

    walls = [job["wall_s"] for job in jobs]
    print(f"workload {args.workload}: {len(jobs)} jobs x {len(calls)} calls, "
          f"seed {args.seed}, {failed} of {attempted} operations failed")
    if args.trace:
        values = layer_metrics(out / "spans.json", jobs)
        metrics = {name: {"value": v, "unit": unit(name)} for name, v in values.items()}
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:12.6g} {m['unit']}  (median per job)")
    else:
        metrics = {
            "job_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
        print(f"  job_s       {metrics['job_s']['value']:.4f} s   "
              f"(median of {len(walls)} jobs)")
        print(f"  setup_s     {metrics['setup_s']['value']:.4f} s   "
              f"(median of {len(setup)} fresh processes)")
        print(f"  peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB")
    print(json.dumps({"correct": check_failures == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
