"""Runs one workload's jobs back to back in a fresh interpreter.

Usage: worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR

run.py starts this with PYTHONPATH pointing at the checkout's src/ and the
BLAS thread count fixed.  Each job draws its own seed from SEED, so no job
sees another's sample.  With TRACE=0, set-up probes (fresh interpreters that
import codespectra and build the workload's codes) run between jobs, spread
over the run so that their median sees the same machine as the jobs.  The
job list and the probe times go to OUT_DIR/jobs.json at the end; with
TRACE=1 no probes run, wrappers record a span around each call into a
module's public function, and the spans go to OUT_DIR/spans.json, once, at
the end.
"""

from __future__ import annotations

import json
import random
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from codespectra import cli, laws, paths, spectra
from workloads import MIN_JOBS, SETUP_SAMPLES, WORKLOADS

COMMANDS = {
    "spectrum": cli.cmd_spectrum,
    "mp": cli.cmd_mp,
    "moments": cli.cmd_moments,
    "paths-audit": cli.cmd_paths_audit,
}

# (module, attribute, span name): each attribute is patched where its
# caller looks it up, so the span covers exactly the calls the CLI makes.
TRACED = [
    (cli, "make_gold", "codes.make"),
    (cli, "make_rm1", "codes.make"),
    (cli, "make_even_weight", "codes.make"),
    (cli, "sample_codewords", "signal.sample_codewords"),
    (cli, "summarize", "spectra.summarize"),
    (cli, "render_histogram_svg", "svg.render_histogram_svg"),
    (cli, "paths_audit", "paths.paths_audit"),
    (spectra, "gram", "spectra.gram"),
    (spectra, "center_scale", "spectra.center_scale"),
    (spectra, "eig_hermitian", "spectra.eig_hermitian"),
    (spectra, "ks_statistic", "spectra.ks_statistic"),
    (spectra, "trace_moments", "spectra.trace_moments"),
    (paths, "enumerate_closed_classes", "paths.enumerate"),
    (paths, "enumerate_pair_classes", "paths.enumerate"),
    (paths, "count_double_tree_classes", "paths.enumerate"),
    (paths, "count_W", "paths.count_W"),
    (paths, "count_W_pair", "paths.count_W_pair"),
    (paths, "expect_omega", "paths.expect_omega"),
]


class Tracer:
    """In-memory spans [name, job, parent, start, end] and per-job counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: list[dict] = []
        self._stack: list[int] = []

    def start_job(self) -> None:
        self.counters.append({})

    def count(self, name: str) -> None:
        counters = self.counters[-1]
        counters[name] = counters.get(name, 0) + 1

    def wrap(self, name: str, fn, alloc_metric: str | None = None):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            record = [name, len(self.counters) - 1, parent, 0.0, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            if alloc_metric:
                tracemalloc.start()
            record[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                if alloc_metric:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    counters = self.counters[-1]
                    counters[alloc_metric] = max(counters.get(alloc_metric, 0.0), peak)
                self._stack.pop()
        return traced

    def install(self) -> None:
        for module, attr, name in TRACED:
            setattr(module, attr, self.wrap(name, getattr(module, attr)))
        cli.code_report = self.wrap("codes.code_report", cli.code_report,
                                    alloc_metric="codes.code_report.alloc_peak_mb")
        for command, fn in COMMANDS.items():
            COMMANDS[command] = self.wrap("cli.self", fn)
        law_cdf = laws.LawSpec.cdf

        def counted_cdf(law, x):
            self.count("laws.cdf.calls")
            return law_cdf(law, x)

        laws.LawSpec.cdf = counted_cdf


def setup_probe(workload: str) -> float:
    """Seconds from spawning a fresh interpreter to the workload's codes built."""
    builds = "; ".join(f"cs.{maker}({arg})" for maker, arg in WORKLOADS[workload]["codes"])
    probe = f"import time, codespectra as cs; {builds}; print(time.monotonic())"
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, "-c", probe], env=os.environ, check=True,
                          capture_output=True, text=True, timeout=60)
    return float(done.stdout.split()[-1]) - t0


def run_jobs(workload: str, seed: int, seconds: float, out: Path,
             tracer: Tracer | None) -> tuple[list[dict], list[float]]:
    calls = WORKLOADS[workload]["calls"]
    rng = random.Random(seed)
    jobs: list[dict] = []
    setup: list[float] = []
    probes = 0 if tracer else SETUP_SAMPLES
    started = time.perf_counter()
    last = 0.0
    while len(jobs) < MIN_JOBS or time.perf_counter() - started + last <= seconds:
        # Keep the probes taken in step with the share of the run gone by.
        while len(setup) < min(1.0, (time.perf_counter() - started) / seconds) * probes:
            setup.append(setup_probe(workload))
        job_seed = rng.getrandbits(32)
        job_dir = out / f"job{len(jobs):03d}"
        errors = []
        if tracer:
            tracer.start_job()
        t0 = time.perf_counter()
        for i, call in enumerate(calls):
            cfg = cli.ExperimentConfig(**call, seed=job_seed, out=str(job_dir / str(i)))
            try:
                COMMANDS[call["command"]](cfg)
                errors.append(None)
            except Exception as exc:  # counted as a failed operation; the run goes on
                errors.append(f"{type(exc).__name__}: {exc}")
        last = time.perf_counter() - t0
        jobs.append({"seed": job_seed, "dir": job_dir.name, "wall_s": last,
                     "errors": errors})
    while len(setup) < probes:
        setup.append(setup_probe(workload))
    return jobs, setup


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, out = argv
    out = Path(out)
    tracer = Tracer() if trace == "1" else None
    if tracer:
        tracer.install()
    jobs, setup = run_jobs(workload, int(seed), float(seconds), out, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    (out / "jobs.json").write_text(json.dumps(
        {"jobs": jobs, "setup_s": setup, "peak_rss_mb": peak_rss_mb}, indent=1))
    if tracer:
        (out / "spans.json").write_text(json.dumps(
            {"spans": tracer.spans, "counters": tracer.counters}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
