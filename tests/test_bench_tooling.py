"""The benchmark's traced mode patches program functions by name; a rename
or deletion would only show when a traced run fails.  This imports the
benchmark worker (without running it) and checks every name it patches."""

import importlib.util
from pathlib import Path

import codespectra as cs
import codespectra.signal
from codespectra import cli, laws, paths, spectra

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(monkeypatch, name):
    """Import bench/<name>.py (without running it) with bench/ on sys.path."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist(monkeypatch):
    worker = _bench_module(monkeypatch, "worker")
    for module, attr, _ in worker.TRACED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    for name in ("code_report", "cmd_spectrum", "cmd_mp", "cmd_moments",
                 "cmd_paths_audit"):
        assert callable(getattr(cli, name, None)), f"cli.{name}"
    assert callable(laws.LawSpec.cdf)
    assert callable(codespectra.signal.sample_codewords)


def test_paths_audit_calls_traced_layers(monkeypatch):
    # the traced mode times count_W, count_W_pair and expect_omega by
    # patching the module attributes, so paths_audit must call them there;
    # the call counts are the walk_audit workload's per-layer .calls, and
    # the elimination must run inside the count spans
    calls = {}
    depth = [0]
    for name in ("count_W", "count_W_pair", "expect_omega"):
        def counted(*args, _name=name, _fn=getattr(paths, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            depth[0] += 1
            try:
                return _fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(paths, name, counted)
    eliminate = paths._eliminate

    def inside_a_count(*args):
        assert depth[0] == 1
        calls["_eliminate"] = calls.get("_eliminate", 0) + 1
        return eliminate(*args)

    monkeypatch.setattr(paths, "_eliminate", inside_a_count)
    paths.paths_audit(cs.make_even_weight(4), 4)
    assert calls == {"count_W": 15, "count_W_pair": 65, "expect_omega": 30,
                     "_eliminate": 15 + 65}


def _check_one_job(monkeypatch, tmp_path, workload):
    """Run one job of `workload` at seed 7 as its worker runs it, and check
    it as the benchmark checks every job it timed, apart from the program."""
    worker = _bench_module(monkeypatch, "worker")
    checks = _bench_module(monkeypatch, "checks")
    calls = worker.WORKLOADS[workload]["calls"]
    for i, call in enumerate(calls):
        worker.COMMANDS[call["command"]](
            cli.ExperimentConfig(**call, seed=7, out=str(tmp_path / str(i))))
    none = [None] * len(calls)
    assert checks.Checker().check_job(calls, 7, tmp_path, none) == none


def test_walk_audit_job_passes_the_benchmark_checks(monkeypatch, tmp_path):
    _check_one_job(monkeypatch, tmp_path, "walk_audit")


def test_spectral_job_passes_the_benchmark_checks(monkeypatch, tmp_path):
    _check_one_job(monkeypatch, tmp_path, "spectral")


def _count_calls(monkeypatch, module, names, calls):
    for name in names:
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


def test_cli_calls_traced_layers(monkeypatch, tmp_path):
    # the traced mode patches these cli attributes, so the commands must
    # look them up there at call time
    calls = {}
    _count_calls(monkeypatch, cli, ("make_gold", "sample_codewords", "summarize",
                                    "render_histogram_svg", "code_report",
                                    "paths_audit"), calls)
    # the traced mode counts LawSpec.cdf calls: KS makes one per repeat
    _count_calls(monkeypatch, laws.LawSpec, ("cdf",), calls)
    common = {"code": "gold", "m": 5, "seed": 3}
    cli.cmd_spectrum(cli.ExperimentConfig(
        "spectrum", p=8, repeats=2, out=str(tmp_path / "s"), **common))
    assert calls == {"make_gold": 1, "sample_codewords": 2, "summarize": 2,
                     "render_histogram_svg": 2, "cdf": 2}
    # moments calls the spectra kernels directly, where the traced mode
    # patches them, and never eigensolves
    kernels = {}
    _count_calls(monkeypatch, spectra, ("gram", "center_scale", "trace_moments",
                                        "eig_hermitian"), kernels)
    cli.cmd_moments(cli.ExperimentConfig(
        "moments", p=8, repeats=2, lmax=2, out=str(tmp_path / "m"), **common))
    assert kernels == {"gram": 2, "center_scale": 2, "trace_moments": 2}
    cli.cmd_paths_audit(cli.ExperimentConfig(
        "paths-audit", code="gold", m=5, lmax=2, out=str(tmp_path / "p")))
    assert calls == {"make_gold": 3, "sample_codewords": 4, "summarize": 2,
                     "render_histogram_svg": 2, "cdf": 2, "code_report": 1,
                     "paths_audit": 1}
