"""The benchmark's traced mode patches program functions by name; a rename
or deletion would only show when a traced run fails.  This imports the
benchmark worker (without running it) and checks every name it patches."""

import importlib.util
from pathlib import Path

import codespectra.signal
from codespectra import cli, laws

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_names_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_worker", BENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)

    for module, attr, _ in worker.TRACED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    for name in ("code_report", "cmd_spectrum", "cmd_mp", "cmd_moments",
                 "cmd_paths_audit"):
        assert callable(getattr(cli, name, None)), f"cli.{name}"
    assert callable(laws.LawSpec.cdf)
    assert callable(codespectra.signal.sample_codewords)
