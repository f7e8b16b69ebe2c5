"""The benchmark's traced mode patches program functions by name; a rename
or deletion would only show when a traced run fails.  This imports the
benchmark worker (without running it) and checks every name it patches."""

import importlib.util
from pathlib import Path

import codespectra as cs
import codespectra.signal
from codespectra import cli, laws, paths

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


def test_paths_audit_calls_traced_layers(monkeypatch):
    # the traced mode times count_W, count_W_pair and expect_omega by
    # patching the module attributes, so paths_audit must call them there
    calls = {}
    for name in ("count_W", "count_W_pair", "expect_omega"):
        def counted(*args, _name=name, _fn=getattr(paths, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(paths, name, counted)
    paths.paths_audit(cs.make_even_weight(4), 3)
    assert set(calls) == {"count_W", "count_W_pair", "expect_omega"}
