import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import codespectra
from codespectra import ContractViolationError, ConvergenceError, make_gold, \
    sample_codewords, spectra
from codespectra.cli import ExperimentConfig, cmd_code_info, cmd_moments, \
    cmd_mp, cmd_paths_audit, cmd_spectrum, main
from codespectra.signal import MODE_DISTINCT


def run_main(argv):
    return main(argv)


def test_spectrum_artifacts_and_summary(tmp_path):
    out = tmp_path / "run"
    cfg = ExperimentConfig(command="spectrum", code="even", n=5, p=8,
                           seed=77, repeats=3, bins=10, lmax=4, out=str(out))
    summary = cmd_spectrum(cfg)

    assert len(summary["ks_values"]) == 3
    assert all(np.isfinite(summary["ks_values"]))
    assert summary["median_ks"] == sorted(summary["ks_values"])[1]
    assert summary["config"]["seed"] == 77

    for r in range(3):
        eig_csv = out / f"eigs_r{r:02d}.csv"
        hist_csv = out / f"hist_r{r:02d}.csv"
        svg = out / f"esd_r{r:02d}.svg"
        assert eig_csv.exists() and hist_csv.exists() and svg.exists()
        lines = eig_csv.read_text().strip().split("\n")
        assert lines[0] == "lambda"
        assert len(lines) == 1 + 8
        values = [float(v) for v in lines[1:]]
        assert values == sorted(values)
        hist_lines = hist_csv.read_text().strip().split("\n")
        assert hist_lines[0] == "bin_left,bin_right,density"
        # density columns integrate to one
        rows = [tuple(map(float, ln.split(","))) for ln in hist_lines[1:]]
        total = sum((right - left) * dens for left, right, dens in rows)
        assert total == pytest.approx(1.0, abs=1e-9)
        ET.parse(svg)  # valid XML
        assert "polyline" in svg.read_text()

    checks = summary["artifacts"]
    assert len(checks) == 9
    for name, digest in checks.items():
        assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest()
    on_disk = json.loads((out / "summary.json").read_text())
    assert on_disk == summary


def test_spectrum_is_reproducible(tmp_path):
    svgs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = ExperimentConfig(command="spectrum", code="even", n=5, p=8,
                               seed=5, repeats=2, out=str(out))
        cmd_spectrum(cfg)
        svgs.append((out / "summary.json").read_text())
    assert svgs[0].replace(str(tmp_path / "a"), "X") == \
        svgs[1].replace(str(tmp_path / "b"), "X")


def test_spectrum_rejects_with_replacement(tmp_path):
    cfg = ExperimentConfig(command="spectrum", code="even", n=5, p=8,
                           mode="with_replacement", out=str(tmp_path / "x"))
    assert run_main(["spectrum", "--code", "even", "--n", "5", "--p", "8",
                     "--mode", "with_replacement",
                     "--out", str(tmp_path / "x")]) == 2


def test_spectrum_rejects_p_above_N(tmp_path):
    rc = run_main(["spectrum", "--code", "even", "--n", "5", "--p", "17",
                   "--out", str(tmp_path / "x")])
    assert rc == 2


def test_mp_summary_and_warning(tmp_path):
    out = tmp_path / "mp"
    cfg = ExperimentConfig(command="mp", code="even", n=5, y=0.5,
                           seed=3, repeats=2, out=str(out))
    summary = cmd_mp(cfg)
    assert summary["p"] == round(0.5 * 5)
    assert summary["law"] == {"kind": "mp", "y": 0.5}
    assert "warning" not in summary

    cfg2 = ExperimentConfig(command="mp", code="even", n=5, y=0.5, seed=3,
                            repeats=2, mode="distinct", out=str(tmp_path / "mp2"))
    with_warning = cmd_mp(cfg2)
    assert "warning" in with_warning


def test_mp_rejects_bad_y(tmp_path):
    rc = run_main(["mp", "--code", "even", "--n", "5", "--y", "1.5",
                   "--out", str(tmp_path / "x")])
    assert rc == 2


def test_moments_json(tmp_path):
    out = tmp_path / "mom"
    cfg = ExperimentConfig(command="moments", code="gold", m=5, p=8,
                           seed=42, repeats=4, lmax=4, out=str(out))
    summary = cmd_moments(cfg)
    assert summary["multiplier"] == 3.0
    per_l = {rec["l"]: rec for rec in summary["per_l"]}
    assert set(per_l) == {1, 2, 3, 4}
    assert per_l[2]["sc_moment"] == 1.0
    assert per_l[4]["sc_moment"] == 2.0
    c = summary["code_report"]["coherence_constant"]
    n, p, big_n = 31, 8, 1024
    assert per_l[2]["error_scale"] == pytest.approx(c**2 / p + n / big_n + p / n)
    assert per_l[3]["error_scale"] == pytest.approx(
        c**3 / np.sqrt(p) + np.sqrt(p / n))
    assert (out / "moments.json").exists()


def test_moments_validation(tmp_path):
    assert run_main(["moments", "--code", "gold", "--m", "5", "--p", "8",
                     "--repeats", "1", "--out", str(tmp_path / "x")]) == 2
    assert run_main(["moments", "--code", "gold", "--m", "5", "--p", "8",
                     "--lmax", "13", "--out", str(tmp_path / "x")]) == 2


def test_moments_never_eigensolves(tmp_path, monkeypatch):
    # A_l = tr(H^l)/p comes from matrix products: no eigenvalue, no KS
    def refuse(*args):
        raise AssertionError("moments must not eigensolve")

    monkeypatch.setattr(spectra, "eig_hermitian", refuse)
    monkeypatch.setattr(spectra, "ks_statistic", refuse)
    n, p, repeats, lmax = 31, 8, 3, 6
    summary = cmd_moments(ExperimentConfig(
        command="moments", code="gold", m=5, p=p, seed=9, repeats=repeats,
        lmax=lmax, out=str(tmp_path / "m")))
    samples = []
    for r in range(repeats):
        rows = sample_codewords(make_gold(5), p, MODE_DISTINCT, 9, stream_index=r).entries
        h = np.sqrt(n / p) * (rows @ rows.T / n - np.eye(p))
        samples.append([np.trace(np.linalg.matrix_power(h, ell)) / p
                        for ell in range(1, lmax + 1)])
    means = [rec["mean"] for rec in summary["per_l"]]
    assert means == pytest.approx(np.mean(samples, axis=0), rel=0, abs=1e-12)


@pytest.mark.parametrize("m, p", [(11, 50), (13, 200)])
def test_moments_reproducible_across_blas_threads(tmp_path, m, p):
    # the products behind tr(H^l) must not depend on how BLAS splits them
    src = Path(codespectra.__file__).resolve().parent.parent
    outputs = []
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "codespectra", "moments", "--code",
                        "gold", "--m", str(m), "--p", str(p), "--repeats", "2",
                        "--lmax", "12", "--out", "mom"],
                       cwd=cwd, env=env, check=True, capture_output=True, timeout=120)
        outputs.append((cwd / "mom" / "moments.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_code_info_gold5(tmp_path, capsys):
    rc = run_main(["code-info", "--code", "gold", "--m", "5",
                   "--out", str(tmp_path / "info")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    rep = payload["report"]
    assert rep["n"] == 31 and rep["k"] == 10 and rep["N"] == 1024
    assert rep["dual_distance_status"] == "=5"
    assert rep["coherence"] == 9.0
    assert rep["weight_set"] == [12, 16, 20]


def test_code_info_rm1(tmp_path):
    cfg = ExperimentConfig(command="code-info", code="rm1", m=3,
                           out=str(tmp_path / "i"))
    summary = cmd_code_info(cfg)
    assert summary["report"]["dual_distance_status"] == "=4"


def test_code_info_gold13(tmp_path, capsys):
    rc = run_main(["code-info", "--code", "gold", "--m", "13",
                   "--out", str(tmp_path / "info")])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rep["dual_distance_status"] == "=5"
    assert rep["weight_set"] == [4032, 4096, 4160]
    assert rep["coherence"] == 129.0


def test_code_info_even_k_over_63(tmp_path, capsys):
    rc = run_main(["code-info", "--code", "even", "--n", "70",
                   "--out", str(tmp_path / "info")])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rep["dual_distance_status"] == "=70"


def test_code_info_ratio_beyond_float_range(tmp_path, capsys):
    # even weight: N/n = 2^(n-1)/n leaves the float range from n = 1036 on
    for n in (1035, 1036):
        rc = run_main(["code-info", "--code", "even", "--n", str(n),
                       "--out", str(tmp_path / str(n))])
        assert rc == 0
        ratio = json.loads(capsys.readouterr().out)["report"]["ratio_N_over_n"]
        if n == 1035:
            assert isinstance(ratio, float) and np.isfinite(ratio)
        else:
            assert ratio is None


def test_paths_audit_audits_k_over_63(tmp_path, capsys):
    # 64 rows pack into one uint64 word per column, so the vertex tensors
    # take one XOR pass; the double trees still count n^(l-v+1).  N = 2^64
    # is over the expectation budget, so no class has an expectation and the
    # character-sum check, with nothing to compare, reads None
    rc = run_main(["paths-audit", "--code", "even", "--n", "65",
                   "--lmax", "2", "--out", str(tmp_path / "x")])
    assert rc == 0
    audit = json.loads(capsys.readouterr().out)["audit"]
    assert [(r["labels"], r["W"], r["double_tree_value"])
            for r in audit["classes"]] == [([1, 1, 1], 4225, 4225),
                                           ([1, 2, 1], 65, 65)]
    assert audit["pairs"] is not None
    oks = {name: value for name, value in audit["checks"].items()
           if name.endswith("_ok")}
    assert oks.pop("character_sum_ok") is None
    assert len(oks) == 5 and all(value is True for value in oks.values())


def test_code_info_from_file(tmp_path):
    src = tmp_path / "code.txt"
    src.write_text("2 4 3\n1 0 0 1\n0 1 0 1\n0 0 1 1\n")
    cfg = ExperimentConfig(command="code-info", code="file", file=str(src),
                           out=str(tmp_path / "i"))
    summary = cmd_code_info(cfg)
    assert summary["report"]["n"] == 4 and summary["report"]["k"] == 3


@pytest.mark.parametrize("make, arg, method, label", [
    # 2^14 codewords: MacWilliams gives the exact value (the pair-sum
    # search refused n = 8192 with exit 3)
    (codespectra.make_rm1, 13, "exhaustive", "=4"),
    # 2^21 codewords, over SPECTRUM_BUDGET: sampled, nothing certified
    (codespectra.make_even_weight, 22, "sampled", ">=1"),
])
def test_code_info_file_dual_distance(tmp_path, capsys, make, arg, method, label):
    code = make(arg)
    rows = [" ".join(map(str, row)) for row in code.generator.tolist()]
    src = tmp_path / "code.txt"
    src.write_text(f"2 {code.n} {code.k}\n" + "\n".join(rows) + "\n")
    rc = run_main(["code-info", "--code", "file", "--file", str(src),
                   "--out", str(tmp_path / "info")])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rep["method"] == method
    assert rep["dual_distance_status"] == label


def test_paths_audit_command(tmp_path):
    cfg = ExperimentConfig(command="paths-audit", code="even", n=5,
                           lmax=2, out=str(tmp_path / "audit"))
    summary = cmd_paths_audit(cfg)
    audit = summary["audit"]
    assert audit["checks"]["lemma1_exact_ok"]
    assert audit["checks"]["lemma3_zero_ok"]
    assert (tmp_path / "audit" / "paths_audit.json").exists()
    json.loads((tmp_path / "audit" / "paths_audit.json").read_text())


FOOTPRINT_SCRIPT = """
import sys
from codespectra.cli import ExperimentConfig, cmd_paths_audit, main

def loaded():
    return sorted(m for m in ("_hashlib", "statistics", "argparse") if m in sys.modules)

print(loaded())
cmd_paths_audit(ExperimentConfig(command="paths-audit", code="even", n=4,
                                 lmax=3, out="direct"))
print(loaded())
assert main(["paths-audit", "--code", "even", "--n", "4", "--lmax", "3",
             "--out", "audit"]) == 0
assert main(["code-info", "--code", "gold", "--m", "5", "--out", "info"]) == 0
print(loaded())
assert main(["spectrum", "--code", "even", "--n", "5", "--p", "4",
             "--repeats", "1", "--out", "spec"]) == 0
print(loaded())
"""


def test_import_footprint_per_command(tmp_path):
    # a fresh interpreter: pytest itself has hashlib loaded.  paths-audit and
    # code-info never load hashlib (libcrypto) or statistics; spectrum does,
    # for its artifact digests and median KS
    src = Path(codespectra.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT], cwd=tmp_path,
                          env=env, check=True, capture_output=True, text=True,
                          timeout=120)
    reports = [line for line in proc.stdout.splitlines() if line.startswith("[")]
    assert reports == [
        "[]",
        "[]",
        "['argparse']",
        "['_hashlib', 'argparse', 'statistics']",
    ]


@pytest.mark.parametrize("argv", [
    # n^l = 7^10 blows the brute-force budget
    ["paths-audit", "--code", "even", "--n", "7", "--lmax", "10"],
    # a 60000 x 60000 Gram (26.8 GiB) and a 10^9-bin histogram are refused
    # by the repeat byte budget before the first sample
    ["spectrum", "--code", "even", "--n", "30", "--p", "60000", "--repeats", "1"],
    ["spectrum", "--code", "even", "--n", "5", "--p", "8", "--bins", "1000000000"],
    ["moments", "--code", "even", "--n", "30", "--p", "60000", "--repeats", "2"],
    # generators of 360 TB and 80 GB are refused before they are allocated
    ["code-info", "--code", "rm1", "--m", "40"],
    ["code-info", "--code", "even", "--n", "100000"],
], ids=["paths-audit", "spectrum-p", "spectrum-bins", "moments-p", "rm1-m40",
        "even-n100000"])
def test_resource_error_exits_3(tmp_path, capsys, argv):
    assert run_main(argv + ["--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource error:") and err.count("\n") == 1


def test_unknown_code_selector_exit_code(tmp_path):
    rc = run_main(["code-info", "--code", "gold", "--out", str(tmp_path / "x")])
    assert rc == 2  # gold without --m


@pytest.mark.parametrize("argv", [
    ["spectrum", "--code", "even", "--n", "5", "--p", "8", "--repeats", "0"],
    ["spectrum", "--code", "even", "--n", "5", "--p", "8", "--bins", "0"],
    ["mp", "--code", "even", "--n", "5", "--y", "0.5", "--repeats", "0"],
    ["code-info", "--code", "file", "--file", "{tmp}/missing.txt"],
    ["code-info", "--code", "file", "--file", "{tmp}"],  # a directory
    ["code-info", "--code", "file", "--file", "{tmp}/header.txt"],
    ["code-info", "--code", "file", "--file", "{tmp}/shape.txt"],
    ["code-info", "--code", "file", "--file", "{tmp}/overflow.txt"],
    ["code-info", "--code", "file", "--file", "{tmp}/big_q.txt"],
    ["code-info", "--code", "file", "--file", "{tmp}/composite_q.txt"],
    # ternary [42, 41]: N = 3^41 codewords are too many for the sampled
    # weight report, refused before the dual-distance search starts
    ["code-info", "--code", "file", "--file", "{tmp}/tern42.txt"],
    # N = 2^69 codewords: more than a 64-bit draw can index
    ["spectrum", "--code", "even", "--n", "70", "--p", "8", "--repeats", "1"],
    ["code-info", "--code", "even", "--n", "5", "--out", "{tmp}/header.txt/x"],
    ["spectrum", "--code", "even", "--n", "5", "--p", "17"],  # p > N = 16
    ["spectrum", "--code", "even", "--n", "5", "--p", "0"],
    ["moments", "--code", "even", "--n", "5", "--p", "17", "--repeats", "2"],
    # round(y n) = 4 distinct codewords of a [5, 1] code's 2
    ["mp", "--code", "file", "--file", "{tmp}/rep5.txt", "--y", "0.8",
     "--mode", "distinct"],
    # seeds outside the 64-bit range of the generator
    ["spectrum", "--code", "gold", "--m", "5", "--p", "8", "--seed", "-1"],
    ["mp", "--code", "even", "--n", "5", "--y", "0.5", "--seed",
     "18446744073709551616"],
])
def test_bad_input_exits_2(tmp_path, capsys, argv):
    (tmp_path / "header.txt").write_text("2 four 3\n1 0 0 1\n0 1 0 1\n0 0 1 1\n")
    (tmp_path / "shape.txt").write_text("2 -1 -1\n5\n")
    (tmp_path / "overflow.txt").write_text("2 1 1 99999999999999999999\n")
    (tmp_path / "big_q.txt").write_text("2305843009213693951 1 1 1\n")  # 2^61 - 1
    (tmp_path / "composite_q.txt").write_text("15 1 1 1\n")
    tern = np.hstack([np.eye(41, dtype=int), np.ones((41, 1), dtype=int)])
    (tmp_path / "tern42.txt").write_text(
        "3 42 41\n" + "\n".join(" ".join(map(str, row)) for row in tern) + "\n")
    (tmp_path / "rep5.txt").write_text("2 5 1\n1 1 1 1 1\n")
    argv = [a.format(tmp=tmp_path) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "x")]
    assert run_main(argv) == 2
    assert capsys.readouterr().err.startswith("parameter error:")
    assert not (tmp_path / "x").exists()  # refused before any output


@pytest.mark.parametrize("error", [ContractViolationError, ConvergenceError])
def test_contract_failure_exits_4(tmp_path, capsys, monkeypatch, error):
    def failing_eig(h):
        raise error("injected failure")

    monkeypatch.setattr(spectra, "eig_hermitian", failing_eig)
    rc = run_main(["spectrum", "--code", "even", "--n", "5", "--p", "8",
                   "--repeats", "1", "--out", str(tmp_path / "x")])
    assert rc == 4
    err = capsys.readouterr().err
    assert err == "contract error: injected failure\n"


# The closed CLI contract: each subcommand accepts the code selector, --out
# and exactly the flags it reads.
SELECTOR_FLAGS = ("code", "m", "n", "file", "out")
READS = {
    "spectrum": ("p", "seed", "repeats", "bins", "lmax"),
    "mp": ("y", "mode", "seed", "repeats", "bins", "lmax"),
    "moments": ("p", "seed", "repeats", "lmax"),
    "code-info": (),
    "paths-audit": ("lmax",),
}


@pytest.mark.parametrize("command", sorted(READS))
def test_help_lists_only_read_flags(capsys, command):
    assert run_main([command, "--help"]) == 0
    listed = set(re.findall(r"--([a-z]+)", capsys.readouterr().out)) - {"help"}
    assert listed == set(SELECTOR_FLAGS + READS[command])


@pytest.mark.parametrize("argv", [
    ["code-info", "--code", "gold", "--m", "5", "--p", "3"],
    ["paths-audit", "--code", "gold", "--m", "5", "--seed", "3"],
    ["moments", "--code", "gold", "--m", "5", "--p", "8", "--bins", "4"],
    ["spectrum", "--code", "gold", "--m", "5", "--p", "8", "--mode", "distinct"],
    ["code-info", "--code", "gold", "--m", "5", "--n", "7"],
    ["spectrum", "--code", "gold", "--m", "5", "--p", "8", "--lmax", "13"],
], ids=["code-info-p", "paths-audit-seed", "moments-bins", "spectrum-mode",
        "gold-n", "spectrum-lmax-13"])
def test_unread_flag_exits_2_before_output(tmp_path, capsys, argv):
    out = tmp_path / "x"
    assert run_main(argv + ["--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


# (valid, invalid) code selectors and flag values: small, zero, negative
# and too-large integers.  --repeats stays small because each repeat is
# real work.
FUZZ_CODES = (
    [["--code", "gold", "--m", "5"], ["--code", "rm1", "--m", "3"],
     ["--code", "even", "--n", "4"]],
    [["--code", "gold", "--m", "4"], ["--code", "even", "--m", "5"],
     ["--code", "rm1"]],
)
FUZZ_VALUES = {
    "p": ([2, 5, 8], [-1, 0, 17, 10**6]),
    "y": ([0.25, 0.5], [-0.5, 0.0, 1.0, float("nan")]),
    "mode": (["distinct", "with_replacement"], []),
    "seed": ([0, 7], [-1, 2**64]),
    "repeats": ([2, 3], [-1, 0, 1]),
    "bins": ([1, 5], [-1, 0, 10**9]),
    "lmax": ([1, 3], [-1, 0, 13]),
}


@st.composite
def fuzz_argv(draw):
    def pick(choices):  # the invalid ones one time in five
        valid, invalid = choices
        return draw(st.sampled_from(invalid if invalid and draw(
            st.integers(0, 4)) == 0 else valid))

    command = draw(st.sampled_from(sorted(READS)))
    reads = READS[command]
    flags = [flag for flag in reads if draw(st.integers(0, 3))]  # 3 in 4 kept
    unread = sorted(set(FUZZ_VALUES) - set(reads))
    extra = draw(st.sampled_from(unread)) if draw(st.integers(0, 3)) == 0 else None
    argv = [command] + pick(FUZZ_CODES)
    for flag in flags + ([extra] if extra else []):
        argv += [f"--{flag}", str(pick(FUZZ_VALUES[flag]))]
    return argv, extra


@settings(max_examples=100, deadline=None)
@given(fuzz_argv())
def test_cli_fuzz_exit_codes(argv_extra):
    argv, extra = argv_extra
    with tempfile.TemporaryDirectory() as tmp:
        rc = run_main(argv + ["--out", str(Path(tmp) / "x")])
    assert rc in (0, 2, 3, 4)
    if extra:
        assert rc == 2
