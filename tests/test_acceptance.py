"""Acceptance suite: one test per gate, each printing a PASS/FAIL line.

Seeds are fixed so every run is reproducible; stated runtime limits are
asserted alongside the numeric tolerances.
"""

import json
import statistics
import time

import numpy as np
import pytest
from scipy.integrate import quad

import codespectra as cs
from codespectra import LawSpec
from codespectra.cli import ExperimentConfig, cmd_moments, cmd_mp, cmd_spectrum
from codespectra.laws import mp_support
from codespectra.paths import MODE_ALL_MAPS
from codespectra.signal import MODE_DISTINCT, MODE_WITH_REPLACEMENT

SEED = 1001


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_gold_structure():
    t0 = time.time()
    g5 = cs.make_gold(5)
    rep5 = cs.code_report(g5)
    g7 = cs.make_gold(7)
    rep7 = cs.code_report(g7)
    ok = (
        (g5.n, g5.k) == (31, 10)
        and set(rep5.weight_set) == {12, 16, 20}
        and rep5.dual_distance_status == "=5"
        and (g7.n, g7.k) == (127, 14)
        and set(rep7.weight_set) == {56, 64, 72}
        and rep7.dual_distance_status in ("=5", ">=5")
    )
    elapsed = time.time() - t0
    report(1, ok and elapsed < 10,
           f"gold5 {rep5.weight_set} dd{rep5.dual_distance_status}, "
           f"gold7 {rep7.weight_set} dd{rep7.dual_distance_status}, {elapsed:.1f}s")


def test_criterion_2_catalan_identity():
    t0 = time.time()
    expected = {2: 1, 4: 2, 6: 5, 8: 14, 10: 42}
    counts = {ell: cs.count_double_tree_classes(ell) for ell in expected}
    ok = counts == expected
    elapsed = time.time() - t0
    report(2, ok and elapsed < 30, f"counts {counts}, {elapsed:.1f}s")


def test_criterion_3_lemma1_exact_case(even5, even7):
    t0 = time.time()
    failures = []
    for code in (even5, even7):
        for ell in (2, 4, 6):
            for path in cs.enumerate_closed_classes(ell, simple=False):
                if not cs.is_double_tree(path):
                    continue
                w = cs.count_W(code, path)
                if w != code.n ** (ell - path.v + 1):
                    failures.append((code.n, path.labels, w))
    elapsed = time.time() - t0
    report(3, not failures and elapsed < 60,
           f"all double-tree classes exact, failures={failures}, {elapsed:.1f}s")


def test_criterion_4_lemma3_zero_case(even5):
    t0 = time.time()
    checked = 0
    failures = []
    for ell in (2, 4):
        for pair in cs.enumerate_pair_classes(ell):
            if pair.v_meet > 1:
                continue
            wp = cs.count_W_pair(even5, pair)
            w1 = cs.count_W(even5, cs.ClosedPath(pair.labels1))
            w2 = cs.count_W(even5, cs.ClosedPath(pair.labels2))
            checked += 1
            if wp != w1 * w2:
                failures.append((pair.labels1, pair.labels2))
    elapsed = time.time() - t0
    report(4, not failures and elapsed < 60,
           f"{checked} pairs with v_meet<=1 all factor exactly, {elapsed:.1f}s")


def test_criterion_5_character_sum_identity(even5):
    t0 = time.time()
    checked = 0
    ok = True
    for ell in (2, 3, 4):
        for path in cs.enumerate_closed_classes(ell, simple=True):
            w = cs.count_W(even5, path)
            val = cs.expect_omega(even5, path, MODE_ALL_MAPS)
            checked += 1
            if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
                ok = False
            if abs(val.real - w) > 1e-6:
                ok = False
    elapsed = time.time() - t0
    report(5, ok and elapsed < 60,
           f"{checked} simple classes: all-maps average equals W, {elapsed:.1f}s")


def test_criterion_6_spectral_plumbing(even5, gold5, gold7):
    cases = []
    sig = cs.sample_codewords(even5, 8, MODE_DISTINCT, SEED)
    cases.append(("even5 raw", cs.gram(sig), False))
    cases.append(("even5 centered", cs.center_scale(cs.gram(sig), 5, 8), True))
    full = cs.sample_codewords(even5, 16, MODE_DISTINCT, SEED)
    cases.append(("even5 full code", cs.gram(full), False))
    for name, code, p in (("gold5", gold5, 8), ("gold7", gold7, 20)):
        s = cs.sample_codewords(code, p, MODE_DISTINCT, SEED)
        cases.append((name, cs.center_scale(cs.gram(s), code.n, p), True))
    rm = cs.make_rm1(5)
    mp_sig = cs.sample_codewords(rm, 16, MODE_WITH_REPLACEMENT, SEED)
    cases.append(("rm1 mp", cs.gram(mp_sig), False))

    ok = True
    for name, h, centered in cases:
        eigs = cs.eig_hermitian(h)
        p = h.shape[0]
        tr = float(np.trace(h).real)
        fro2 = float(np.linalg.norm(h) ** 2)
        scale_tr = max(1.0, abs(tr))
        if abs(eigs.sum() - tr) > 1e-9 * scale_tr:
            ok = False
        if abs((eigs**2).sum() - fro2) > 1e-9 * max(1.0, fro2):
            ok = False
        if centered and abs(eigs.sum()) > 1e-9 * p:
            ok = False
    report(6, ok, f"{len(cases)} decompositions satisfy trace and Frobenius identities")


def test_criterion_7_semicircle_trend(tmp_path):
    t0 = time.time()
    ladder = [(5, 8), (7, 20), (9, 35), (11, 50)]
    medians = []
    for m, p in ladder:
        cfg = ExperimentConfig(command="spectrum", code="gold", m=m, p=p,
                               seed=SEED, repeats=10, lmax=4,
                               out=str(tmp_path / f"rung_m{m}"))
        medians.append(cmd_spectrum(cfg)["median_ks"])
    gate = 0.15
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    ok = decreasing and medians[-1] < gate
    (tmp_path / "ladder.json").write_text(json.dumps(
        {"ladder": ladder, "median_ks": medians, "gate": gate, "seed": SEED}
    ))
    elapsed = time.time() - t0
    report(7, ok and elapsed < 300,
           f"median KS {[round(v, 4) for v in medians]} strictly decreasing, "
           f"final < {gate}, {elapsed:.1f}s")


def test_criterion_8_moment_convergence(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(command="moments", code="gold", m=11, p=50,
                           seed=SEED, repeats=32, lmax=4,
                           out=str(tmp_path / "mom"))
    summary = cmd_moments(cfg)
    per_l = {rec["l"]: rec for rec in summary["per_l"]}
    ok = all(per_l[ell]["within_bound"] for ell in (2, 3, 4))
    elapsed = time.time() - t0
    detail = ", ".join(
        f"A{ell}: |{per_l[ell]['mean']:.3f} - {per_l[ell]['sc_moment']:g}| "
        f"<= {per_l[ell]['bound']:.3f}" for ell in (2, 3, 4)
    )
    report(8, ok and elapsed < 300, f"{detail}, {elapsed:.1f}s")


def test_criterion_9_variance_decay(tmp_path):
    t0 = time.time()
    variances = {}
    for m in (5, 9):
        cfg = ExperimentConfig(command="moments", code="gold", m=m, p=8,
                               seed=SEED, repeats=32, lmax=2,
                               out=str(tmp_path / f"var_m{m}"))
        summary = cmd_moments(cfg)
        variances[m] = {rec["l"]: rec["variance"] for rec in summary["per_l"]}[2]
    ok = variances[5] > variances[9]
    elapsed = time.time() - t0
    report(9, ok and elapsed < 300,
           f"var A2: m=5 {variances[5]:.4f} > m=9 {variances[9]:.4f}, {elapsed:.1f}s")


def test_criterion_10_mp_contrast(tmp_path):
    t0 = time.time()
    medians = {}
    for code_name, extra in (("gold", {"m": 5}), ("rm1", {"m": 5})):
        cfg = ExperimentConfig(command="mp", code=code_name, y=0.5,
                               seed=SEED, repeats=10, lmax=4,
                               out=str(tmp_path / f"mp_{code_name}"), **extra)
        medians[code_name] = cmd_mp(cfg)["median_ks"]
    ok = medians["rm1"] > medians["gold"]
    elapsed = time.time() - t0
    report(10, ok and elapsed < 60,
           f"median KS to MP(0.5): rm1 {medians['rm1']:.4f} > "
           f"gold {medians['gold']:.4f}, {elapsed:.1f}s")


def test_criterion_11_laws_module():
    sc_total, _ = quad(cs.sc_pdf, -2, 2, limit=200)
    ok = abs(sc_total - 1.0) <= 1e-8
    for y in (0.1, 0.5, 0.9):
        a, b = mp_support(y)
        mp_total, _ = quad(lambda x: cs.mp_pdf(x, y), a, b, points=[a, b], limit=200)
        ok = ok and abs(mp_total - 1.0) <= 1e-8
        for ell in range(1, 7):
            ref, _ = quad(lambda x: x**ell * cs.mp_pdf(x, y), a, b,
                          points=[a, b], limit=200)
            ok = ok and abs(cs.mp_moment(ell, y) - ref) <= 1e-6
    for ell in range(1, 7):
        ref, _ = quad(lambda x: x**ell * cs.sc_pdf(x), -2, 2, limit=200)
        ok = ok and abs(cs.sc_moment(ell) - ref) <= 1e-6
    ok = ok and cs.sc_cdf(0.0) == 0.5
    report(11, ok, "densities normalized, moments match quadrature, sc_cdf(0)=0.5")
