import hashlib

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import eigh

import codespectra as cs
import codespectra.spectra as spectra_mod
from codespectra import ContractViolationError, ConvergenceError, LawSpec
from codespectra.signal import MODE_DISTINCT, MODE_WITH_REPLACEMENT


def test_gram_orthogonal_rows_identity():
    hadamard = np.array([
        [1.0, 1.0, 1.0, 1.0],
        [1.0, -1.0, 1.0, -1.0],
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
    ])
    sig = cs.SignalMatrix(hadamard)
    assert (cs.gram(sig) == np.eye(4)).all()


def test_gram_duplicate_rows(even5):
    sig = cs.sample_codewords(even5, 1, MODE_DISTINCT, seed=3)
    row = np.asarray(sig.entries)
    dup = cs.SignalMatrix(np.vstack([row, row]))
    assert (cs.gram(dup) == np.ones((2, 2))).all()


def test_gram_binary_offdiagonal_identity(even5):
    sig = cs.sample_codewords(even5, 16, MODE_DISTINCT, seed=3)
    g = cs.gram(sig)
    rows = np.asarray(sig.entries)
    words = ((1.0 - rows) / 2).astype(int)
    for i in range(16):
        assert g[i, i] == 1.0
        for j in range(16):
            wt = int(((words[i] + words[j]) % 2).sum())
            assert g[i, j] * even5.n == pytest.approx(even5.n - 2 * wt)


def test_center_scale_zero_on_identity():
    out = cs.center_scale(np.eye(3), n=10, p=3)
    assert (out == 0).all()


def test_center_scale_two_by_two():
    g = np.array([[1.0, 0.4], [0.4, 1.0]])
    out = cs.center_scale(g, n=8, p=2)
    eigs = cs.eig_hermitian(out)
    expect = np.sqrt(8 / 2) * 0.4
    assert eigs == pytest.approx([-expect, expect])
    assert np.trace(out) == 0.0


def test_center_scale_rejects_bad_diagonal():
    g = np.array([[1.1, 0.0], [0.0, 1.0]])
    with pytest.raises(ContractViolationError):
        cs.center_scale(g, n=4, p=2)


def test_eig_identity_and_swap():
    assert cs.eig_hermitian(np.eye(3)).tolist() == [1.0, 1.0, 1.0]
    assert cs.eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]])) == \
        pytest.approx([-1.0, 1.0], abs=1e-12)


def test_eig_trace_and_frobenius_invariants():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((8, 8))
    h = (x + x.T) / 2
    eigs = cs.eig_hermitian(h)
    assert eigs.sum() == pytest.approx(np.trace(h), rel=1e-9)
    assert (eigs**2).sum() == pytest.approx(np.linalg.norm(h) ** 2, rel=1e-9)


def _assert_eig_oracles(h):
    """eig_hermitian against numpy, against LAPACK's MRRR driver through
    scipy, and, for small matrices, against mpmath at 30 digits: oracles
    that stay independent once the solver itself calls LAPACK."""
    eigs = cs.eig_hermitian(h)
    assert eigs == pytest.approx(np.linalg.eigvalsh(h), abs=1e-10)
    assert eigs == pytest.approx(eigh(h, eigvals_only=True, driver="evr"), abs=1e-10)
    if len(h) <= 6:
        with mpmath.workdps(30):
            exact = (mpmath.eigsy if np.isrealobj(h) else mpmath.eighe)(
                mpmath.matrix(h.tolist()), eigvals_only=True)
            exact = sorted(float(mpmath.re(x)) for x in exact)
        assert np.abs(eigs - exact).max() <= 1e-12


@pytest.mark.parametrize("size", [2, 5, 17, 50])
def test_eig_matches_numpy_oracle(size):
    rng = np.random.default_rng(size)
    x = rng.standard_normal((size, size))
    _assert_eig_oracles((x + x.T) / 2)


def test_eig_complex_hermitian_embedding():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    _assert_eig_oracles((x + x.conj().T) / 2)


def test_eig_almost_hermitian_complex_input():
    # an asymmetry of 1e-15 passes the Hermitian check; the solver then works
    # on the upper triangle and must still give the Hermitian part's spectrum
    rng = np.random.default_rng(17)
    x = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    h = (x + x.conj().T) / 2
    h = h + 1e-15 * (rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    assert np.abs(h - h.conj().T).max() > 0
    expect = eigh((h + h.conj().T) / 2, eigvals_only=True)
    assert np.abs(cs.eig_hermitian(h) - expect).max() <= 1e-10


# sha256 of eig_hermitian(h).tobytes() at seed 5 for the semicircle ladder's
# four Gold rungs (centered Gram) and the MP contrast's three Grams, recorded
# with rows and columns rotated apart: mirroring the rotated rows keeps every bit.
EIG_SHA256 = {
    "gold5-p8": "21a93a3693f4b441318703f97531c52ebcacf575a86676426a1b48c595d18baf",
    "gold7-p20": "34b0b7c2695c93f3772dc96c522378bc67940ca2b4fe8c27e960b9eb31193d76",
    "gold9-p35": "1a706d12586af93c7ec920841b6ad96bb613dbd000076f116fe1c446d1d811b8",
    "gold11-p50": "d43f2c46e1d4cb57786044e0be0911a784ae6adb530c4b1cba4805aa735c253c",
    "mp-gold5-y0.5": "830daa3433855f29317e330d71960960067e7dd5d86e39a5209e797a81db603c",
    "mp-rm1_5-y0.5": "718f8c474fffb3ed7dac3246fc207f8fff18210f3ad9cffe103042f986eec2bc",
    "mp-gold7-y0.25": "d43673fd3629cae83bd30573664f06769838f19d12a88dfbb5ba57ab72564cac",
}
LADDER_RUNGS = {"gold5-p8": (5, 8), "gold7-p20": (7, 20),
                "gold9-p35": (9, 35), "gold11-p50": (11, 50)}
MP_GRAMS = {"mp-gold5-y0.5": (cs.make_gold, 5, 0.5),
            "mp-rm1_5-y0.5": (cs.make_rm1, 5, 0.5),
            "mp-gold7-y0.25": (cs.make_gold, 7, 0.25)}


@pytest.mark.parametrize("name", sorted(EIG_SHA256))
def test_eig_bytes_pinned(name):
    if name in LADDER_RUNGS:
        m, p = LADDER_RUNGS[name]
        sig = cs.sample_codewords(cs.make_gold(m), p, MODE_DISTINCT, seed=5)
        h = cs.center_scale(cs.gram(sig), sig.n, sig.p)
    else:
        make, m, y = MP_GRAMS[name]
        code = make(m)
        sig = cs.sample_codewords(code, round(y * code.n), MODE_WITH_REPLACEMENT,
                                  seed=5)
        h = cs.gram(sig)
    digest = hashlib.sha256(cs.eig_hermitian(h).tobytes()).hexdigest()
    assert digest == EIG_SHA256[name]


def test_eig_rejects_non_hermitian():
    with pytest.raises(ContractViolationError):
        cs.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ContractViolationError):
        cs.eig_hermitian(np.zeros((2, 3)))


def test_eig_convergence_failure_is_loud(monkeypatch):
    monkeypatch.setattr(spectra_mod, "JACOBI_SWEEP_LIMIT", 0)
    with pytest.raises(ConvergenceError):
        cs.eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_ks_single_eigenvalue_against_semicircle():
    assert cs.ks_statistic(np.array([0.0]), LawSpec("sc")) == pytest.approx(0.5)


def test_ks_at_quantiles_is_small():
    # eigenvalues at the (j - 1/2)/p semicircle quantiles
    law = LawSpec("sc")
    p = 16
    targets = (np.arange(1, p + 1) - 0.5) / p
    xs = np.array([_invert_cdf(law, t) for t in targets])
    assert cs.ks_statistic(xs, law) <= 1 / (2 * p) + 1e-9


def _invert_cdf(law, target, lo=-2.0, hi=2.0):
    for _ in range(80):
        mid = (lo + hi) / 2
        if law.cdf(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ks_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    eigs = np.sort(rng.uniform(-2.5, 2.5, size=rng.integers(2, 40)))
    law = LawSpec("sc")
    ref = stats.ks_1samp(eigs, law.cdf).statistic
    assert cs.ks_statistic(eigs, law) == pytest.approx(ref, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=1, max_size=24))
def test_ks_invariant_under_multiplicity_doubling(values):
    eigs = np.sort(np.array(values))
    law = LawSpec("sc")
    doubled = np.sort(np.concatenate([eigs, eigs]))
    assert cs.ks_statistic(doubled, law) == pytest.approx(
        cs.ks_statistic(eigs, law), abs=1e-12
    )


def test_trace_moments_examples():
    # H = [[0, 1], [1, 0]] has eigenvalues -1 and 1
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    moments = dict(cs.trace_moments(h, 3))
    assert moments[1] == 0.0
    assert moments[2] == 1.0
    assert moments[3] == 0.0


def test_centered_first_moment_vanishes(even5):
    sig = cs.sample_codewords(even5, 8, MODE_DISTINCT, seed=21)
    gi = cs.center_scale(cs.gram(sig), sig.n, sig.p)
    assert abs(dict(cs.trace_moments(gi, 1))[1]) < 1e-9


def test_second_moment_entry_formula(even5):
    # A_{2,I} = (n/p^2) sum_{i != j} |G_ij|^2
    sig = cs.sample_codewords(even5, 8, MODE_DISTINCT, seed=22)
    g = cs.gram(sig)
    gi = cs.center_scale(g, sig.n, sig.p)
    a2 = dict(cs.trace_moments(gi, 2))[2]
    off = g - np.diag(np.diag(g))
    assert a2 == pytest.approx(sig.n / sig.p**2 * (off**2).sum(), rel=1e-9)


TERNARY = cs.LinearCode(q=3, generator=np.array([[1, 0, 0, 1, 2],
                                                  [0, 1, 0, 2, 2],
                                                  [0, 0, 1, 1, 1],
                                                  [1, 1, 1, 0, 2]]))


def test_moment_eigenvalue_duality(gold5):
    # tr(H^l)/p from matrix products against (1/p) sum lambda^l from an
    # independent eigensolver, on a real and on a complex Hermitian H
    for code in (gold5, TERNARY):
        sig = cs.sample_codewords(code, 12, MODE_DISTINCT, seed=23)
        gi = cs.center_scale(cs.gram(sig), sig.n, sig.p)
        assert np.iscomplexobj(gi) == (code.q > 2)
        eigs = eigh(gi, eigvals_only=True)
        moments = dict(cs.trace_moments(gi, 12))
        for ell in range(1, 13):
            from_eigs = (eigs**ell).sum() / sig.p
            assert moments[ell] == pytest.approx(from_eigs, rel=1e-8, abs=1e-12)


def test_full_code_spectrum_deterministic(even5):
    # p = N uses every codeword, so the spectrum ignores the seed
    a = cs.sample_codewords(even5, 16, MODE_DISTINCT, seed=1)
    b = cs.sample_codewords(even5, 16, MODE_DISTINCT, seed=999)
    ea = cs.eig_hermitian(cs.gram(a))
    eb = cs.eig_hermitian(cs.gram(b))
    assert ea == pytest.approx(eb, abs=1e-9)
    assert np.trace(cs.gram(a)) == 16.0


def test_full_code_gram_row_sums_exact(even5):
    sig = cs.sample_codewords(even5, 16, MODE_DISTINCT, seed=4)
    scaled = cs.gram(sig) * even5.n  # integer-valued inner products
    assert (scaled.sum(axis=1) == 0).all()


def test_summarize_outputs(gold5):
    sig = cs.sample_codewords(gold5, 8, MODE_DISTINCT, seed=6)
    summary = cs.summarize(sig, LawSpec("sc"), centered=True, ell_max=4)
    assert len(summary.eigenvalues) == 8
    assert summary.ks_to_law > 0
    assert [ell for ell, _ in summary.moments] == [1, 2, 3, 4]
