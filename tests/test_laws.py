import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import codespectra as cs
from codespectra import LawSpec, ParameterError
from codespectra.laws import mp_support

YS = (0.1, 0.5, 0.9)


def test_sc_pdf_values():
    assert cs.sc_pdf(0.0) == pytest.approx(1 / np.pi)
    assert cs.sc_pdf(2.0) == 0.0
    assert cs.sc_pdf(-2.0) == 0.0
    assert cs.sc_pdf(3.0) == 0.0


def test_sc_cdf_endpoints():
    assert cs.sc_cdf(0.0) == 0.5
    assert cs.sc_cdf(2.0) == 1.0
    assert cs.sc_cdf(-2.0) == 0.0
    assert cs.sc_cdf(5.0) == 1.0


@pytest.mark.parametrize("x", [-1.0, 0.5, 1.7])
def test_sc_cdf_matches_quadrature(x):
    ref, _ = quad(cs.sc_pdf, -2.0, x, limit=200)
    assert cs.sc_cdf(x) == pytest.approx(ref, abs=1e-8)


def test_sc_moments_catalan():
    assert [cs.sc_moment(ell) for ell in (2, 4, 6, 8, 10)] == [1, 2, 5, 14, 42]
    assert cs.sc_moment(3) == 0.0


@pytest.mark.parametrize("ell", range(1, 9))
def test_sc_moment_matches_quadrature(ell):
    ref, _ = quad(lambda x: x**ell * cs.sc_pdf(x), -2.0, 2.0, limit=200)
    assert cs.sc_moment(ell) == pytest.approx(ref, abs=1e-8)


def test_sc_density_integrates_to_one():
    total, _ = quad(cs.sc_pdf, -2.0, 2.0, limit=200)
    assert total == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("y", YS)
def test_mp_density_integrates_to_one(y):
    a, b = mp_support(y)
    total, _ = quad(lambda x: cs.mp_pdf(x, y), a, b, points=[a, b], limit=200)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_mp_moment_formula_values():
    assert cs.mp_moment(1, 0.3) == pytest.approx(1.0)
    assert cs.mp_moment(2, 0.5) == pytest.approx(1.5)  # 1 + y


@pytest.mark.parametrize("y", YS)
@pytest.mark.parametrize("ell", range(1, 7))
def test_mp_moment_matches_quadrature(ell, y):
    a, b = mp_support(y)
    ref, _ = quad(lambda x: x**ell * cs.mp_pdf(x, y), a, b,
                  points=[a, b], limit=200)
    assert cs.mp_moment(ell, y) == pytest.approx(ref, abs=1e-6)


@pytest.mark.parametrize("y", YS)
def test_mp_cdf_support_and_quadrature(y):
    a, b = mp_support(y)
    assert cs.mp_cdf(a, y) == 0.0
    assert cs.mp_cdf(b, y) == 1.0
    for x in np.linspace(a, b, 9)[1:-1]:
        ref, _ = quad(lambda t: cs.mp_pdf(t, y), a, float(x),
                      points=[a], limit=200)
        assert cs.mp_cdf(float(x), y) == pytest.approx(ref, abs=1e-8)


@pytest.mark.parametrize("y", [0.05, 0.25, 0.5, 0.99])
def test_mp_cdf_matches_mpmath_quadrature(y):
    a, b = mp_support(y)
    xs = [float(x) for x in np.linspace(a, b, 13)[1:-1]]
    # points where an adaptive-quadrature CDF was off by 2e-6 to 8e-6
    xs += {0.05: [1.308483], 0.25: [0.71845], 0.5: [0.7262]}.get(y, [])
    with mpmath.workdps(30):
        lo, hi = (1 - mpmath.sqrt(y)) ** 2, (1 + mpmath.sqrt(y)) ** 2

        def pdf(t):
            return mpmath.sqrt((hi - t) * (t - lo)) / (2 * mpmath.pi * t * y)

        for x in xs:
            ref = float(mpmath.quad(pdf, [lo, x]))
            assert abs(cs.mp_cdf(x, y) - ref) <= 1e-12, x


def test_cdfs_nondecreasing_on_dense_grid():
    xs = np.linspace(-2.2, 2.2, 10_000)
    sc = np.array([cs.sc_cdf(float(x)) for x in xs])
    assert (np.diff(sc) >= 0).all()
    for y in (0.3, 0.7):
        a, b = mp_support(y)
        grid = np.linspace(a - 0.1, b + 0.1, 10_000)
        mp = np.array([cs.mp_cdf(float(x), y) for x in grid])
        assert (np.diff(mp) >= -1e-12).all()


def test_mp_rejects_bad_aspect():
    for y in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ParameterError):
            cs.mp_pdf(1.0, y)
        with pytest.raises(ParameterError):
            cs.mp_moment(2, y)


def test_law_spec_validation():
    assert LawSpec("sc").support == (-2.0, 2.0)
    mp = LawSpec("mp", 0.5)
    a, b = mp.support
    assert a == pytest.approx((1 - np.sqrt(0.5)) ** 2)
    assert b == pytest.approx((1 + np.sqrt(0.5)) ** 2)
    with pytest.raises(ParameterError):
        LawSpec("mp")
    with pytest.raises(ParameterError):
        LawSpec("sc", 0.5)
    with pytest.raises(ParameterError):
        LawSpec("weird")
    assert LawSpec("mp", 0.5).moment(2) == pytest.approx(1.5)
    assert LawSpec("sc").moment(4) == 2
