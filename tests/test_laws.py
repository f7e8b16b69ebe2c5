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
    assert (np.diff(cs.sc_cdf(xs)) >= 0).all()
    for y in (0.3, 0.7):
        a, b = mp_support(y)
        grid = np.linspace(a - 0.1, b + 0.1, 10_000)
        assert (np.diff(cs.mp_cdf(grid, y)) >= -1e-12).all()


def _mpmath_laws(y):
    """Density and CDF at 30 digits: the semicircle for y None, else the
    Marchenko-Pastur law on the float support mp_support(y)."""
    if y is None:
        def pdf(t):
            return mpmath.sqrt(4 - t * t) / (2 * mpmath.pi) if -2 < t < 2 else 0

        def cdf(t):
            t = min(max(t, mpmath.mpf(-2)), mpmath.mpf(2))
            return (mpmath.mpf(1) / 2 + t * mpmath.sqrt(4 - t * t) / (4 * mpmath.pi)
                    + mpmath.asin(t / 2) / mpmath.pi)
        return pdf, cdf
    lo, hi = (mpmath.mpf(e) for e in mp_support(y))

    def pdf(t):
        return (mpmath.sqrt((hi - t) * (t - lo)) / (2 * mpmath.pi * t * y)
                if lo < t < hi else 0)

    def cdf(t):
        return 0 if t <= lo else 1 if t >= hi else mpmath.quad(pdf, [lo, t])
    return pdf, cdf


@pytest.mark.parametrize("y", [None, 0.05, 0.5])
def test_laws_take_arrays_and_match_mpmath(y):
    law = LawSpec("sc") if y is None else LawSpec("mp", y)
    a, b = law.support
    xs = [-3.0, -1.0, 0.0, a - 0.1, a, a + 1e-9, (a + b) / 2, 0.5, 1.7,
          b - 1e-9, b, b + 0.5]
    if y == 0.05:
        xs.append(1.308483)  # the point where an adaptive-quadrature CDF was off
    grid = np.linspace(a - 0.5, b + 0.5, 1001)
    ref_pdf, ref_cdf = _mpmath_laws(y)
    for law_fn, ref in ((law.pdf, ref_pdf), (law.cdf, ref_cdf)):
        # bitwise the scalar values, in the shape of the input
        for points in (np.array(xs), grid.reshape(7, 143)):
            values = law_fn(points)
            assert values.shape == points.shape
            scalars = np.array([law_fn(float(x)) for x in points.ravel()])
            assert values.tobytes() == scalars.reshape(points.shape).tobytes()
        with mpmath.workdps(30):
            want = [float(ref(mpmath.mpf(x))) for x in xs]
        assert np.abs(law_fn(np.array(xs)) - want).max() <= 2e-15


@pytest.mark.parametrize("y", [0.05, 0.5, 0.99])
def test_mp_laws_at_nonpositive_x_raise_no_float_error(y):
    xs = np.array([-1.0, -0.0, 0.0])
    with np.errstate(all="raise"):
        assert (cs.mp_pdf(xs, y) == 0).all() and (cs.mp_cdf(xs, y) == 0).all()
        assert cs.mp_pdf(0.0, y) == 0.0 and cs.mp_cdf(0.0, y) == 0.0


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
