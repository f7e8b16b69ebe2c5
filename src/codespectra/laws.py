"""Reference spectral laws: Wigner semicircle and Marchenko-Pastur.

Semicircle: density sqrt(4 - x^2)/(2 pi) on [-2, 2], closed-form CDF, and
even moments equal to Catalan numbers.  Marchenko-Pastur with aspect ratio
y in (0, 1): density sqrt((b - x)(x - a))/(2 pi x y) on [a, b] with
a = (1 - sqrt(y))^2 and b = (1 + sqrt(y))^2, and the elementary closed-form
CDF of Bai & Silverstein (absolute error about 1e-15 against mpmath
quadrature).  Each density and CDF is one numpy expression that takes a
float or an array and returns values of its shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, pi, sqrt

import numpy as np

from .errors import ParameterError


def sc_pdf(x):
    x = np.clip(x, -2.0, 2.0)
    return np.sqrt(4.0 - x * x) / (2.0 * pi)


def sc_cdf(x):
    x = np.clip(x, -2.0, 2.0)
    return 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * pi) + np.arcsin(x / 2.0) / pi


def sc_moment(ell: int) -> float:
    """Integral of x^ell against the semicircle: 0 odd, Catalan(ell/2) even."""
    if ell < 1:
        raise ParameterError(f"moment order must be >= 1, got {ell}")
    if ell % 2:
        return 0.0
    return float(2 * comb(ell, ell // 2) // (ell + 2))


def _check_aspect(y: float) -> None:
    if not 0.0 < y < 1.0:
        raise ParameterError(f"aspect ratio must lie in (0, 1), got {y}")


def mp_support(y: float) -> tuple[float, float]:
    _check_aspect(y)
    r = sqrt(y)
    return (1.0 - r) ** 2, (1.0 + r) ** 2


def mp_pdf(x, y: float):
    a, b = mp_support(y)
    x = np.clip(x, a, b)  # a > 0, so the division stays finite
    return np.sqrt((b - x) * (x - a)) / (2.0 * pi * x * y)


def mp_moment(ell: int, y: float) -> float:
    """sum_{j=0}^{ell-1} y^j/(j+1) C(ell,j) C(ell-1,j)."""
    _check_aspect(y)
    if ell < 1:
        raise ParameterError(f"moment order must be >= 1, got {ell}")
    return sum(
        y**j / (j + 1) * comb(ell, j) * comb(ell - 1, j) for j in range(ell)
    )


def mp_cdf(x, y: float):
    """Closed-form Marchenko-Pastur CDF (Bai & Silverstein).

    With r = sqrt((b - x)/(x - a)) inside the support,
    F(x) = [pi y + sqrt((b - x)(x - a)) - (1 + y) atan((r^2 - 1)/(2r))
            + (1 - y) atan((a r^2 - b)/(2 (1 - y) r))] / (2 pi y).
    """
    a, b = mp_support(y)
    x = np.asarray(x, dtype=float)
    out = np.where(x <= a, 0.0, 1.0)
    inside = (x > a) & (x < b)
    xi = x[inside]
    r = np.sqrt((b - xi) / (xi - a))
    out[inside] = (
        pi * y + np.sqrt((b - xi) * (xi - a))
        - (1.0 + y) * np.arctan((r * r - 1.0) / (2.0 * r))
        + (1.0 - y) * np.arctan((a * r * r - b) / (2.0 * (1.0 - y) * r))
    ) / (2.0 * pi * y)
    return out[()]


@dataclass(frozen=True)
class LawSpec:
    """Reference law selector: semicircle ("sc") or Marchenko-Pastur ("mp")."""

    kind: str
    y: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("sc", "mp"):
            raise ParameterError(f"unknown law kind: {self.kind!r}")
        if self.kind == "mp":
            if self.y is None:
                raise ParameterError("Marchenko-Pastur law needs an aspect ratio")
            _check_aspect(self.y)
        elif self.y is not None:
            raise ParameterError("the semicircle law carries no parameter")

    @property
    def support(self) -> tuple[float, float]:
        if self.kind == "sc":
            return (-2.0, 2.0)
        return mp_support(self.y)

    def pdf(self, x):
        if self.kind == "sc":
            return sc_pdf(x)
        return mp_pdf(x, self.y)

    def cdf(self, x):
        if self.kind == "sc":
            return sc_cdf(x)
        return mp_cdf(x, self.y)

    def moment(self, ell: int) -> float:
        if self.kind == "sc":
            return sc_moment(ell)
        return mp_moment(ell, self.y)
