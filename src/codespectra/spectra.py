"""Gram matrices, centering, Hermitian eigenvalues, ESD and KS statistics.

Eigenvalues come from a cyclic Jacobi sweep (certified accuracy at the
matrix sizes that occur here, p <= a few hundred); complex Hermitian input
is handled through the doubled real-symmetric embedding.  The solver first
copies the upper triangle into the lower one, so the matrix is exactly
symmetric; each rotation then computes its two rows once and writes them
into the columns as well.  Failure to converge raises, never degrades
silently.  Trace moments come from matrix products of H itself, not from
its eigenvalues, so they need no eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import ContractViolationError, ConvergenceError, ParameterError
from .laws import LawSpec
from .signal import SignalMatrix

JACOBI_SWEEP_LIMIT = 64
JACOBI_TOL = 1e-12
HERMITIAN_TOL = 1e-12
UNIT_DIAGONAL_TOL = 1e-12


def gram(sig: SignalMatrix) -> np.ndarray:
    """(1/n) Phi Phi*; unit diagonal for unit-modulus rows."""
    e = sig.entries
    g = e @ e.conj().T / sig.n
    if np.iscomplexobj(g):
        # row inner products with themselves are real by construction
        np.fill_diagonal(g, g.diagonal().real)
    return g


def center_scale(g: np.ndarray, n: int, p: int) -> np.ndarray:
    """sqrt(n/p) (G - I); requires the unit diagonal of a distinct-row Gram."""
    g = np.asarray(g)
    if g.shape != (p, p):
        raise ParameterError(f"expected a {p}x{p} matrix, got {g.shape}")
    if np.abs(g.diagonal() - 1.0).max() > UNIT_DIAGONAL_TOL:
        raise ContractViolationError("Gram diagonal deviates from 1")
    out = sqrt(n / p) * (g - np.eye(p, dtype=g.dtype))
    np.fill_diagonal(out, 0.0)
    return out


def _check_hermitian(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ContractViolationError(f"not a square matrix: {h.shape}")
    scale = max(1.0, float(np.linalg.norm(h)))
    if np.abs(h - h.conj().T).max() > HERMITIAN_TOL * scale:
        raise ContractViolationError("matrix is not Hermitian")
    return h


def _jacobi_real(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    size = a.shape[0]
    frob = float(np.linalg.norm(a))
    # exact symmetry by assignment (an addition could turn -0.0 into 0.0),
    # so that each rotated row is also the rotated column
    lower = np.tril_indices(size, -1)
    a[lower] = a.T[lower]
    threshold = JACOBI_TOL * frob
    for _ in range(JACOBI_SWEEP_LIMIT):
        # off-diagonal Frobenius mass, summed directly (the difference
        # frob^2 - diag^2 cancels catastrophically near convergence)
        od = a.copy()
        np.fill_diagonal(od, 0.0)
        off = float(np.sqrt((od * od).sum()))
        if off <= threshold:
            return np.sort(a.diagonal())
        for i in range(size - 1):
            for j in range(i + 1, size):
                apq = a[i, j]
                if apq == 0.0:
                    continue
                diff = a[j, j] - a[i, i]
                if abs(diff) + 100.0 * abs(apq) == abs(diff):
                    # negligible relative to the diagonal gap
                    a[i, j] = 0.0
                    a[j, i] = 0.0
                    continue
                tau = diff / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + sqrt(1.0 + tau * tau))
                c = 1.0 / sqrt(1.0 + t * t)
                s = t * c
                ri, rj = a[i], a[j]
                new_i = c * ri - s * rj
                new_j = s * ri + c * rj
                # rows and, by symmetry, columns; the 2x2 block then takes
                # the column rotation of the rotated rows
                a[i] = a[:, i] = new_i
                a[j] = a[:, j] = new_j
                a[i, i] = c * new_i[i] - s * new_i[j]
                a[j, j] = s * new_j[i] + c * new_j[j]
                a[i, j] = 0.0
                a[j, i] = 0.0
    raise ConvergenceError(
        f"Jacobi failed to reach off-diagonal mass {threshold:g} "
        f"within {JACOBI_SWEEP_LIMIT} sweeps"
    )


def eig_hermitian(h: np.ndarray) -> np.ndarray:
    """All real eigenvalues, ascending, via cyclic Jacobi rotations.

    The rotations read the upper triangle, copied into the lower one to make
    the input exactly symmetric (Hermitian input passes `_check_hermitian`
    only up to HERMITIAN_TOL); each rotates rows i and j once and mirrors
    them into columns i and j.  On exactly symmetric input, such as every
    binary Gram matrix, the mirrored rows are bit for bit the rotated
    columns.

    Every complex Hermitian H = A + iB, a zero B included, goes through the
    real-symmetric embedding [[A, -B], [B, A]], whose spectrum is that of H
    with every eigenvalue doubled; the pairs are deduplicated after sorting.
    A matrix of size 1, or an all-zero one, passes the first sweep's
    convergence test and returns its sorted diagonal.
    """
    h = _check_hermitian(h)
    if np.iscomplexobj(h):
        a, b = h.real, h.imag
        embedded = np.block([[a, -b], [b, a]])
        doubled = _jacobi_real(embedded)
        return doubled[::2]
    return _jacobi_real(h)


def ks_statistic(eigs: np.ndarray, law) -> float:
    """sup-norm distance between the ESD and a continuous law CDF.

    Exact at the empirical jump points of the ascending eigenvalues, with F
    from one call on the array: max_j max(|j/p - F_j|, |(j-1)/p - F_j|).
    """
    eigs = np.asarray(eigs, dtype=float)
    p = eigs.size
    if p == 0:
        raise ParameterError("need at least one eigenvalue")
    f = law.cdf(eigs)
    j = np.arange(1, p + 1)
    return float(np.maximum(np.abs(j / p - f), np.abs((j - 1) / p - f)).max())


def trace_moments(h: np.ndarray, ell_max: int) -> list[tuple[int, float]]:
    """A_ell = (1/p) tr(H^ell) of a Hermitian H for ell = 1..ell_max.

    The powers come from repeated products H^ell = H^(ell-1) H; the trace of
    a Hermitian power is real, so its rounding-level imaginary part is dropped.
    """
    if ell_max < 1:
        raise ParameterError(f"need ell_max >= 1, got {ell_max}")
    h = _check_hermitian(h)
    p = h.shape[0]
    moments, power = [], h
    for ell in range(1, ell_max + 1):
        if ell > 1:
            power = power @ h
        moments.append((ell, float(np.trace(power).real) / p))
    return moments


@dataclass(frozen=True)
class SpectralSummary:
    eigenvalues: np.ndarray
    ks_to_law: float
    moments: tuple[tuple[int, float], ...]


def summarize(
    sig: SignalMatrix, law: LawSpec, centered: bool, ell_max: int
) -> SpectralSummary:
    """One sampled matrix -> eigenvalues, KS distance, trace moments."""
    g = gram(sig)
    h = center_scale(g, sig.n, sig.p) if centered else g
    eigs = eig_hermitian(h)
    return SpectralSummary(
        eigenvalues=eigs,
        ks_to_law=ks_statistic(eigs, law),
        moments=tuple(trace_moments(h, ell_max)),
    )
