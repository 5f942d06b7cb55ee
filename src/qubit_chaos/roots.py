"""All-roots polynomial solving for the periodic-point equations.

The n-fold composite of the quadratic map is a ratio P_n/Q_n of polynomials
built by the recurrence P_{k+1} = P_k**2 + p Q_k**2, Q_{k+1} = Q_k**2 -
conj(p) P_k**2.  Periodic points of period dividing n are the roots of
G_n(z) = P_n(z) - z Q_n(z), a polynomial of degree 2**n + 1; a vanishing
leading coefficient means the point at infinity is itself periodic.

Roots are found simultaneously with the Aberth-Ehrlich iteration and then
polished by the caller with Newton steps on the map itself.  Coefficient
arrays are ascending (index = power).
"""

from __future__ import annotations

import numpy as np


class RootFindingError(RuntimeError):
    """The simultaneous root iteration failed to converge."""


def map_polynomials(p: complex, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Numerator/denominator coefficient pair of the n-fold composite map.

    Returns ascending arrays (P, Q) of equal length 2**n + 1, jointly
    rescaled at every level so the coefficients stay O(1).
    """
    if n < 1:
        raise ValueError("composition depth must be >= 1")
    pc = complex(p).conjugate()
    num = np.array([p, 0.0, 1.0], dtype=complex)
    den = np.array([1.0, 0.0, -pc], dtype=complex)
    for _ in range(n - 1):
        n2 = np.convolve(num, num)
        d2 = np.convolve(den, den)
        num, den = n2 + p * d2, d2 - pc * n2
        scale = max(np.abs(num).max(), np.abs(den).max())
        num /= scale
        den /= scale
    return num, den


def fixed_point_polynomial(p: complex, n: int) -> tuple[np.ndarray, bool]:
    """Coefficients of G_n = P_n - z Q_n, plus whether infinity is a root.

    The returned array is trimmed of (relatively) vanishing leading
    coefficients and rescaled to unit max magnitude; each trimmed leading
    coefficient corresponds to the point at infinity solving the projective
    form of the fixed-point equation.
    """
    num, den = map_polynomials(p, n)
    shifted = np.concatenate([np.zeros(1, dtype=complex), den])
    g = np.concatenate([num, np.zeros(1, dtype=complex)]) - shifted
    g /= np.abs(g).max()
    top = len(g)
    while top > 1 and abs(g[top - 1]) <= 1e-12:
        top -= 1
    return g[:top], top < 2**n + 2


def polyval(coeffs: np.ndarray, x):
    """Horner evaluation of an ascending coefficient array."""
    acc = np.zeros_like(np.asarray(x, dtype=complex))
    for c in coeffs[::-1]:
        acc = acc * x + c
    return acc


def aberth_roots(coeffs, tol: float = 1e-13, max_iter: int = 200) -> np.ndarray:
    """All complex roots of an ascending-coefficient polynomial.

    Simultaneous Aberth-Ehrlich iteration from a perturbed circle at the
    Cauchy bound.  Exact zero trailing coefficients are deflated first (each
    contributes a root at 0).  Raises :class:`RootFindingError` when the
    corrections have not all dropped below ``tol`` (relative) within
    ``max_iter`` sweeps (repeated roots are the usual culprit), and as soon
    as a value, a derivative or an iterate overflows to a non-finite number.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or len(c) == 0:
        raise ValueError("expected a nonempty 1-d coefficient array")
    while len(c) > 1 and c[-1] == 0:
        c = c[:-1]
    if len(c) <= 1:
        return np.zeros(0, dtype=complex)

    zeros_at_origin = 0
    while c[0] == 0:
        zeros_at_origin += 1
        c = c[1:]
    deg = len(c) - 1
    origin = np.zeros(zeros_at_origin, dtype=complex)
    if deg == 0:
        return origin

    dc = c[1:] * np.arange(1, deg + 1)
    radius = 1.0 + (np.abs(c[:-1]) / abs(c[-1])).max()
    angles = 2.0 * np.pi * np.arange(deg) / deg + 0.4
    x = radius * np.exp(1j * angles)

    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below
        for _ in range(max_iter):
            pv = polyval(c, x)
            dv = polyval(dc, x)
            done = np.abs(pv) == 0.0
            w = np.where(done, 0.0, pv / np.where(dv == 0, 1.0, dv))
            diff = x[:, None] - x[None, :]
            np.fill_diagonal(diff, 1.0)
            s = (1.0 / diff).sum(axis=1) - 1.0  # undo the diagonal's 1/1
            denom = 1.0 - w * s
            delta = np.where(done | (denom == 0), 0.0, w / np.where(denom == 0, 1.0, denom))
            x = x - delta
            if not np.isfinite((pv, dv, x)).all():
                raise RootFindingError(f"Aberth iteration on a degree-{deg} polynomial overflowed")
            if (np.abs(delta) <= tol * (1.0 + np.abs(x))).all():
                return np.concatenate([origin, x])
    raise RootFindingError(
        f"Aberth iteration on a degree-{deg} polynomial did not converge "
        f"within {max_iter} sweeps"
    )
