"""All-roots polynomial solving for the periodic-point equations.

The n-fold composite of the quadratic map is a ratio P_n/Q_n of polynomials
built by the recurrence P_{k+1} = P_k**2 + p Q_k**2, Q_{k+1} = Q_k**2 -
conj(p) P_k**2.  Periodic points of period dividing n are the roots of
G_n(z) = P_n(z) - z Q_n(z), a polynomial of degree 2**n + 1; each exactly
zero leading coefficient is a root at infinity, and a nearly zero one a
root of huge modulus.

Roots are found simultaneously with the Aberth-Ehrlich iteration and then
polished by the caller with Newton steps on the map itself.  The iteration
starts from the Newton polygon of the coefficients (Bini, "Numerical
computation of polynomial zeros by means of Aberth's method", Numer.
Algorithms 13, 1996), so each root starts near its own modulus even when the
moduli span hundreds of orders of magnitude; where a Horner sum overflows,
the reversed polynomial in 1/z is evaluated instead, as in MPSolve (Bini &
Fiorentino, Numer. Algorithms 23, 2000).  Coefficient arrays are ascending
(index = power).
"""

from __future__ import annotations

import numpy as np

from .sphere import RootFindingError

# aberth_roots stops once each correction is at most this times its root's modulus.
ABERTH_TOL = 1e-13


def map_polynomials(p: complex, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Numerator/denominator coefficient pair of the n-fold composite map.

    Returns ascending arrays (P, Q) of equal length 2**n + 1, jointly
    rescaled at every level so the coefficients stay O(1).  The first level
    starts scaled by a power of two near 1/max(1, |p|), which is exact and
    keeps its squares finite at any finite p.
    """
    if n < 1:
        raise ValueError("composition depth must be >= 1")
    pc = complex(p).conjugate()
    scale = 2.0 ** -np.frexp(max(1.0, abs(p)))[1]
    num = np.array([p, 0.0, 1.0], dtype=complex) * scale
    den = np.array([1.0, 0.0, -pc], dtype=complex) * scale
    for _ in range(n - 1):
        n2 = np.convolve(num, num)
        d2 = np.convolve(den, den)
        num, den = n2 + p * d2, d2 - pc * n2
        scale = max(np.abs(num).max(), np.abs(den).max())
        num /= scale
        den /= scale
    return num, den


def fixed_point_polynomial(p: complex, n: int) -> np.ndarray:
    """The 2**n + 2 coefficients of G_n = P_n - z Q_n, rescaled to unit max
    magnitude.  Each exactly zero leading coefficient is a root at infinity
    (:func:`aberth_roots` deflates it)."""
    num, den = map_polynomials(p, n)
    shifted = np.concatenate([np.zeros(1, dtype=complex), den])
    g = np.concatenate([num, np.zeros(1, dtype=complex)]) - shifted
    g /= np.abs(g).max()
    return g


def polyval(coeffs: np.ndarray, x):
    """Horner evaluation of an ascending coefficient array."""
    acc = np.zeros_like(np.asarray(x, dtype=complex))
    for c in coeffs[::-1]:
        acc = acc * x + c
    return acc


def _newton_polygon_start(c: np.ndarray) -> np.ndarray:
    """Bini's starting points for the Aberth iteration on ``c``.

    ``c`` is ascending with nonzero end coefficients.  Each edge i -> j of
    the upper convex hull of the points (k, log|c_k|) over the nonzero
    coefficients bounds j - i root moduli near (|c_i|/|c_j|)**(1/(j - i)),
    so that edge places j - i points on the circle of that radius, at evenly
    spread angles turned by 2*pi*i/deg plus a fixed offset.  The radii are
    formed in logarithms, so the ratio itself cannot overflow.
    """
    deg = len(c) - 1
    idx = np.flatnonzero(c)
    logs = np.log(np.abs(c[idx]))
    hull: list[tuple[int, float]] = []
    for k, a in zip(idx.tolist(), logs.tolist()):
        # drop the last vertex while it lies on or below the chord to (k, a)
        while len(hull) >= 2 and ((hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])
                                  <= (a - hull[-2][1]) * (hull[-1][0] - hull[-2][0])):
            hull.pop()
        hull.append((k, a))
    starts = []
    for (i, a), (j, b) in zip(hull, hull[1:]):
        m = j - i
        angles = 2.0 * np.pi * (np.arange(m) / m + i / deg) + 0.4
        starts.append(np.exp((a - b) / m + 1j * angles))
    return np.concatenate(starts)


def aberth_roots(coeffs, max_iter: int = 200) -> np.ndarray:
    """All complex roots of an ascending-coefficient polynomial.

    Simultaneous Aberth-Ehrlich iteration from Bini's Newton-polygon start
    (:func:`_newton_polygon_start`; Bini, Numer. Algorithms 13, 1996), which
    puts each root near its own modulus from the first sweep.  Exact zero
    leading and trailing coefficients are deflated first (each is a root at
    infinity, which the caller counts, or at 0).  Where the Horner value or
    derivative at x overflows, G/G' = x R(y) / (deg R(y) - y R'(y)) with
    y = 1/x and the reversed R(y) = y**deg G(1/y).  Raises
    :class:`RootFindingError` when the corrections have not all dropped
    below ``ABERTH_TOL`` times the modulus of their root within
    ``max_iter`` sweeps (repeated roots are the usual culprit), and as soon
    as an iterate overflows to a non-finite number.
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

    tol = ABERTH_TOL  # a local: every sweep reads it

    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below
        k = np.arange(1, deg + 1)
        dc, rdc = c[1:] * k, c[-2::-1] * k  # G' and the reversed R'
        x = _newton_polygon_start(c)
        for _ in range(max_iter):
            pv = polyval(c, x)
            dv = polyval(dc, x)
            done = np.abs(pv) == 0.0
            w = np.where(done, 0.0, pv / np.where(dv == 0, 1.0, dv))
            over = ~(np.isfinite(pv) & np.isfinite(dv))
            if over.any():
                y = 1.0 / x[over]
                rv = polyval(c[::-1], y)
                rd = deg * rv - y * polyval(rdc, y)
                w[over] = x[over] * rv / np.where(rd == 0, 1.0, rd)
            diff = x[:, None] - x[None, :]
            np.fill_diagonal(diff, 1.0)
            inv = 1.0 / diff
            np.fill_diagonal(inv, 0.0)  # subtracting its 1 from the sum would lose terms below u
            s = inv.sum(axis=1)
            denom = 1.0 - w * s
            delta = np.where(done | (denom == 0), 0.0, w / np.where(denom == 0, 1.0, denom))
            x = x - delta
            if not np.isfinite(x).all():
                raise RootFindingError(f"Aberth iteration on a degree-{deg} polynomial overflowed")
            if (np.abs(delta) <= tol * np.abs(x)).all():
                return np.concatenate([origin, x])
    raise RootFindingError(
        f"Aberth iteration on a degree-{deg} polynomial did not converge "
        f"within {max_iter} sweeps"
    )
