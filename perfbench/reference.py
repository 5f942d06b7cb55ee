"""Reference computations made apart from the package, and the check helpers.

Everything here is written from the definition of the map,

    z -> (z**2 + p) / (1 - conj(p) z**2),

in mpmath at ``DPS`` digits or in plain numpy, and never calls into
``qubit_chaos``.  Points are projective pairs (Z, W) with z = Z/W, so the
point at infinity is the exact pair (1, 0).  A reference value is only used
where it is *clear*: the exact orbit must stay away from the decision
threshold by a margin, and the spherical expansion along the path (the
factor by which a seed roundoff of one double ulp can grow) must stay far
below the capture radius.  Elsewhere the float64 program and the exact orbit
may legitimately disagree, and the sample is skipped.
"""

from __future__ import annotations

import colorsys
import math

import mpmath as mp
import numpy as np

DPS = 30
SEED_ROUNDOFF = 2.0 ** -52
SETTLE_TOL = mp.mpf(10) ** -24   # chordal match that counts as exactly periodic
MAX_PERIOD = 64


class CheckFailed(Exception):
    """An output disagrees with its reference or violates a required property."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


mp.mp.dps = DPS


def mpc(z) -> mp.mpc:
    return mp.mpc(complex(z).real, complex(z).imag)


def pair(z):
    """Projective pair of a complex number, or of infinity when z is None."""
    if z is None:
        return mp.mpc(1), mp.mpc(0)
    z = mpc(z)
    if abs(z) > 1:
        return mp.mpc(1), 1 / z
    return z, mp.mpc(1)


def step(p, pc, Z, W):
    Z2, W2 = Z * Z, W * W
    Zn, Wn = Z2 + p * W2, W2 - pc * Z2
    m = max(abs(Zn), abs(Wn))
    return Zn / m, Wn / m


def chordal(a, b) -> mp.mpf:
    (za, wa), (zb, wb) = a, b
    num = abs(za * wb - zb * wa)
    return num / mp.sqrt((abs(za) ** 2 + abs(wa) ** 2) * (abs(zb) ** 2 + abs(wb) ** 2))


def log_rate(p, Z, W) -> mp.mpf:
    """ln of the spherical derivative at (Z, W); -inf at a critical point."""
    pc = mp.conj(p)
    Z2, W2 = Z * Z, W * W
    Zn, Wn = Z2 + p * W2, W2 - pc * Z2
    r = (2 * (1 + abs(p) ** 2) * abs(Z) * abs(W) * (abs(Z) ** 2 + abs(W) ** 2)
         / (abs(Zn) ** 2 + abs(Wn) ** 2))
    return mp.log(r) if r > 0 else mp.mpf("-inf")


def as_complex(pt):
    """The point as a Python complex, or None for infinity."""
    Z, W = pt
    if abs(W) <= mp.mpf(10) ** -(DPS - 5) * abs(Z):
        return None
    return complex(Z / W)


# ---------------------------------------------------------------------------
# orbits

class Orbit:
    """Exact orbit of a start pair under parameter p, extended lazily.

    Once the orbit repeats with some period q to SETTLE_TOL, later points
    come from the cycle instead of further iteration.
    """

    def __init__(self, p, start):
        self.p = mpc(p)
        self.pc = mp.conj(self.p)
        self.pts = [start]
        self.cycle_at = None   # (first index of the repeating tail, period)

    def _settled(self):
        t = len(self.pts) - 1
        for q in range(1, MAX_PERIOD + 1):
            if t - 2 * q < 0:
                break
            if all(chordal(self.pts[t - k], self.pts[t - k - q]) < SETTLE_TOL
                   for k in range(q)):
                return t - q + 1, q
        return None

    def at(self, n: int):
        if self.cycle_at is not None and n >= len(self.pts):
            first, q = self.cycle_at
            return self.pts[first + (n - first) % q]
        while len(self.pts) <= n:
            Z, W = self.pts[-1]
            self.pts.append(step(self.p, self.pc, Z, W))
            if len(self.pts) % MAX_PERIOD == 0:
                self.cycle_at = self._settled()
                if self.cycle_at is not None:
                    return self.at(n)
        return self.pts[n]

    def settle(self, budget: int):
        """(first index, period) of the repeating tail, or None within budget."""
        for n in range(MAX_PERIOD, budget + 1, MAX_PERIOD):
            self.at(n)
            if self.cycle_at is not None:
                return self.cycle_at
        return None

    def log_expansion_peak(self, n: int) -> mp.mpf:
        """Peak over k <= n of ln(product of spherical rates over steps < k)."""
        acc, peak = mp.mpf(0), mp.mpf(0)
        for k in range(n):
            acc += log_rate(self.p, *self.at(k))
            peak = max(peak, acc)
        return peak


def attracting_points(p, budget: int = 20000) -> list:
    """Points of the attracting cycles, as pairs, found by the critical orbits.

    Every attracting cycle attracts a critical point (0 or infinity), so
    iterating both until they repeat finds them all; a cycle counts when the
    product of its spherical rates (|multiplier|) is below 1.
    """
    found = []
    for start in (pair(0), pair(None)):
        orb = Orbit(p, start)
        settled = orb.settle(budget)
        if settled is None:
            continue
        first, q = settled
        pts = orb.pts[first:first + q]
        if any(min(chordal(a, b) for b in c) < mp.mpf(10) ** -12 for c in found for a in pts):
            continue
        if mp.fsum(log_rate(orb.p, *pt) for pt in pts) < 0:
            found.append(pts)
    return [pt for pts in found for pt in pts]


def capture_step(p, z0, targets, eps: float, max_iter: int, margin: float = 1e-3):
    """(step, clear) for the first k with chordal distance < eps to a target.

    step is None when the orbit is not captured within max_iter.  clear says
    the exact orbit crosses the eps threshold with a relative margin and the
    path's roundoff expansion stays below margin*eps, so float64 arithmetic
    must reproduce the same step.
    """
    p = mpc(p)
    pc = mp.conj(p)
    Z, W = pair(z0)
    lo, hi = eps * (1 - margin), eps * (1 + margin)
    limit = math.log(margin * eps / SEED_ROUNDOFF)
    acc = peak = 0.0
    for k in range(max_iter + 1):
        d = min(chordal((Z, W), t) for t in targets)
        if d < eps:
            return k, bool(d < lo and peak < limit)
        if d < hi or peak >= limit:
            return k, False
        if k < max_iter:
            acc += float(log_rate(p, Z, W))
            peak = max(peak, acc)
            Z, W = step(p, pc, Z, W)
    return None, True


def capture_samples(rng, p, grid, max_iter: int, count: int, eps: float = 1e-6) -> list:
    """Seeded pixels (i, j, exact capture step) of ``grid`` whose step is clear.

    Draws up to 4*count pixels and keeps those :func:`capture_step` calls
    clear, against the attracting cycles found in mpmath; at least half of
    ``count`` must be found.
    """
    targets = attracting_points(p)
    out = []
    for _ in range(4 * count):
        i, j = (int(v) for v in rng.integers(0, grid.shape[0], 2))
        k, clear = capture_step(p, complex(grid[i, j]), targets, eps, max_iter)
        if clear:
            out.append((i, j, k))
        if len(out) == count:
            break
    require(len(out) >= count // 2, f"p={p}: too few pixels have a clear exact capture step")
    return out


def check_julia_symmetry(levels, real_p: bool) -> None:
    """f(-z) = f(z), so a julia raster is symmetric under z -> -z.

    ``levels`` is any per-pixel image of the capture step in which 0 marks
    capture at step 0; those pixels may differ from their mirror, every
    other pair must be equal.  For real p the raster is also symmetric
    under conjugation (top-bottom mirror).
    """
    flip = levels[::-1, ::-1]
    both = (levels != 0) & (flip != 0)
    require(np.array_equal(levels[both], flip[both]), "julia raster breaks z -> -z symmetry")
    if real_p:
        require(np.array_equal(levels, levels[::-1, :]), "julia raster at real p breaks mirror symmetry")


def check_lyapunov_p0(derivative: float, overlap: float) -> None:
    """Estimates from a point of |z| = 1 at p = 0, where the exact rate is ln 2.

    The overlap estimator measures a squared distance, so it reads 2 ln 2.
    """
    require(abs(derivative - math.log(2)) <= 1e-3, f"derivative estimate {derivative} is not ln 2")
    require(abs(overlap - 2 * math.log(2)) <= 0.05 * 2 * math.log(2),
            f"overlap estimate {overlap} is not 2 ln 2")


def settled_period(p, z0, transient: int, max_period: int, eps: float,
                   margin: float = 1e-3):
    """(period, clear) of the tail-lag rule the parameter raster documents.

    After ``transient`` steps the next 2*max_period+1 points are scanned for
    the smallest lag q whose last q pairs at lag q all match within eps.
    clear requires every tested pair to sit a factor ``margin`` away from
    eps on its side, and the path's roundoff expansion to stay small.
    """
    orb = Orbit(p, pair(z0))
    tail_len = 2 * max_period + 1
    tail = [orb.at(transient + k) for k in range(tail_len)]
    if orb.cycle_at is None:
        return None, False
    if orb.log_expansion_peak(min(orb.cycle_at[0] + 1, transient)) > math.log(margin * eps / SEED_ROUNDOFF):
        return None, False
    for q in range(1, max_period + 1):
        d = [chordal(tail[tail_len - 1 - k], tail[tail_len - 1 - k - q]) for k in range(q)]
        worst = max(d)
        if worst < eps * margin:
            return q, True
        if worst < eps / margin:
            return None, False
    return -1, True


def palette_rgb(q: int, max_period: int) -> tuple:
    """The colour the parameter raster paints period q in: hue q/(max_period+1)."""
    r, g, b = colorsys.hsv_to_rgb(q / (max_period + 1), 1.0, 1.0)
    return round(r * 255), round(g * 255), round(b * 255)


def palette_period(rgb, max_period: int) -> int:
    """Period whose hue the parameter raster paints, -1 for white."""
    rgb = tuple(int(v) for v in rgb)
    if rgb == (255, 255, 255):
        return -1
    for q in range(1, max_period + 1):
        if palette_rgb(q, max_period) == rgb:
            return q
    raise CheckFailed(f"colour {rgb} is no period colour")


# ---------------------------------------------------------------------------
# cycles and multipliers

def map_point(p, z):
    """Exact image of a complex point (None = infinity), as a pair."""
    p = mpc(p)
    return step(p, mp.conj(p), *pair(z))


def multiplier(p, pts) -> mp.mpc:
    """Chart-correct multiplier of a cycle given as complex points (None = inf).

    Each step's derivative is taken between the chart z (|z| <= 1) and the
    chart w = 1/z (|z| > 1, or infinity) of its input and output point; on a
    closed cycle the chart factors cancel.
    """
    p = mpc(p)
    pc = mp.conj(p)
    g = 1 + abs(p) ** 2
    lam = mp.mpc(1)
    q = len(pts)
    charts = [(mp.mpc(0), True) if z is None else
              ((1 / mpc(z), True) if abs(z) > 1 else (mpc(z), False)) for z in pts]
    for k in range(q):
        c, in_w = charts[k]
        out_w = charts[(k + 1) % q][1]
        c2 = c * c
        if not in_w and not out_w:
            lam *= 2 * c * g / (1 - pc * c2) ** 2
        elif not in_w and out_w:
            lam *= -2 * c * g / (c2 + p) ** 2
        elif in_w and not out_w:
            lam *= -2 * c * g / (c2 - pc) ** 2
        else:
            lam *= 2 * c * g / (1 + p * c2) ** 2
    return lam


def check_cycle(p, period: int, points, lam_reported: complex, tol: float = 1e-9) -> None:
    """The points close up under the exact map and the multiplier agrees."""
    require(len(points) == period, f"cycle of period {period} lists {len(points)} points")
    lam = multiplier(p, points)
    slack = tol * max(1.0, float(abs(lam)))
    for k, z in enumerate(points):
        img = map_point(p, z)
        nxt = pair(points[(k + 1) % period])
        d = chordal(img, nxt)
        require(d <= slack, f"p={p}: cycle point {k} maps {float(d):.2e} away from the next")
    err = abs(mp.mpc(lam_reported) - lam)
    require(err <= tol * abs(lam) + 1e-15,
            f"p={p}: multiplier {lam_reported} differs from {complex(lam)} by {float(err):.2e}")


# ---------------------------------------------------------------------------
# density matrices (numpy, double precision)

def pure_density(z) -> np.ndarray:
    v = np.array([1.0, 0.0]) if z is None else np.array([z, 1.0], dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def step_density_ref(rho, x: float, phi: float) -> np.ndarray:
    """Entrywise square, divide by the trace of the squares, rotate."""
    sq = rho * rho
    sq = sq / np.einsum("...ii->...", sq).real[..., None, None]
    c, s, e = math.cos(x), math.sin(x), complex(math.cos(phi), math.sin(phi))
    u = np.array([[c, s * e], [-s * e.conjugate(), c]])
    return u @ sq @ u.conj().T


def step_two_qubit_ref(rho, x1, phi1, x2, phi2) -> np.ndarray:
    sq = rho * rho
    sq = sq / np.einsum("...ii->...", sq).real[..., None, None]

    def rot(x, phi):
        c, s, e = math.cos(x), math.sin(x), complex(math.cos(phi), math.sin(phi))
        return np.array([[c, s * e], [-s * e.conjugate(), c]])

    u = np.kron(rot(x1, phi1), rot(x2, phi2))
    return u @ sq @ u.conj().T
