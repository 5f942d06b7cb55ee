"""The projective-pair kernel of every vector pipeline and the basin classifier.

A point is a pair (Z, W) with z = Z/W, scaled to unit max magnitude each
step: the step is polynomial (no division, no overflow), infinity is the
exact pair (1, 0), and the arithmetic commutes bit for bit with complex
conjugation, which makes the mirror-symmetry tests exact.
"""

from __future__ import annotations

import numpy as np

from .sphere import SpherePoint


def _pair_scratch(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Scratch buffers for :func:`_pair_step` on n stacked pairs."""
    return np.empty((2, n), dtype=complex), np.empty((3, n))


def _pair_step(P, S, scratch, out=None):
    """One map step of the stacked pairs ``S = [Z, W]``, written in place.

    ``P`` is ``[p, -conj(p)]`` (shape (2, n), or (2, 1) for one parameter),
    ``scratch`` comes from :func:`_pair_scratch` and the result goes to
    ``out`` (default ``S``; any other ``out`` leaves ``S`` untouched).  The
    new pair is (Z**2 + p W**2, W**2 - conj(p) Z**2): one product gives
    Z**2 and W**2, one more p W**2 and -conj(p) Z**2, and adding the
    negated product equals subtracting it bit for bit.  The two quadratics
    have no common root, so the pair never vanishes and is renormalized to
    unit max magnitude.  Multiplying by 1/m is numpy's complex division by
    the real m with the division hoisted out: nonzero values equal Zn / m
    bit for bit, and at most the sign of an exact zero differs.  Rows 0 and
    1 of the real scratch keep |Zn| and |Wn| from before the renormalization.
    """
    S2, A = scratch
    if out is None:
        out = S
    np.multiply(S, S, out=S2)
    np.multiply(P, S2[::-1], out=out)
    out += S2
    np.abs(out, out=A[:2])
    m = np.maximum(A[0], A[1], out=A[2])
    np.divide(1.0, m, out=m)
    out *= m
    return out


def _pair_rate(p, pc, Z, W):
    """Spherical expansion rate of one step at the pair (Z, W), chart-free."""
    aZ, aW, Z2, W2 = np.abs(Z), np.abs(W), Z * Z, W * W
    return (2.0 * (1.0 + np.abs(p) ** 2)) * aZ * aW * (aZ ** 2 + aW ** 2) / (
        np.abs(Z2 + p * W2) ** 2 + np.abs(W2 - pc * Z2) ** 2)


def _pair_from_point(pt: SpherePoint) -> tuple[complex, complex]:
    Z, W = pt.homogeneous()
    m = max(abs(Z), abs(W))
    return Z / m, W / m


def _pair_params(p: np.ndarray) -> np.ndarray:
    """The ``P = [p, -conj(p)]`` argument of :func:`_pair_step`."""
    return np.stack((p, -np.conj(p)))


def _pair_start(z0: SpherePoint, n: int) -> np.ndarray:
    """The stacked pair of z0, repeated n times."""
    S = np.empty((2, n), dtype=complex)
    S[0], S[1] = _pair_from_point(z0)
    return S


def _start_pairs(z: np.ndarray) -> np.ndarray:
    """Stacked unit pairs of the flat complex points z; a non-finite entry
    stands for the point at infinity, (1, 0)."""
    m = np.maximum(np.abs(z), 1.0)
    S = np.empty((2, z.size), dtype=complex)
    with np.errstate(invalid="ignore"):  # inf / inf; such entries are reset
        np.divide(z, m, out=S[0])
    np.divide(1.0, m, out=S[1])
    S[:, ~np.isfinite(z)] = [[1.0], [0.0]]
    return S


def _target_pairs(cycles):
    """Capture targets ``(tz, tw, |tz|**2 + |tw|**2, cycle index)``, one per
    cycle point, in cycle order."""
    targets = []
    for i, cycle in enumerate(cycles):
        for pt in cycle.points:
            tz, tw = _pair_from_point(pt)
            targets.append((tz, tw, abs(tz) ** 2 + abs(tw) ** 2, i))
    return targets


def _check_capture_args(eps: float, max_iter: int) -> None:
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be finite and in (0, 1), got {eps!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be at least 0, got {max_iter}")


def _capture(p: complex, S: np.ndarray, targets, eps2: float, max_iter: int,
             limit: float | None = None):
    """Step the pairs S (consumed) until a target captures them.

    A pair is captured at the first step where it lies within eps of a target
    from :func:`_target_pairs` (the first in the list wins); returns int32
    ``step`` and ``label``, -1 where nothing captured the pair within
    max_iter steps, and the certificate's peaks.  With ``limit`` the log
    spherical expansion 2(1+|p|^2)|Z||W|(|Z|^2+|W|^2) / (|Zn|^2+|Wn|^2) is
    summed along each orbit from the moduli the target test and the step
    leave behind; a capture whose running peak exceeds ``limit`` is refused
    (-1), and each pair's peak at capture or at the end is returned.
    """
    n = S.shape[1]
    step, label = np.full((2, n), -1, dtype=np.int32)
    alive = np.arange(n)
    P = np.array([[p], [-p.conjugate()]])
    # flat so that the scratch for the live pixels is contiguous: strided
    # views cost more per call, and late steps are many calls on few pixels
    S2, A = np.empty(2 * n, dtype=complex), np.empty(3 * n)
    scratch = S2.reshape(2, n), A.reshape(3, n)
    tests = [(tz, tw, eps2 * tn, i) for tz, tw, tn, i in targets]
    certify = limit is not None
    peak = np.zeros(n) if certify else None
    L = np.zeros((3, n)) if certify else None  # log expansion, its peak, rate numerator
    gain = 2.0 * (1.0 + abs(p) ** 2)
    for k in range(max_iter + 1):
        if alive.size == 0:
            break
        moduli = scratch[1]
        if k:
            _pair_step(P, S, scratch)
            if certify:  # the rate of the step just taken, from |Zn|, |Wn|
                log_e, log_peak, num = L
                np.multiply(moduli[:2], moduli[:2], out=moduli[:2])
                rate = np.add(moduli[0], moduli[1], out=moduli[0])
                np.divide(num, rate, out=rate)
                with np.errstate(divide="ignore"):  # a critical hit: log 0 = -inf
                    log_e += np.log(rate, out=rate)
                np.maximum(log_peak, log_e, out=log_peak)
        Z, W = S
        aZ, aW = np.abs(S, out=moduli[:2])
        norm = aZ ** 2 + aW ** 2
        if certify:
            np.multiply(gain, aZ, out=L[2])
            L[2] *= aW
            L[2] *= norm
        hit = np.zeros(alive.size, dtype=bool)
        per = np.full(alive.size, -1, dtype=np.int32)
        for tz, tw, thr, i in tests:
            cross = np.abs(Z * tw - tz * W) ** 2
            new = (cross < thr * norm) & ~hit
            per[new] = i
            hit |= new
        if hit.any():
            sel, got = alive[hit], per[hit]
            if certify:
                peak[sel] = L[1][hit]
                ok = peak[sel] <= limit
                sel, got = sel[ok], got[ok]
            step[sel] = k
            label[sel] = got
            keep = ~hit
            alive = alive[keep]
            # compress, not S[:, keep], which is several times slower
            S = np.compress(keep, S, axis=1)
            if certify:
                L = np.compress(keep, L, axis=1)
            scratch = S2[:2 * alive.size].reshape(2, -1), A[:3 * alive.size].reshape(3, -1)
    if certify:
        peak[alive] = L[1]
    return step, label, peak
