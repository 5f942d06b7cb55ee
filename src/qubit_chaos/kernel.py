"""The projective-pair kernel of every vector pipeline, and the blocked capture
runner that the julia raster and the basin classifier share.

A point is a pair (Z, W) with z = Z/W.  The step is polynomial (no
division), infinity is the exact pair (1, 0), and the arithmetic commutes
bit for bit with complex conjugation, which makes the mirror-symmetry tests
exact.  The step does not normalise: every few steps :func:`_pair_rescale`
scales the pairs by a power of two, which is exact in binary floating point
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002).
Every test read off a pair is homogeneous in it, so no output
depends on when the rescales happen (:func:`_rescale_interval`).

Both capture pipelines run through :func:`_run_capture`: every block of
JULIA_BLOCK_PIXELS points runs to step K = floor(log2(eps/SEED_ROUNDOFF)),
32 at eps = 1e-6, up to which the roundoff certificate can refuse no
capture, and the points all blocks leave live are pooled in input order
into full blocks for the remaining steps, so late steps do not run on a few
live points per block.  Blocks never depend on the worker count, and the
arithmetic is elementwise within a block, so the output does not either.
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

import numpy as np

from .sphere import SpherePoint


# Points per block of the capture runner.  A capture point carries little
# scratch, and larger blocks make fewer numpy calls for threads to contend on.
JULIA_BLOCK_PIXELS = 32768

# Chordal-scale uncertainty of a double-precision starting point; the seed
# error that the expansion certificate amplifies along an orbit.
SEED_ROUNDOFF = float(np.finfo(float).eps)

# The most steps a pair takes between two rescales (_rescale_interval), and
# the log2 bound on |Z|**2 + |W|**2 the unscaled steps must stay below.
RESCALE_EVERY = 4
RESCALE_LOG2_NORM = 480


def _rescale_interval(p_max: float) -> int:
    """Steps between rescales of pairs whose parameters have modulus at most
    p_max: the largest r <= RESCALE_EVERY that keeps r unscaled steps below
    norm 2**RESCALE_LOG2_NORM, or 1.

    After :func:`_pair_rescale` the larger modulus lies in [1/2, 1), so
    N = |Z|**2 + |W|**2 lies in [1/4, 2).  One step maps N to
    g (|Z|**4 + |W|**4) with g = 1 + |p|**2, and |Z|**4 + |W|**4 lies in
    [N**2/2, N**2], so after k steps N lies between
    (g/2)**(2**k - 1) / 4**(2**k) >= 2**-(3 * 2**k - 1) and
    g**(2**k - 1) * 2**(2**k).  A pair is rescaled whenever it has taken r
    steps since the last rescale, so everything read off a pair (the
    fourth powers of :func:`_pair_rate`, eps**2 |t|**2 N in the target test,
    the cross products of :func:`_pairs_within`) is formed from a pair at
    most r - 1 steps unscaled.  With N <= 2**480 after r steps, N**2 stays
    below 2 N / g <= 2**481 one step earlier; for r <= 4, N >= 2**-23, so
    the fourth powers stay above 2**-47 and eps**2 times them above 2**-250
    for any eps above 1e-30: far from overflow and from subnormals.  r = 4
    holds up to |p| = 2**15.4, 3 up to 2**33.7, 2 up to 2**79.7.  At r = 1
    every pair is rescaled before it is read, and the step only forms
    |p| |W|**2 <= |p|, so r = 1 covers any finite p, p = 1e200 included.
    """
    log2_g = 2.0 * math.log2(math.hypot(1.0, float(p_max)))
    r = RESCALE_EVERY
    while r > 1 and (2 ** r - 1) * log2_g + 2 ** r > RESCALE_LOG2_NORM:
        r -= 1
    return r


def _pair_scratch(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scratch for :func:`_pair_step` and :func:`_pair_run` on n stacked pairs."""
    return np.empty((2, n), dtype=complex), np.empty((2, n)), np.empty(n, dtype=np.int32)


def _pair_step(P, S, scratch, out=None):
    """One map step of the stacked pairs ``S = [Z, W]``, written in place.

    ``P`` is ``[p, -conj(p)]`` (shape (2, n), or (2, 1) for one parameter),
    ``scratch`` comes from :func:`_pair_scratch` and the result goes to
    ``out`` (default ``S``; any other ``out`` leaves ``S`` untouched).  The
    new pair is (Z**2 + p W**2, W**2 - conj(p) Z**2): one product gives
    Z**2 and W**2, one more p W**2 and -conj(p) Z**2, and adding the
    negated product equals subtracting it bit for bit.  The two quadratics
    have no common root, so the pair never vanishes.  It is not rescaled:
    its norm grows by the factor the growth identity of
    :func:`_rescale_interval` bounds, and callers rescale every r steps.
    """
    S2 = scratch[0]
    if out is None:
        out = S
    np.multiply(S, S, out=S2)
    np.multiply(P, S2[::-1], out=out)
    out += S2
    return out


def _pair_rescale(S, aS, M, E):
    """Scale the stacked pairs S in place by 2**-e, where e is the exponent
    np.frexp gives max(|Z|, |W|), so that their larger modulus lies in
    [1/2, 1); returns the factor 2**-e.

    ``aS`` holds the moduli (|Z|, |W|) of S, ``M`` two rows of float scratch
    (``aS`` itself when the moduli are spent) and ``E`` an int32 row.  The
    mantissa f of m = f 2**e gives the factor as f/m, exactly.  Scaling by
    a power of two rounds nothing, so a pair's bits depend on how often it
    was rescaled only through that power of two.
    """
    m = np.maximum(aS[0], aS[1], out=M[0])
    f = np.frexp(m, M[1], E)[0]
    S *= np.divide(f, m, out=f)
    return f


def _pair_run(P, S, scratch, steps: int, r: int):
    """Step the pairs S ``steps`` times in place, rescaling them before the
    first step and after every r steps (r from :func:`_rescale_interval`)."""
    _, A, E = scratch
    for k in range(steps):
        if k % r == 0:
            _pair_rescale(S, np.abs(S, out=A), A, E)
        _pair_step(P, S, scratch)
    return S


def _pair_rate(aZ, aW, aZ2=None, aW2=None, norm=None):
    """Spherical expansion rate of one step at a pair with moduli aZ, aW:
    that of squaring for every p, since the rest of the step rotates the
    sphere.  2|Z||W|(|Z|**2 + |W|**2) / (|Z|**4 + |W|**4) is at most 2, and 2
    on |z| = 1; it is homogeneous of degree 0 in the pair.  Given the squares
    ``aZ2``, ``aW2`` and their sum ``norm`` (as :func:`_capture` has them),
    the rate is written over ``norm`` and the squares are spent; the same
    operations in the same order give the same bits either way."""
    if norm is None:
        aZ2, aW2 = aZ * aZ, aW * aW
        norm = aZ2 + aW2
    norm *= aZ
    norm *= aW
    norm *= 2.0
    norm /= np.add(np.square(aZ2, out=aZ2), np.square(aW2, out=aW2), out=aZ2)
    return norm


def _pairs_within(A, B, eps2: float) -> np.ndarray:
    """Whether the stacked pairs A and B lie within eps of each other, column
    by column: |Za Wb - Zb Wa|**2 < eps2 * na * nb, with na = |Za|**2 + |Wa|**2."""
    (za, wa), (zb, wb) = A, B
    cross = np.abs(za * wb - zb * wa) ** 2
    na = np.abs(za) ** 2 + np.abs(wa) ** 2
    nb = np.abs(zb) ** 2 + np.abs(wb) ** 2
    return cross < eps2 * na * nb


def _lag_scan(T, max_period: int, eps2: float) -> np.ndarray:
    """Smallest lag q whose last q pairs all match their pairs q states
    earlier within eps, per column of the tail window T, or -1.

    ``T`` holds consecutive states of stacked pairs, shape
    (2*max_period+1, 2, n).  A column leaves the scan at its first matching
    lag, and a lag stops at its first pair that misses.
    """
    last = len(T) - 1
    period = np.full(T.shape[2], -1, dtype=np.int32)
    open_ = np.arange(period.size)  # columns with no matching lag yet
    for q in range(1, max_period + 1):
        idx = open_
        for k in range(q):
            a = last - k
            idx = idx[_pairs_within(T[a].take(idx, axis=1), T[a - q].take(idx, axis=1), eps2)]
            if idx.size == 0:
                break
        if idx.size:
            period[idx] = q
            open_ = open_[period[open_] < 0]
            if open_.size == 0:
                break
    return period


def _pair_params(p: np.ndarray) -> np.ndarray:
    """The ``P = [p, -conj(p)]`` argument of :func:`_pair_step`."""
    return np.stack((p, -np.conj(p)))


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


def _point_values(pts: Sequence[SpherePoint]) -> np.ndarray:
    """Complex values of the sphere points pts, inf for the point at infinity,
    so that :func:`_start_pairs` makes every point into its pair."""
    return _value_array([pt._value for pt in pts])


def _value_array(vals) -> np.ndarray:
    """:func:`_point_values` of orbit values (None for infinity; see
    :func:`qubit_chaos.sphere._extend_orbit`)."""
    return np.array([math.inf if v is None else v for v in vals], dtype=complex)


def _target_pairs(cycles):
    """Capture targets ``(tz, tw, |tz|**2 + |tw|**2, cycle index)``, one per
    cycle point, in cycle order."""
    targets = []
    for i, cycle in enumerate(cycles):
        for tz, tw in _start_pairs(_point_values(cycle.points)).T.tolist():
            targets.append((tz, tw, abs(tz) ** 2 + abs(tw) ** 2, i))
    return targets


def _check_capture_args(eps: float, max_iter: int) -> None:
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be finite and in (0, 1), got {eps!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be at least 0, got {max_iter}")


def _capture(p: complex, S: np.ndarray, targets, eps2: float, first: int, last: int,
             end: int | None = None, L: np.ndarray | None = None, limit: float | None = None):
    """Test the pairs S (consumed) against the targets at steps first..last
    of a run that ends at step ``end`` (default ``last``).

    S holds the pairs after step max(first - 1, 0), so runs over steps 0..K
    and then K+1..end on the pairs left live step the orbits of one run.  A
    pair is captured at the first step where it lies within eps of a target
    from :func:`_target_pairs` (the first listed wins); returns int32
    ``step`` and ``label`` (-1 where nothing captured the pair), the
    certificate's peaks, and the columns left live with their pairs and
    certificate state.  With ``limit`` the log spherical expansion rate of
    every step (:func:`_pair_rate`: p-free, at most 2) is summed along each
    orbit from the moduli the target test takes, in ``L`` = (sum, running
    peak), which starts at zeros at step 0 and is handed from stage to stage
    with the pairs (consumed).  A capture whose running peak exceeds
    ``limit`` is refused (-1), which cannot happen by step
    K = floor(log2(eps/roundoff)); each pair's peak at capture or at
    ``last`` is returned.  The rate of step k joins for every k < end, so a
    stage that stops before ``end`` hands on the rate of its last step.  The
    pairs are rescaled at step ``first`` and every r steps after it
    (:func:`_rescale_interval`), together with the moduli the target test
    has just taken, and the rate is formed in place in the rows the test is
    done with.
    """
    n = S.shape[1]
    step, label = np.full((2, n), -1, dtype=np.int32)
    alive = np.arange(n)
    P = np.array([[p], [-p.conjugate()]])
    r = _rescale_interval(abs(p))
    # flat so that the scratch for the live pixels is contiguous: strided
    # views cost more per call, and late steps are many calls on few pixels
    nt = len(targets)
    C, A, H = np.empty(2 * n, dtype=complex), np.empty(5 * n), np.empty(nt * n, dtype=bool)
    C2, R, hits = C.reshape(2, n), A.reshape(5, n), H.reshape(nt, n)
    E = np.empty(n, dtype=np.int32)  # rescale exponents
    # |Z tw - tz W|**2 is |Z|**2 at the target (0, 1), |W|**2 at (1, 0), bit for bit
    tests = [(tz, tw, eps2 * tn, {(0, 1): 0, (1, 0): 1}.get((tz, tw), 2))
             for tz, tw, tn, _ in targets]
    tlabel = np.array([i for *_, i in targets], dtype=np.int32)
    end = last if end is None else end
    certify = limit is not None
    peak = np.zeros(n) if certify else None
    if certify and L is None:
        L = np.zeros((2, n))  # log expansion and its peak
    for k in range(first, last + 1):
        if alive.size == 0:
            break
        if k:
            _pair_step(P, S, (C2,))
        Z, W = S
        aZ, aW, aZ2, aW2, norm = R
        thr_norm, cross = C2[1].view(float).reshape(2, -1)  # in tz W's row, once read
        np.abs(S, out=R[:2])
        if (k - first) % r == 0:
            R[:2] *= _pair_rescale(S, R[:2], R[2:4], E[:alive.size])
        np.multiply(R[:2], R[:2], out=R[2:4])
        np.add(aZ2, aW2, out=norm)
        for j, (tz, tw, thr, row) in enumerate(tests):
            if row == 2:
                Ztw = Z if tw == 1 else np.multiply(Z, tw, out=C2[0])
                np.subtract(Ztw, np.multiply(tz, W, out=C2[1]), out=C2[0])
                np.square(np.abs(C2[0], out=cross), out=cross)
            np.multiply(norm, thr, out=thr_norm)
            np.less((aZ2, aW2, cross)[row], thr_norm, out=hits[j])
        hit = np.logical_or.reduce(hits, axis=0)
        if certify:
            peak[alive[hit]] = L[1][hit]  # before the next step's rate joins
            if k < end:  # the rate of the next step, from here
                log_e, log_peak = L
                rate = _pair_rate(aZ, aW, aZ2, aW2, norm)
                with np.errstate(divide="ignore"):  # a critical point: log 0 = -inf
                    log_e += np.log(rate, out=rate)
                np.maximum(log_peak, log_e, out=log_peak)
        if hit.any():
            sel, got = alive[hit], tlabel[hits[:, hit].argmax(axis=0)]
            if certify:
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
            C2, R = C[:2 * alive.size].reshape(2, -1), A[:5 * alive.size].reshape(5, -1)
            hits = H[:nt * alive.size].reshape(nt, -1)
    if certify:
        peak[alive] = L[1]
    return step, label, peak, alive, S, L


def _run_stage(live: np.ndarray, block: int, workers: Optional[int], fn,
               buffers: Optional[queue.SimpleQueue] = None, make_buffer=lambda: None):
    """Run fn(start, stop, buffer) over blocks of ``block`` live points (flat
    indices in input order) and pool, in input order, the flat indices and
    state arrays (stacked along their last axis) that each block returns
    as left live; returns them as a tuple.  ``live`` is not empty.  A block
    takes a buffer from ``buffers`` or, when none is free, a new one from
    ``make_buffer()``, and puts it back when done: at most one buffer per
    worker is ever made, and runs passing the same ``buffers`` reuse them.
    """
    if buffers is None:
        buffers = queue.SimpleQueue()
    starts = range(0, live.size, block)
    left = [None] * len(starts)

    def run(start):
        try:
            buf = buffers.get_nowait()
        except queue.Empty:
            buf = make_buffer()
        left[start // block] = fn(start, min(start + block, live.size), buf)
        buffers.put(buf)

    nworkers = min(workers or min(8, os.cpu_count() or 1), len(starts))
    if nworkers <= 1:
        list(map(run, starts))
    else:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            list(pool.map(run, starts))
    return tuple(np.concatenate(parts, axis=-1) for parts in zip(*left))


def _run_capture(p: complex, points, n: int, targets, eps: float, max_iter: int,
                 certify: bool = False, workers: Optional[int] = 1):
    """:func:`_capture` over steps 0..max_iter of the n points
    ``points(start, stop)`` (flat indices start..stop-1), in blocks of
    JULIA_BLOCK_PIXELS (see the module docstring); returns int32 ``step``
    and ``label`` and, with ``certify``, the certificate's peaks (else
    None).  ``workers`` caps the thread pool.  With one block the points
    run 0..max_iter in one call, with nothing gathered or scattered.
    """
    eps2 = eps * eps
    limit = math.log(eps / SEED_ROUNDOFF) if certify else None
    if n <= JULIA_BLOCK_PIXELS:
        return _capture(p, _start_pairs(points(0, n)), targets, eps2, 0, max_iter,
                        limit=limit)[:3]
    K = min(max(math.floor(math.log2(eps / SEED_ROUNDOFF)), 0), max_iter)
    step, label = np.empty((2, n), dtype=np.int32)
    peak = np.empty(n) if certify else None
    live = np.arange(n)
    for first, last in ((0, K), (K + 1, max_iter)):
        if live.size == 0 or first > last:
            break

        def run(start, stop, _):
            idx = live[start:stop]
            if first == 0:  # every point, in input order
                S, L = _start_pairs(points(start, stop)), None
            else:
                S = S_live[:, start:stop].copy()
                L = L_live[0][:, start:stop].copy() if certify else None
            step[idx], label[idx], pk, keep, S, L = _capture(
                p, S, targets, eps2, first, last, max_iter, L, limit)
            if certify:
                peak[idx] = pk
            out = (S, L) if certify else (S,)
            if last == max_iter:  # the last stage leaves no point live
                return (idx[:0], *(a[:, :0] for a in out))
            return (idx[keep], *out)
        live, S_live, *L_live = _run_stage(live, JULIA_BLOCK_PIXELS, workers, run)
    return step, label, peak
