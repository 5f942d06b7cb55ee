"""The projective-pair kernel of every vector pipeline, the block runner of
every raster pipeline, and the capture runner, with its symmetry routes,
that the julia raster and the basin classifier share.

A point is a pair (Z, W) with z = Z/W.  The step is polynomial (no
division), infinity is the exact pair (1, 0), and the arithmetic commutes
bit for bit with complex conjugation, which makes the mirror-symmetry tests
exact.  The step does not normalise: every few steps :func:`_pair_rescale`
scales the pairs by a power of two, which is exact in binary floating point
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002).
Every test read off a pair is homogeneous in it, so no output
depends on when the rescales happen (:func:`_rescale_interval`).

The rasters and the basin classifier run in stages over fixed blocks of
points through :func:`_run_blocks`, which pools the points a stage leaves
live into full blocks for the next, so late steps do not run on a few live
points per block.  Both capture pipelines run through :func:`_run_capture`:
every block of JULIA_BLOCK_PIXELS points runs to step
K = floor(log2(eps/SEED_ROUNDOFF)), 32 at eps = 1e-6, up to which the
roundoff certificate can refuse no capture, and the points left live run
the remaining steps in the second stage.  In a block the live points are a
prefix of the columns, whose holes a capture fills from its end
(:func:`_capture`): O(captures) moves a step.  Blocks never depend on the
worker count, and the arithmetic is elementwise, so neither the workers nor
the order of the columns changes an output bit.

Both capture pipelines enter through :func:`_run_grid`, which runs one
point per symmetry class of a grid (f(-z) = f(z), and f(conj z) =
conj f(z) at real p) and mirrors the outputs, the certificate's peaks
included, into the rest.
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from functools import partial
from typing import Optional, Sequence

import numpy as np


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

# Capture radii must lie above this: below it _rescale_interval no longer
# keeps eps**2 times what a pair reads clear of the subnormals.
EPS_MIN = 1e-30


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
    the cross products of :func:`_pair_gap`) is formed from a pair at
    most r - 1 steps unscaled.  With N <= 2**480 after r steps, N**2 stays
    below 2 N / g <= 2**481 one step earlier; for r <= 4, N >= 2**-23, so
    the fourth powers stay above 2**-47 and eps**2 times them above 2**-250
    for any eps above EPS_MIN = 1e-30: far from overflow and from subnormals
    (:func:`_check_capture_args` refuses a smaller eps).  r = 4
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


def _pair_run(P, S, scratch, steps: int, r: int, rows=None):
    """Step the pairs S ``steps`` times in place, rescaling them before the
    first step and after every r steps (r from :func:`_rescale_interval`);
    returns the last state.  With ``rows`` (shape (steps, 2, n)) S only
    takes the first rescale and the state after step k+1 goes to
    ``rows[k]``, rescaled where the in-place run would rescale it and in
    the last row, so that no row is read more than r - 1 steps past one.
    """
    _, A, E = scratch
    for k in range(steps):
        if k % r == 0:
            _pair_rescale(S, np.abs(S, out=A), A, E)
        S = _pair_step(P, S, scratch, None if rows is None else rows[k])
    if rows is not None and steps:
        _pair_rescale(S, np.abs(S, out=A), A, E)
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


def _pair_gap(A, B):
    """The cross product |Za Wb - Zb Wa|**2 of the stacked pairs A and B,
    column by column, and their norms na = |Za|**2 + |Wa|**2 and nb."""
    (za, wa), (zb, wb) = A, B
    cross = np.abs(za * wb - zb * wa) ** 2
    return cross, np.abs(za) ** 2 + np.abs(wa) ** 2, np.abs(zb) ** 2 + np.abs(wb) ** 2


def _pairs_within(A, B, eps2: float) -> np.ndarray:
    """Whether the stacked pairs A and B lie within eps of each other, column
    by column: cross < eps2 * na * nb (:func:`_pair_gap`)."""
    cross, na, nb = _pair_gap(A, B)
    return cross < eps2 * na * nb


def _lag_scan(T, max_period: int, eps2: float, tight2: float | None = None) -> np.ndarray:
    """Smallest lag q whose last q pairs all match their pairs q states
    earlier within eps, per column of the tail window T, or -1.

    ``T`` holds consecutive states of stacked pairs, shape
    (2*max_period+1, 2, n).  A column leaves the scan at its first matching
    lag, and a lag stops at its first pair that misses.  With ``tight2`` the
    lag stands only if its pairs also match within sqrt(tight2), and the
    column leaves with -1 otherwise; both radii test one :func:`_pair_gap`.
    """
    last = len(T) - 1
    period = np.full(T.shape[2], -1, dtype=np.int32)
    closed = np.zeros(period.size, dtype=bool)
    open_ = np.arange(period.size)  # columns with no matching lag yet
    for q in range(1, max_period + 1):
        idx = open_
        tight = None if tight2 is None else np.ones(idx.size, dtype=bool)
        for k in range(q):
            a = last - k
            cross, na, nb = _pair_gap(T[a].take(idx, axis=1), T[a - q].take(idx, axis=1))
            near = np.flatnonzero(cross < eps2 * na * nb)
            idx = idx[near]
            if tight is not None:
                tight = tight[near] & (cross[near] < tight2 * na[near] * nb[near])
            if idx.size == 0:
                break
        if idx.size:
            period[idx if tight is None else idx[tight]] = q
            closed[idx] = True
            open_ = open_[~closed[open_]]
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


def _value_pairs(vals) -> np.ndarray:
    """:func:`_start_pairs` of orbit values (None for infinity; see
    :func:`qubit_chaos.sphere._extend_orbit`)."""
    return _start_pairs(np.array([math.inf if v is None else v for v in vals], dtype=complex))


def _target_pairs(cycles):
    """Capture targets ``(tz, tw, |tz|**2 + |tw|**2, cycle index)``, one per
    cycle point, in cycle order."""
    targets = []
    for i, cycle in enumerate(cycles):
        for tz, tw in _value_pairs([pt._value for pt in cycle.points]).T.tolist():
            targets.append((tz, tw, abs(tz) ** 2 + abs(tw) ** 2, i))
    return targets


def _check_capture_args(eps: float, max_iter: int) -> None:
    if not EPS_MIN < eps < 1.0:
        raise ValueError(f"eps must be finite and in ({EPS_MIN:g}, 1), got {eps!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be at least 0, got {max_iter}")


def _capture(p: complex, S: np.ndarray, targets, eps2: float, first: int, last: int,
             end: int | None = None, L: np.ndarray | None = None, limit: float | None = None,
             reflected=None, decided: np.ndarray | None = None):
    """Test the pairs S (consumed) against the targets at steps first..last
    of a run that ends at step ``end`` (default ``last``).

    S holds the pairs after step max(first - 1, 0), so runs over steps 0..K
    and then K+1..end on the pairs left live step the orbits of one run.  A
    pair is captured at the first step where it lies within eps of a target
    from :func:`_target_pairs` (the first listed wins); returns int32
    ``step`` and ``label`` (-1 where nothing captured the pair), the
    certificate's peaks, and the columns left live with their pairs and
    certificate state.  The live pairs are columns :m of S, L, ``alive`` and
    the scratch, and a step that captures moves the live columns at or above
    the new end m into the holes below it, so the live set comes back in that
    order.  With ``limit`` the log spherical expansion rate of every step
    (:func:`_pair_rate`: p-free, at most 2) is summed along each orbit from
    the moduli the target test takes, in ``L`` = (sum, running peak), which
    starts at zeros at step 0 and is handed on with the pairs (consumed).  A
    capture whose running peak exceeds ``limit`` is refused (-1), which
    cannot happen by step K = floor(log2(eps/roundoff)); each pair's peak at
    capture or at ``last`` is returned.  The rate of step k joins for every
    k < end, so a stage that stops before ``end`` hands on the rate of its
    last step.  The pairs are rescaled at step ``first`` and every r steps
    after it (:func:`_rescale_interval`), together with the moduli the
    target test has just taken, and the rate is formed in place in the rows
    the test is done with.

    With ``reflected`` (each target's image under the column-reversing
    reflection of :func:`_run_grid`), step 0 also tests the pairs
    against the reflected targets but 0 and infinity, whose tests read
    moduli, and sets ``decided`` (bool, per column of S) where it captures
    the pair or would capture its reflection, refused or not.
    """
    n = m = S.shape[1]
    step, label = np.full((2, n), -1, dtype=np.int32)
    alive = np.arange(n)
    P = _pair_params(np.array([p]))
    r = _rescale_interval(abs(p))
    # |Z tw - tz W|**2 is |Z|**2 at the target (0, 1), |W|**2 at (1, 0), bit for bit
    tests = [(tz, tw, eps2 * tn, {(0, 1): 0, (1, 0): 1}.get((tz, tw), 2))
             for tz, tw, tn, _ in targets]
    nt = len(tests)
    if decided is not None:
        tests += [(*pair, thr, 2) for pair, (*_, thr, row) in zip(reflected, tests) if row == 2]
    C2, R, hits = np.empty((2, n), complex), np.empty((5, n)), np.empty((len(tests), n), bool)
    E = np.empty(n, dtype=np.int32)  # rescale exponents
    tlabel = np.array([i for *_, i in targets], dtype=np.int32)
    end = last if end is None else end
    certify = limit is not None
    peak = np.zeros(n) if certify else None
    if certify and L is None:
        L = np.zeros((2, n))  # log expansion and its peak
    for k in range(first, last + 1):
        if m == 0:
            break
        if k:
            _pair_step(P, S, (C2,))
        Z, W = S
        aZ, aW, aZ2, aW2, norm = R
        thr_norm, cross = C2[1].view(float).reshape(2, -1)  # in tz W's row, once read
        np.abs(S, out=R[:2])
        if (k - first) % r == 0:
            R[:2] *= _pair_rescale(S, R[:2], R[2:4], E[:m])
        np.multiply(R[:2], R[:2], out=R[2:4])
        np.add(aZ2, aW2, out=norm)
        for j, (tz, tw, thr, row) in enumerate(tests):
            if row == 2:
                Ztw = Z if tw == 1 else np.multiply(Z, tw, out=C2[0])
                np.subtract(Ztw, np.multiply(tz, W, out=C2[1]), out=C2[0])
                np.square(np.abs(C2[0], out=cross), out=cross)
            np.multiply(norm, thr, out=thr_norm)
            np.less((aZ2, aW2, cross)[row], thr_norm, out=hits[j])
        if decided is not None and k == 0:  # with the reflected targets
            np.logical_or.reduce(hits, axis=0, out=decided)
            tests, hits = tests[:nt], hits[:nt]
        hit = np.logical_or.reduce(hits, axis=0)
        idx = np.flatnonzero(hit)
        if certify:
            got_peak = L[1, idx]  # before the next step's rate joins
            if k < end:  # the rate of the next step, from here
                log_e, log_peak = L
                rate = _pair_rate(aZ, aW, aZ2, aW2, norm)
                with np.errstate(divide="ignore"):  # a critical point: log 0 = -inf
                    log_e += np.log(rate, out=rate)
                np.maximum(log_peak, log_e, out=log_peak)
        if idx.size:
            sel, got = alive[idx], tlabel[hits[:, idx].argmax(axis=0)]
            if certify:
                peak[sel] = got_peak
                ok = got_peak <= limit
                sel, got = sel[ok], got[ok]
            step[sel] = k
            label[sel] = got
            # the live columns at or above the new end fill the captured holes below it
            m -= idx.size
            src = m + np.flatnonzero(~hit[m:])
            holes = idx[:src.size]
            S[:, holes], alive[holes] = S[:, src], alive[src]
            if certify:
                L[:, holes] = L[:, src]
                L = L[:, :m]
            S, C2, R, hits = S[:, :m], C2[:, :m], R[:, :m], hits[:, :m]
    if certify:
        peak[alive[:m]] = L[1]
    return step, label, peak, alive[:m], S, L


def _run_blocks(n: int, block: int, workers: Optional[int], stages: Sequence, fn,
                state: tuple = (), make_buffer=lambda: None) -> None:
    """Run the stages over n points, each over blocks of ``block`` live points.

    fn(stage, idx, state, buf) runs one stage on one block: ``idx`` holds
    the block's flat indices in input order, ``state`` its columns of the
    pooled state arrays (their last axis runs over the live points; the
    initial ``state`` covers all n) and ``buf`` a buffer of ``make_buffer()``,
    made at most once per worker for the whole run.  fn returns the block
    positions it leaves live and their state arrays.  After every stage but
    the last the runner pools copies of them, in input order, as the next
    stage's live points and state, so no block's scratch outlives its block;
    the last stage's are not pooled, and a stage that leaves nothing live
    ends the run.  Blocks never depend on ``workers``, which caps the pool.
    """
    buffers = queue.SimpleQueue()

    def run(stage, final, live, state, start):
        try:
            buf = buffers.get_nowait()
        except queue.Empty:
            buf = make_buffer()
        idx = live[start:start + block]
        keep, *out = fn(stage, idx, tuple(a[..., start:start + block] for a in state), buf)
        buffers.put(buf)
        return None if final else (idx[keep], *(a.copy() for a in out))

    live = np.arange(n)
    nworkers = min(workers or min(8, os.cpu_count() or 1), -(-n // block))
    with ThreadPoolExecutor(nworkers) if nworkers > 1 else nullcontext() as pool:
        for i, stage in enumerate(stages):
            if live.size == 0:
                break
            final = i == len(stages) - 1
            left = list((pool.map if pool else map)(
                partial(run, stage, final, live, state), range(0, live.size, block)))
            if not final:
                live, *state = (np.concatenate(parts, axis=-1) for parts in zip(*left))
            del left  # or the blocks' parts would stay held through the next stage


def _run_capture(p: complex, points, n: int, targets, eps: float, max_iter: int,
                 certify: bool = False, workers: Optional[int] = 1,
                 reflected=None, decided: np.ndarray | None = None):
    """:func:`_capture` over steps 0..max_iter of the n points
    ``points(idx)`` (flat indices idx) in the stages (0, K) and
    (K+1, max_iter) of the module docstring; returns int32 ``step`` and
    ``label`` and, with ``certify``, the certificate's peaks (else None).
    ``workers`` caps the thread pool.  One block runs through both stages
    too.  The points live after step K are pooled in block order, and
    within a block in the order its compaction leaves them.  With
    ``reflected``, step 0 sets ``decided`` (bool, n) as :func:`_capture`
    says.
    """
    eps2 = eps * eps
    limit = math.log(eps / SEED_ROUNDOFF) if certify else None
    K = min(max(math.floor(math.log2(eps / SEED_ROUNDOFF)), 0), max_iter)
    step, label = (np.empty(n, dtype=np.int32) for _ in range(2))
    peak = np.empty(n) if certify else None

    def run(stage, idx, state, _):
        first, last = stage
        # stage 1 starts every point; stage 2 takes its pairs and sums, fresh pooled copies
        S = state[0] if state else _start_pairs(points(idx))
        L = state[1] if certify and state else None
        flags = np.empty(idx.size, bool) if reflected and not first else None
        step[idx], label[idx], pk, keep, S, L = _capture(
            p, S, targets, eps2, first, last, max_iter, L, limit, reflected, flags)
        if flags is not None:
            decided[idx] = flags
        if certify:
            peak[idx] = pk
        return (keep, S, L) if certify else (keep, S)

    stages = [(0, K)] + ([(K + 1, max_iter)] if K < max_iter else [])
    _run_blocks(n, JULIA_BLOCK_PIXELS, workers, stages, run)
    return step, label, peak


def _conjugate_closed(targets) -> bool:
    """Whether the conjugate of every target pair is a target pair of the
    same cycle, compared by value (so +0 and -0 are equal)."""
    pairs = {(tz, tw, i) for tz, tw, _, i in targets}
    return all((tz.conjugate(), tw.conjugate(), i) in pairs for tz, tw, _, i in targets)


def _run_grid(p: complex, block, shape: tuple, negated: bool, conjugated: bool, targets,
              eps: float, max_iter: int, certify: bool = False, workers: Optional[int] = 1):
    """:func:`_run_capture` over a grid of ``shape`` = (ny, nx) points, one
    point per symmetry class; returns ``step``, ``label`` and ``peak`` (None
    without ``certify``) of that shape, the bits of the run over every point.

    ``block(row0, col0, cols)`` gives the points of the grid's block ``cols``
    columns wide whose top-left point is (row0, col0), as a function of flat
    indices within it.  ``negated`` says that point (ny-1-i, nx-1-j) is -z
    for the point z at (i, j), and ``conjugated`` that point (ny-1-i, j) is
    conj z, compared by value (a zero part may differ in sign, which no test
    on a pair reads).  The map squares before it rotates, so f(-z) = f(z):
    on a negated grid only the top ceil(ny/2) rows run.  At real p,
    f(conj z) = conj f(z): on a conjugated grid whose targets are closed
    under conjugation (:func:`_conjugate_closed`) the bottom rows conjugate
    the top ones, and on one negated as well only the top-left
    ceil(ny/2) x ceil(nx/2) quadrant runs.  Every other grid runs every
    point.  :func:`_mirror` reflects the outputs into the rest.
    """
    ny, nx = shape
    conj = conjugated and p.imag == 0 and _conjugate_closed(targets)
    rows = -(-ny // 2) if negated or conj else ny
    cols = -(-nx // 2) if negated and conj else nx
    # the reflection that reverses the columns, if any: -conj z fills the
    # quadrant's right, -z the bottom rows; its step 0 is tested with the run's
    flip = ((1,) if conj else (0, 1)) if negated else ()
    reflected = [(-tz.conjugate(), tw.conjugate()) if conj else (-tz, tw)
                 for tz, tw, *_ in targets] if flip else None
    decided = np.empty(rows * cols, bool) if flip else None
    out = _run_capture(p, block(0, 0, cols), rows * cols, targets, eps, max_iter, certify,
                       workers, reflected, decided)
    if rows * cols == ny * nx:
        return tuple(a if a is None else a.reshape(shape) for a in out)
    # formed once the run has freed its scratch, whose memory they reuse
    # (formed before it, an 800^2 render page-faults some 3 500 times more)
    grid = [np.empty(shape, a.dtype) for a in out if a is not None]
    for g, a in zip(grid, out):
        g[:rows, :cols] = a.reshape(rows, cols)
    mirror = partial(_mirror, p, block, targets, eps, max_iter, certify, workers, grid)
    if cols < nx:  # z -> -conj z fills the top right
        mirror((rows, cols), flip, decided)
    if rows < ny:  # z -> conj z or z -> -z the bottom
        mirror((rows, nx), (0,), None) if conj else mirror((rows, nx), flip, decided)
    return grid[0], grid[1], grid[2] if certify else None


def _mirror(p: complex, block, targets, eps: float, max_iter: int, certify: bool,
            workers: Optional[int], grid: list, filled: tuple, flip: tuple, redo):
    """Reflect the outputs ``grid`` of :func:`_run_grid` (in place) from their
    top-left ``filled`` = (rows, cols) corner along axis flip[0]: the rest of
    that axis takes the corner's leading entries, reversed along the axes in
    ``flip``; ``redo`` is None where no fix-up can be needed.

    Flip (0,) maps z to conj z, (1,) to -conj z and (0, 1) to -z.  The
    targets list each cycle's points together and in cycle order, so a
    label is the least cycle index of the targets hit.  At real p with
    targets closed under conjugation, conj z is captured by the conjugates
    of z's targets at every step, step 0 included.  The map squares first,
    so -z and -conj z step to the bits of z and conj z from step 1 on, and
    the certificate, which reads pair moduli only, sums the same rates; but
    step 0 tests the point itself.  Where the columns reverse, the
    reflected points whose step 0 ``redo`` marks (the corner's flat flags
    from :func:`_capture`, reflected with the outputs) run the full path.
    """
    axis, n = flip[0], filled[flip[0]]
    src, dst = list(map(slice, filled)), list(map(slice, filled))
    src[axis], dst[axis] = slice(grid[0].shape[axis] - n), slice(n, None)
    src, dst = tuple(src), tuple(dst)
    rev = tuple(slice(None, None, -1 if a in flip else 1) for a in (0, 1))
    for a in grid:
        a[dst] = a[src][rev]
    if redo is None:
        return
    new = [a[dst] for a in grid]
    fix = np.flatnonzero(redo.reshape(filled)[src][rev])
    if fix.size:
        at = block(*(n if a == axis else 0 for a in (0, 1)), new[0].shape[1])
        at_fix = np.divmod(fix, new[0].shape[1])
        out = _run_capture(p, lambda idx: at(fix[idx]), fix.size, targets, eps, max_iter,
                           certify, workers)
        for a, b in zip(new, out):
            a[at_fix] = b
