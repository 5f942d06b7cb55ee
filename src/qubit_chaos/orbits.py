"""Orbits, cycles, multipliers, and chaos diagnostics for the one-step map.

Cycle detection works on computed orbits (sustained closeness of the orbit
tail to itself at lag q); exact periodic points of low period come instead
from the polynomial route in :mod:`qubit_chaos.roots`, polished by Newton
steps on the map itself.  Both meet in the acceptance checks: a detected
attracting cycle must reappear in the periodic-point list for its period.

Multipliers are evaluated as products of per-step derivatives taken in
whichever coordinate chart keeps each cycle point small, so cycles through
the point at infinity need no special casing.  Stability classes follow the
usual dichotomy; the neutral band and the root-of-unity probe for the
parabolic subcase are documented constants below.

Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernel import _capture, _check_capture_args, _pair_from_point, _start_pairs, _target_pairs
from .roots import RootFindingError, aberth_roots, fixed_point_polynomial
from .sphere import (
    INF,
    MapParam,
    SpherePoint,
    _preferred_chart,
    _step_derivative,
    apply_map,
    as_point,
    chordal_distance,
    overlap_distance,
    spherical_derivative,
)

SUPERATTRACTING = "superattracting"
ATTRACTING = "attracting"
REPELLING = "repelling"
NEUTRAL_PARABOLIC = "neutral-parabolic"
NEUTRAL_IRRATIONAL = "neutral-irrational"

ATTRACTING_CLASSES = frozenset({SUPERATTRACTING, ATTRACTING})

# Point-identity tolerance in sqrt(overlap) units.
EPS_POINT = 1e-9
# Cycle search caps for critical-orbit tracing.
DEFAULT_MAX_PERIOD = 64
DEFAULT_MAX_ITER = 10_000
# |multiplier| at or below this counts as an exact critical hit.
SUPER_TOL = 1e-10
# | |multiplier| - 1 | within this is the neutral band.
NEUTRAL_TOL = 1e-9
# The parabolic probe tests multiplier**k == 1 for k up to this cap...
PARABOLIC_MAX_ROOT = 64
# ... within this tolerance.
PARABOLIC_TOL = 1e-8
# Chordal-scale uncertainty of a double-precision starting point; the seed
# error that the expansion certificate amplifies along an orbit.
SEED_ROUNDOFF = float(np.finfo(float).eps)


class ConfigurationError(RuntimeError):
    """A request the dynamics at this parameter cannot satisfy (for example,
    asking to target attracting cycles where none exist)."""


def _point_key(pt: SpherePoint):
    if pt.is_infinity:
        return (1, 0.0, 0.0)
    return (0, pt.value.real, pt.value.imag)


def _fmt_point(pt: SpherePoint):
    if pt.is_infinity:
        return "inf"
    return [pt.value.real, pt.value.imag]


@dataclass(frozen=True)
class Orbit:
    """A finite forward orbit: points[k+1] = map(points[k])."""

    param: MapParam
    points: tuple[SpherePoint, ...]

    @property
    def start(self) -> SpherePoint:
        return self.points[0]

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class Cycle:
    """A periodic orbit with its multiplier and stability class.

    ``points`` are ordered along the orbit, rotated so the smallest point
    (by real part, then imaginary; infinity last) comes first.
    """

    period: int
    points: tuple[SpherePoint, ...]
    multiplier: complex
    stability: str

    @property
    def is_attracting(self) -> bool:
        return self.stability in ATTRACTING_CLASSES

    def conjugate(self) -> "Cycle":
        pts = tuple(pt.conjugate() for pt in self.points)
        i0 = min(range(len(pts)), key=lambda i: _point_key(pts[i]))
        return Cycle(self.period, pts[i0:] + pts[:i0],
                     self.multiplier.conjugate(), self.stability)

    def matches(self, other: "Cycle", tol: float = 1e-6) -> bool:
        """Same period and same point set within tol (sqrt-overlap units)."""
        if self.period != other.period:
            return False
        return all(
            any(chordal_distance(a, b) <= tol for b in other.points)
            for a in self.points
        )

    def to_json_dict(self) -> dict:
        return {
            "period": self.period,
            "points": [_fmt_point(pt) for pt in self.points],
            "multiplier": [self.multiplier.real, self.multiplier.imag],
            "class": self.stability,
        }


@dataclass(frozen=True)
class CriticalOrbitResult:
    """Fate of one critical point under iteration."""

    start: SpherePoint
    converged: bool
    cycle: Optional[Cycle]
    transient: Optional[int]
    steps: int

    def conjugate(self) -> "CriticalOrbitResult":
        return CriticalOrbitResult(
            self.start.conjugate(), self.converged,
            self.cycle.conjugate() if self.cycle else None,
            self.transient, self.steps,
        )

    def to_json_dict(self) -> dict:
        return {
            "start": "0" if not self.start.is_infinity else "inf",
            "converged": self.converged,
            "transient": self.transient,
            "cycle": self.cycle.to_json_dict() if self.cycle else None,
        }


@dataclass(frozen=True)
class CriticalReport:
    """Where the two critical points (0 and infinity) end up, and the verdict.

    ``hyperbolic`` is True when both critical orbits land on attracting (or
    superattracting) cycles, False when they land somewhere weaker, and None
    when a verdict is withheld because an orbit never converged within its
    iteration budget.
    """

    param: MapParam
    critical: tuple[CriticalOrbitResult, CriticalOrbitResult]
    cycles: tuple[Cycle, ...]
    hyperbolic: Optional[bool]

    @property
    def verdict_withheld(self) -> bool:
        return self.hyperbolic is None

    def attracting_cycles(self) -> tuple[Cycle, ...]:
        return tuple(c for c in self.cycles if c.is_attracting)

    def conjugate(self) -> "CriticalReport":
        return CriticalReport(
            self.param.conjugate(),
            tuple(r.conjugate() for r in self.critical),
            tuple(c.conjugate() for c in self.cycles),
            self.hyperbolic,
        )

    def to_json_dict(self) -> dict:
        return {
            "p": [self.param.p.real, self.param.p.imag],
            "hyperbolic": self.hyperbolic,
            "critical_orbits": [r.to_json_dict() for r in self.critical],
            "cycles": [c.to_json_dict() for c in self.cycles],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


@dataclass(frozen=True)
class LyapunovEstimate:
    """A Lyapunov exponent estimate (nats per iteration) with its caveats.

    ``saturated`` is set by the overlap method when the pre-saturation
    window closed before the requested step budget; ``reliable`` is cleared
    when too few usable steps back the number (short window, or more than
    the allowed fraction of excluded critical hits).
    """

    value: float
    method: str
    steps_used: int
    saturated: bool
    reliable: bool

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "steps_used": self.steps_used,
            "saturated": self.saturated,
            "reliable": self.reliable,
        }


def iterate_orbit(param: MapParam, z0, n: int) -> Orbit:
    """Forward orbit of length n+1 starting at z0 (total: never raises mid-orbit)."""
    if n < 0:
        raise ValueError("orbit length must be nonnegative")
    pt = as_point(z0)
    pts = [pt]
    for _ in range(n):
        pt = apply_map(param, pt)
        pts.append(pt)
    return Orbit(param, tuple(pts))


def detect_cycle(orbit: Orbit, eps: float = EPS_POINT,
                 max_period: int = DEFAULT_MAX_PERIOD) -> Optional[Cycle]:
    """Smallest period the orbit tail has settled into, or None.

    Scans lags q = 1..max_period and accepts the first q for which the last
    q pairs at lag q all lie within eps (sqrt-overlap units) -- i.e. the
    match is sustained over one full extra period at the tail.  The raw tail
    points are then Newton-polished into an exact cycle; if polishing cannot
    be verified the detected raw points are returned unpolished rather than
    dropping the cycle.  Requires len(orbit) > 2*max_period.

    A matched tail is only reported when the path into it passes the
    roundoff certificate (see :func:`_expansion_certified`): orbits that hug
    a repelling set long enough for seed roundoff to blow up eventually fall
    into *some* attractor purely by floating-point drift, and reporting that
    landing would manufacture convergence the dynamics does not have.
    """
    pts = orbit.points
    n = len(pts)
    if n <= 2 * max_period:
        raise ValueError(
            f"orbit of length {n} is too short to certify periods up to "
            f"{max_period}; need more than {2 * max_period} points"
        )
    eps2 = eps * eps
    for q in range(1, max_period + 1):
        if all(
            overlap_distance(pts[n - 1 - k], pts[n - 1 - k - q]) < eps2
            for k in range(q)
        ):
            if not _expansion_certified(orbit.param, pts[: n - q], eps):
                return None
            return _build_cycle(orbit.param, list(pts[n - q:]), eps)
    return None


def _expansion_certified(param: MapParam, prefix, eps: float) -> bool:
    """Whether seed roundoff stays below eps along the path into the tail.

    A perturbation of SEED_ROUNDOFF on the starting point is stretched by
    the spherical expansion rate at every step.  If the accumulated factor
    ever lifts it past eps, linear error analysis is dead from that step on
    and nothing after it can be attributed to the starting point.  Orbits
    through a critical point certify trivially: the rate there is zero, so
    the product collapses and stays collapsed.
    """
    limit = math.log(eps / SEED_ROUNDOFF)
    log_e = 0.0
    for pt in prefix:
        if log_e > limit:
            return False
        rate = spherical_derivative(param, pt)
        log_e += math.log(rate) if rate > 0.0 else -math.inf
    return log_e <= limit


def _build_cycle(param: MapParam, raw: list[SpherePoint], eps: float) -> Cycle:
    q = len(raw)
    polished = [_polish_periodic_point(param, pt, q) for pt in raw]
    polished = _reduce_period(polished)
    if _cycle_ok(param, polished, eps):
        return _make_cycle_unchecked(param, polished)
    raw = _reduce_period(raw)
    return _make_cycle_unchecked(param, raw)


def _reduce_period(pts: list[SpherePoint]) -> list[SpherePoint]:
    # polishing can reveal that the detected period was a multiple of the
    # true one; shrink to the smallest divisor that closes the loop
    q = len(pts)
    for d in range(1, q):
        if q % d:
            continue
        if all(chordal_distance(pts[k], pts[k % d]) <= EPS_POINT for k in range(q)):
            return pts[:d]
    return pts


def _cycle_ok(param: MapParam, pts: list[SpherePoint], eps: float) -> bool:
    q = len(pts)
    for k in range(q):
        if chordal_distance(apply_map(param, pts[k]), pts[(k + 1) % q]) > eps:
            return False
    return all(
        chordal_distance(pts[i], pts[j]) > EPS_POINT
        for i in range(q) for j in range(i + 1, q)
    )


def _make_cycle_unchecked(param: MapParam, pts: list[SpherePoint]) -> Cycle:
    lam = _multiplier(param.p, pts)
    i0 = min(range(len(pts)), key=lambda i: _point_key(pts[i]))
    ordered = tuple(pts[i0:] + pts[:i0])
    return Cycle(len(pts), ordered, lam, classify_multiplier(lam))


def _multiplier(p: complex, pts: list[SpherePoint]) -> complex:
    charts = [_preferred_chart(pt) for pt in pts]
    lam = 1.0 + 0j
    q = len(pts)
    for k in range(q):
        coord, in_w = charts[k]
        _, out_w = charts[(k + 1) % q]
        lam *= _step_derivative(p, coord, in_w, out_w)
    return lam


def cycle_multiplier(param: MapParam, points, tol: float = EPS_POINT) -> tuple[complex, str]:
    """Multiplier and stability class of a verified cycle.

    ``points`` must be ordered along the orbit, pairwise distinct beyond
    ``EPS_POINT``, and each must map to the next (cyclically) within ``tol``
    in sqrt-overlap units; otherwise ValueError.  The multiplier is the
    chart-correct product of per-step derivatives, so cycles through
    infinity are fine.
    """
    pts = [as_point(z) for z in points]
    q = len(pts)
    if q < 1:
        raise ValueError("a cycle needs at least one point")
    for k in range(q):
        d = chordal_distance(apply_map(param, pts[k]), pts[(k + 1) % q])
        if d > tol:
            raise ValueError(
                f"points do not form a cycle of the map at p={param.p}: "
                f"step {k} misses by {d:.3e}"
            )
    for i in range(q):
        for j in range(i + 1, q):
            if chordal_distance(pts[i], pts[j]) <= EPS_POINT:
                raise ValueError("cycle points are not pairwise distinct")
    lam = _multiplier(param.p, pts)
    return lam, classify_multiplier(lam)


def classify_multiplier(lam: complex) -> str:
    """Stability class from a multiplier value; thresholds are module constants."""
    mag = abs(lam)
    if mag <= SUPER_TOL:
        return SUPERATTRACTING
    if abs(mag - 1.0) <= NEUTRAL_TOL:
        power = lam
        for _ in range(PARABOLIC_MAX_ROOT):
            if abs(power - 1.0) <= PARABOLIC_TOL:
                return NEUTRAL_PARABOLIC
            power *= lam
        return NEUTRAL_IRRATIONAL
    if mag < 1.0:
        return ATTRACTING
    return REPELLING


def make_cycle(param: MapParam, points) -> Cycle:
    """Verified Cycle from orbit-ordered points (see :func:`cycle_multiplier`)."""
    pts = [as_point(z) for z in points]
    lam, cls = cycle_multiplier(param, pts)
    i0 = min(range(len(pts)), key=lambda i: _point_key(pts[i]))
    return Cycle(len(pts), tuple(pts[i0:] + pts[:i0]), lam, cls)


# ---------------------------------------------------------------------------
# Newton polishing in chart-correct coordinates

def _polish_periodic_point(param: MapParam, point: SpherePoint, q: int,
                           iters: int = 40) -> SpherePoint:
    """Newton-refine a near-periodic point toward an exact period-q point.

    Points outside the unit disk (and near infinity) are polished in the
    inverted chart, where the dynamics is the map with parameter -conj(p);
    the tagged infinity itself is left untouched (it is either exactly
    periodic or not a cycle point at all).  Falls back to the input whenever
    the refinement does not verifiably improve the residual.
    """
    if point.is_infinity:
        return point
    if abs(point.value) > 1.0:
        mirrored = MapParam(-param.p.conjugate())
        out = _polish_affine(mirrored, 1.0 / point.value, q, iters)
        if out is None:
            return point
        if out == 0:
            return INF
        return SpherePoint(1.0 / out)
    out = _polish_affine(param, point.value, q, iters)
    return point if out is None else SpherePoint(out)


def _polish_affine(param: MapParam, c: complex, q: int, iters: int) -> Optional[complex]:
    def residual(v: complex) -> float:
        end = as_point(v)
        for _ in range(q):
            end = apply_map(param, end)
        return chordal_distance(end, SpherePoint(v))

    best, best_res = c, residual(c)
    cur = c
    for _ in range(iters):
        val, deriv = _return_map_z(param, cur, q)
        if val is None:
            break
        dg = deriv - 1.0
        if abs(dg) < 1e-12:
            break
        step = (val - cur) / dg
        nxt = cur - step
        if not (math.isfinite(nxt.real) and math.isfinite(nxt.imag)) or abs(nxt) > 4.0:
            break
        res = residual(nxt)
        if res < best_res:
            best, best_res = nxt, res
        if abs(step) <= 1e-16 * max(1.0, abs(nxt)):
            break
        cur = nxt
    return best if best_res <= EPS_POINT else None


def _return_map_z(param: MapParam, c: complex, q: int):
    """Value and z-chart derivative of the q-fold composite at z-coordinate c."""
    p = param.p
    pt = SpherePoint(c)
    deriv = 1.0 + 0j
    cur_coord, cur_w = c, False
    for k in range(q):
        nxt = apply_map(param, pt)
        if k == q - 1:
            if nxt.is_infinity:
                return None, None  # return map leaves the start chart
            nxt_coord, nxt_w = nxt.value, False
        else:
            nxt_coord, nxt_w = _preferred_chart(nxt)
        deriv *= _step_derivative(p, cur_coord, cur_w, nxt_w)
        pt, cur_coord, cur_w = nxt, nxt_coord, nxt_w
    return pt.value, deriv


# ---------------------------------------------------------------------------
# Exact periodic points via the polynomial route

def find_periodic_points(param: MapParam, n: int, n_max: int = 4,
                         eps: float = EPS_POINT) -> list[SpherePoint]:
    """All points of period dividing n, including the point at infinity.

    Solves the degree-(2**n + 1) fixed-point polynomial of the n-fold
    composite with the Aberth-Ehrlich iteration, Newton-polishes every root
    on the map itself, and deduplicates within ``eps``.  ``n_max`` guards
    the exponential degree growth; raise it explicitly for deeper searches
    (cost roughly quadruples per unit of n).  Raises
    :class:`RootFindingError`, naming the parameter, if the solve fails.
    """
    if n < 1:
        raise ValueError("period must be >= 1")
    if n > n_max:
        raise ValueError(
            f"period {n} exceeds n_max={n_max}; the polynomial degree is "
            f"2**n + 1 -- raise n_max explicitly if you mean it"
        )
    coeffs, inf_is_root = fixed_point_polynomial(param.p, n)
    try:
        raw = aberth_roots(coeffs)
    except RootFindingError as exc:
        raise RootFindingError(
            f"periodic-point solve failed for p={param.p}: {exc}"
        ) from None
    found: list[SpherePoint] = [INF] if inf_is_root else []
    for r in raw:
        found.append(_polish_periodic_point(param, SpherePoint(r), n))
    unique: list[SpherePoint] = []
    for pt in found:
        if all(chordal_distance(pt, u) > eps for u in unique):
            unique.append(pt)
    unique.sort(key=_point_key)
    return unique


def periodic_cycles(param: MapParam, n: int, n_max: int = 4) -> list[Cycle]:
    """The periodic points of period dividing n, grouped into cycles.

    Points are matched to their forward images within a loose tolerance so
    each cycle's points come from the polished set itself.
    """
    pts = find_periodic_points(param, n, n_max=n_max)
    used = [False] * len(pts)

    def lookup(target: SpherePoint) -> Optional[int]:
        dists = [chordal_distance(target, cand) for cand in pts]
        k = int(np.argmin(dists))
        return k if dists[k] <= 1e-6 else None

    cycles = []
    for i, start in enumerate(pts):
        if used[i]:
            continue
        used[i] = True
        chain = [start]
        cur = start
        for _ in range(n):
            cur = apply_map(param, cur)
            j = lookup(cur)
            if j is None:
                chain.append(cur)  # numerical stray; keep the raw image
                continue
            if j == i:
                break
            if not used[j]:
                used[j] = True
                chain.append(pts[j])
        cycles.append(make_cycle(param, chain))
    cycles.sort(key=lambda c: (c.period,) + _point_key(c.points[0]))
    return cycles


# ---------------------------------------------------------------------------
# Critical orbits and the hyperbolicity verdict

def critical_orbits(param: MapParam, max_iter: int = DEFAULT_MAX_ITER,
                    eps: float = EPS_POINT,
                    max_period: int = DEFAULT_MAX_PERIOD) -> CriticalReport:
    """Trace both critical points (0 and infinity) to their landing cycles.

    The orbit is extended geometrically and rechecked for a settled tail, so
    quickly converging parameters stop long before ``max_iter``.  The report
    carries the distinct landing cycles and the hyperbolicity verdict: True
    only if both orbits converged to attracting-class cycles, None (verdict
    withheld) if either orbit never settled.
    """
    results = []
    for start in (SpherePoint(0j), INF):
        results.append(_trace_critical(param, start, max_iter, eps, max_period))
    cycles: list[Cycle] = []
    for res in results:
        if res.cycle and not any(res.cycle.matches(c) for c in cycles):
            cycles.append(res.cycle)
    if all(r.converged for r in results):
        hyperbolic = all(r.cycle is not None and r.cycle.is_attracting for r in results)
    else:
        hyperbolic = None
    return CriticalReport(param, tuple(results), tuple(cycles), hyperbolic)


def _trace_critical(param: MapParam, start: SpherePoint, max_iter: int,
                    eps: float, max_period: int) -> CriticalOrbitResult:
    pts = [start]
    cur = start
    goal = 2 * max_period + 1
    while True:
        while len(pts) < goal:
            cur = apply_map(param, cur)
            pts.append(cur)
        cycle = detect_cycle(Orbit(param, tuple(pts)), eps, max_period)
        if cycle is not None:
            transient = _transient_length(pts, cycle, eps)
            return CriticalOrbitResult(start, True, cycle, transient, len(pts) - 1)
        if len(pts) > max_iter:
            return CriticalOrbitResult(start, False, None, None, len(pts) - 1)
        goal = min(2 * len(pts), max_iter + 1)


def _transient_length(pts: list[SpherePoint], cycle: Cycle, eps: float) -> int:
    # a vectorized prefilter at twice the radius picks the candidates, over
    # chunks that double in size so a short transient stays cheap; the exact
    # scalar test then decides them in orbit order
    CZ, CW = np.array([_pair_from_point(pt) for pt in cycle.points]).T
    cnorm = np.hypot(np.abs(CZ), np.abs(CW))
    start, size = 0, 16
    while start < len(pts):
        chunk = pts[start:start + size]
        Z, W = np.array([_pair_from_point(pt) for pt in chunk]).T
        cross = np.abs(Z[:, None] * CW[None, :] - CZ[None, :] * W[:, None])
        bound = (2.0 * eps) * np.hypot(np.abs(Z), np.abs(W))[:, None] * cnorm[None, :]
        for k in np.flatnonzero((cross <= bound).any(axis=1)):
            if any(chordal_distance(chunk[k], cp) <= eps for cp in cycle.points):
                return start + int(k)
        start += size
        size *= 2
    return len(pts) - 1


# ---------------------------------------------------------------------------
# basin classification

@dataclass(frozen=True)
class BasinResult:
    """Certified capture outcome for a batch of starting points.

    ``labels[i]`` is the index into ``cycles`` of the cycle that captured
    point i, or -1 where capture could not be certified -- either the orbit
    never came within eps of a target, or it got there only after the
    worst-case roundoff amplification exceeded the capture radius.
    ``steps`` is the capture step (-1 where unresolved) and
    ``expansion_log_peak`` the running peak of ln(accumulated spherical
    expansion), the quantity the certificate bounds.
    """

    labels: np.ndarray
    steps: np.ndarray
    expansion_log_peak: np.ndarray
    cycles: tuple


def classify_basin(param: MapParam, points, cycles=None, max_iter: int = 1000,
                   eps: float = 1e-6) -> BasinResult:
    """Which attracting cycle captures each point, with a roundoff guard.

    Vectorized over ``points`` (complex array; non-finite entries stand for
    the point at infinity).  ``cycles`` defaults to the attracting cycles the
    critical orbits land on; :class:`ConfigurationError` if there are none
    and none are supplied.

    A point is labeled only when its orbit comes within ``eps``
    (sqrt-overlap units) of a target point AND a seed perturbation of one
    roundoff unit, stretched by the spherical expansion rate of every step
    taken so far, has stayed below ``eps``.  Points failing the second test
    started within roundoff of a basin boundary: where the computed orbit
    lands says nothing about where the true one goes, so they are reported
    unresolved rather than misfiled.  Orbits sitting exactly on a repelling
    invariant set (e.g. |z| = 1 under the pure squaring map) are the
    canonical unresolved case.  The orbits run through the capture loop
    ``render_julia`` uses (:func:`qubit_chaos.kernel._capture`); the
    certificate is the only difference.  Requires 0 < eps < 1 and
    max_iter >= 0; ValueError otherwise.
    """
    _check_capture_args(eps, max_iter)
    pts = np.asarray(points, dtype=complex)
    if cycles is None:
        cycles = critical_orbits(param).attracting_cycles()
        if not cycles:
            raise ConfigurationError(
                f"no attracting cycle found at p={param.p}; "
                "supply target cycles explicitly")
    cycles = tuple(cycles)
    steps, labels, peak = (a.reshape(pts.shape) for a in _capture(
        param.p, _start_pairs(pts.ravel()), _target_pairs(cycles), eps * eps,
        max_iter, limit=math.log(eps / SEED_ROUNDOFF)))
    return BasinResult(labels.astype(int), steps.astype(int), peak, cycles)


# ---------------------------------------------------------------------------
# Lyapunov estimators

def lyapunov_derivative(param: MapParam, z0, n: int,
                        exclusion_limit: float = 0.01) -> LyapunovEstimate:
    """Mean log expansion rate along n steps of the orbit from z0.

    Exact critical hits contribute log(0); they are excluded from the mean
    and counted, and the estimate is marked unreliable when they exceed
    ``exclusion_limit`` as a fraction of n (an orbit glued to a
    superattracting cycle has no meaningful finite exponent).  Returns
    -inf when every step was excluded.
    """
    if n < 1:
        raise ValueError("need at least one step")
    pt = as_point(z0)
    total = 0.0
    used = 0
    for _ in range(n):
        rate = spherical_derivative(param, pt)
        if rate > 0.0:
            total += math.log(rate)
            used += 1
        pt = apply_map(param, pt)
    excluded = n - used
    value = total / used if used else float("-inf")
    reliable = used > 0 and excluded <= exclusion_limit * n
    return LyapunovEstimate(value, "derivative", used, False, reliable)


def lyapunov_overlap(param: MapParam, z0, z1, n_max: int = 200,
                     saturation: float = 0.01, max_initial: float = 1e-16,
                     min_window: int = 5) -> LyapunovEstimate:
    """Growth rate of the overlap distance between two nearby orbits.

    Both seeds evolve together and log(overlap) is fitted by least squares
    over the pre-saturation window (overlap below ``saturation``).  The
    seeds must start distinct but no farther apart than ``max_initial`` in
    overlap distance, so growth is measured before the sphere folds it.
    ``saturated`` is set when the window closed before n_max; the estimate
    is unreliable when the window has fewer than ``min_window`` points.

    Because the overlap distance is quadratic in state separation, this
    estimator runs at twice the derivative estimator's value for the same
    dynamics.
    """
    a, b = as_point(z0), as_point(z1)
    d0 = overlap_distance(a, b)
    if d0 == 0.0:
        raise ValueError("seeds coincide; overlap separation must be positive")
    if d0 > max_initial:
        raise ValueError(
            f"initial overlap {d0:.3e} exceeds {max_initial:.0e}; start closer "
            "so the growth window is usable"
        )
    logs = [math.log(d0)]
    saturated = False
    for _ in range(n_max):
        a = apply_map(param, a)
        b = apply_map(param, b)
        d = overlap_distance(a, b)
        if d >= saturation:
            saturated = True
            break
        if d == 0.0:
            break  # orbits merged below floating-point resolution
        logs.append(math.log(d))
    window = len(logs)
    if window >= 2:
        slope = float(np.polyfit(np.arange(window), np.array(logs), 1)[0])
    else:
        slope = float("nan")
    return LyapunovEstimate(slope, "overlap", window, saturated,
                            window >= min_window)
