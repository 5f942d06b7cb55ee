"""Orbits, cycles and multipliers for the one-step map.

Cycle detection works on computed orbits (sustained closeness of the orbit
tail to itself at lag q); exact periodic points of low period come instead
from the polynomial route in :mod:`qubit_chaos.roots`, polished by Newton
steps on the map itself.  Both meet in the acceptance checks: a detected
attracting cycle must reappear in the periodic-point list for its period.

Multipliers are evaluated as products of per-step derivatives taken in
whichever coordinate chart keeps each cycle point small, so cycles through
the point at infinity need no special casing.  Stability classes follow the
usual dichotomy; the neutral band and the root-of-unity probe for the
parabolic subcase are documented constants below.  The Lyapunov estimators
run on the numpy-free scalar path in :mod:`qubit_chaos.sphere`; their names
are re-exported here.

Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernel import (SEED_ROUNDOFF, _check_capture_args, _pairs_within, _run_capture,
                     _target_pairs, _value_pairs)
from .roots import aberth_roots, fixed_point_polynomial
from .sphere import (
    INF,
    ConfigurationError,
    LyapunovEstimate,  # re-exported with the two estimators: callers take them from here
    MapParam,
    Orbit,
    POINT_TOL as EPS_POINT,  # point identity: the tolerance of SpherePoint equality
    RootFindingError,
    SpherePoint,
    _chart_step,
    _extend_orbit,
    _json_complex,
    _json_point,
    _points,
    _preferred_chart,
    _value_overlap,
    _value_rate,
    apply_map,
    as_point,
    chordal_distance,
    lyapunov_derivative,
    lyapunov_overlap,
    spherical_derivative,  # no caller here: the benchmark's trace hooks patch this name
)

SUPERATTRACTING = "superattracting"
ATTRACTING = "attracting"
REPELLING = "repelling"
NEUTRAL_PARABOLIC = "neutral-parabolic"
NEUTRAL_IRRATIONAL = "neutral-irrational"

ATTRACTING_CLASSES = frozenset({SUPERATTRACTING, ATTRACTING})

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
# Newton iterations _polish_cycle runs on one cycle, at most.
POLISH_ITERS = 40


def _point_key(pt: SpherePoint):
    if pt.is_infinity:
        return (1, 0.0, 0.0)
    return (0, pt.value.real, pt.value.imag)


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
        return Cycle(self.period, _rotated(tuple(pt.conjugate() for pt in self.points)),
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
            "points": [_json_point(pt) for pt in self.points],
            "multiplier": _json_complex(self.multiplier),
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
            "p": _json_complex(self.param.p),
            "hyperbolic": self.hyperbolic,
            "critical_orbits": [r.to_json_dict() for r in self.critical],
            "cycles": [c.to_json_dict() for c in self.cycles],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _check_cycle_args(eps: float, max_period: int, steps: int, name: str) -> None:
    # a tail scan for periods up to max_period reads a run's last 2*max_period steps
    if max_period < 1:
        raise ValueError(f"max_period must be at least 1, got {max_period}")
    if steps < 2 * max_period:
        raise ValueError(f"{name} must be at least 2*max_period = 2*{max_period}, got {steps}")
    _check_capture_args(eps, steps)


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
    roundoff certificate (:func:`_expansion_certified`): an orbit that hugs
    a repelling set until seed roundoff blows up falls into *some* attractor
    by floating-point drift alone, which is no convergence of the dynamics.
    A path through a critical point (rate 0) always passes, so the scan on
    coordinates (:func:`_settled_cycle`) guards nothing in
    :func:`critical_orbits`, whose orbits start at 0 and infinity.
    Requires 1e-30 < eps < 1 and max_period >= 1; ValueError otherwise.
    """
    _check_cycle_args(eps, max_period, len(orbit.points) - 1, "the orbit's step count")
    return _settled_cycle(orbit.param, [pt._value for pt in orbit.points], eps, max_period)


def _settled_cycle(param: MapParam, vals: list, eps: float,
                   max_period: int) -> Optional[Cycle]:
    """:func:`detect_cycle` on orbit values (None for infinity), of which
    there are more than 2*max_period.  Only the last 2*max_period values are
    compared, and sphere points are built only for the q cycle points."""
    n = len(vals)
    eps2 = eps * eps
    for q in range(1, max_period + 1):
        for i in range(n - 1, n - 1 - q, -1):
            if not _value_overlap(vals[i], vals[i - q]) < eps2:
                break
        else:
            if not _expansion_certified(vals[: n - q], eps):
                return None
            return _build_cycle(param, _points(vals[n - q:]), eps)
    return None


def _expansion_certified(prefix, eps: float) -> bool:
    """Whether seed roundoff stays below eps along the path into the tail.

    A perturbation of SEED_ROUNDOFF on the starting point is stretched by
    the spherical expansion rate at every step.  If the accumulated factor
    ever lifts it past eps, linear error analysis is dead from that step on
    and nothing after it can be attributed to the starting point.  Orbits
    through a critical point certify at it: the rate there is zero, so the
    product collapses and stays collapsed, and the walk stops.  ``prefix``
    holds orbit values (None for infinity).
    """
    limit = math.log(eps / SEED_ROUNDOFF)
    log_e = 0.0
    for v in prefix:
        if log_e > limit:
            return False
        rate = _value_rate(v)
        if rate == 0.0:
            return True
        log_e += math.log(rate)
    return log_e <= limit


def _build_cycle(param: MapParam, raw: list[SpherePoint], eps: float) -> Cycle:
    polished = _reduce_period(_polish_cycle(param.p, raw))
    if _cycle_defect(param, polished, eps) is None:
        return _make_cycle_unchecked(param, polished)
    return _make_cycle_unchecked(param, _reduce_period(raw))


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


def _cycle_defect(param: MapParam, pts: list[SpherePoint], tol: float) -> Optional[str]:
    """Why orbit-ordered ``pts`` are not a cycle, or None when they are: each
    must map to the next (cyclically) within ``tol`` and all must be
    pairwise distinct beyond ``EPS_POINT``, in sqrt-overlap units."""
    q = len(pts)
    if q < 1:
        return "a cycle needs at least one point"
    for k in range(q):
        d = chordal_distance(apply_map(param, pts[k]), pts[(k + 1) % q])
        if d > tol:
            return (f"points do not form a cycle of the map at p={param.p}: "
                    f"step {k} misses by {d:.3e}")
    if any(chordal_distance(pts[i], pts[j]) <= EPS_POINT
           for i in range(q) for j in range(i + 1, q)):
        return "cycle points are not pairwise distinct"
    return None


def _rotated(pts):
    """``pts`` rotated so the smallest point (by real part, then imaginary;
    infinity last) comes first, as a tuple."""
    i0 = min(range(len(pts)), key=lambda i: _point_key(pts[i]))
    return tuple(pts[i0:]) + tuple(pts[:i0])


def _make_cycle_unchecked(param: MapParam, pts: list[SpherePoint]) -> Cycle:
    lam = _multiplier(param.p, pts)
    return Cycle(len(pts), _rotated(pts), lam, classify_multiplier(lam))


def _multiplier(p: complex, pts: list[SpherePoint]) -> complex:
    charts = [_preferred_chart(pt) for pt in pts]
    lam = 1.0 + 0j
    q = len(pts)
    for k in range(q):
        coord, in_w = charts[k]
        _, out_w = charts[(k + 1) % q]
        lam *= _chart_step(p, coord, in_w, out_w)[1]
    return lam


def cycle_multiplier(param: MapParam, points) -> tuple[complex, str]:
    """Multiplier and stability class of a verified cycle.

    ``points`` must be ordered along the orbit, pairwise distinct beyond
    ``EPS_POINT``, and each must map to the next (cyclically) within
    ``EPS_POINT`` in sqrt-overlap units; otherwise ValueError.  The
    multiplier is the chart-correct product of per-step derivatives, so
    cycles through infinity are fine.
    """
    cycle = make_cycle(param, points)
    return cycle.multiplier, cycle.stability


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
    defect = _cycle_defect(param, pts, EPS_POINT)
    if defect:
        raise ValueError(defect)
    return _make_cycle_unchecked(param, pts)


# ---------------------------------------------------------------------------
# Newton polishing of whole cycles in chart-correct coordinates

def _polish_cycle(p: complex, pts: list[SpherePoint]) -> list[SpherePoint]:
    """Newton-refine orbit-ordered points toward an exact cycle of the map.

    Newton's method on the cyclic system f(x_k) = x_{k+1} (k mod q), with
    each point in its preferred chart (multiple shooting; Parker & Chua,
    Practical Numerical Algorithms for Chaotic Systems, 1989).  With a_k
    the chart derivative at x_k and r_k the miss of link k, the correction
    solves a_k d_k - d_{k+1} = -r_k: transporting the misses once around
    the cycle gives R, so d_0 = R / (1 - lam) with lam = prod a_k, and the
    other corrections follow link by link.  An iteration costs q chart
    steps.  Iterates while the largest chordal link residual falls, at most
    POLISH_ITERS times, and returns the best iterate if that residual is at
    most EPS_POINT, the input otherwise.
    """
    q = len(pts)
    charts = [_preferred_chart(pt) for pt in pts]
    coords = [c for c, _ in charts]
    flags = [w for _, w in charts]
    best, best_res = coords, math.inf
    try:
        for _ in range(POLISH_ITERS):
            nxt = coords[1:] + coords[:1]
            links = [_chart_step(p, c, flags[k], flags[(k + 1) % q])
                     for k, c in enumerate(coords)]
            res = max(_value_overlap(img, c) for (img, _), c in zip(links, nxt))
            if not res < best_res:
                break
            best, best_res = coords, res
            lam, d = 1.0 + 0j, 0j
            for (img, a), c in zip(links, nxt):
                lam *= a
                d = a * d + (img - c)
            d /= 1.0 - lam
            coords = []
            for (img, a), c, c_next in zip(links, best, nxt):
                coords.append(c + d)
                d = a * d + (img - c_next)
    except (ZeroDivisionError, OverflowError):
        pass  # an iterate left the charts: keep the best one so far
    if not best_res <= EPS_POINT * EPS_POINT:
        return pts
    return [(INF if c == 0 else SpherePoint(1.0 / c)) if w else SpherePoint(c)
            for c, w in zip(best, flags)]


def _polish_periodic_point(param: MapParam, point: SpherePoint, q: int) -> list[SpherePoint]:
    """The cycle through a near-periodic point of period dividing q: its
    orbit of q points polished whole by :func:`_polish_cycle` (raw if that
    fails), cut to its smallest period by :func:`_reduce_period`."""
    orbit = _points(_extend_orbit(param.p, [point._value], q))
    return _reduce_period(_polish_cycle(param.p, orbit))


# ---------------------------------------------------------------------------
# Exact periodic points via the polynomial route

def _periodic_orbits(param: MapParam, n: int, n_max: int) -> list[list[SpherePoint]]:
    """The cycles of period dividing n, in orbit order, each polished once.

    The roots of the fixed-point polynomial (infinity first when it is one)
    are walked in order.  An unclaimed root seeds one
    :func:`_polish_periodic_point` call, whose cycle claims every root
    within ``EPS_POINT`` of one of its points.  A seed whose cycle was
    already found (its root lay farther than ``EPS_POINT`` from its polished
    point) adds nothing, so the points are pairwise distinct beyond
    ``EPS_POINT``.  Raises :class:`RootFindingError`, naming p and n, when a
    cycle does not close under the map within ``EPS_POINT``
    (:func:`_cycle_defect`), and before any solve when the trimmed leading
    coefficient reports infinity as a root but n steps do not bring
    infinity back within ``EPS_POINT``.
    """
    if n < 1:
        raise ValueError("period must be >= 1")
    if n > n_max:
        raise ValueError(
            f"period {n} exceeds n_max={n_max}; the polynomial degree is "
            f"2**n + 1 -- raise n_max explicitly if you mean it"
        )
    coeffs, inf_is_root = fixed_point_polynomial(param.p, n)
    if inf_is_root:
        image = _extend_orbit(param.p, [None], n + 1)[n]
        miss = math.sqrt(_value_overlap(image, None))
        if miss > EPS_POINT:
            raise RootFindingError(
                f"periodic-point solve failed for p={param.p}, n={n}: the leading "
                f"coefficient of G_{n} was trimmed as zero (degree {len(coeffs) - 1} of "
                f"{2 ** n + 1}), but f^{n}(inf) lies {miss:.3e} from inf")
    try:
        raw = aberth_roots(coeffs)
    except RootFindingError as exc:
        raise RootFindingError(f"periodic-point solve failed for p={param.p}: {exc}") from None
    roots = _points([None] * inf_is_root + raw.tolist())
    m = len(roots)
    pairs = _value_pairs([pt._value for pt in roots])  # the roots, then every point found
    unclaimed = np.ones(m, dtype=bool)
    cycles = []
    for i, root in enumerate(roots):
        if not unclaimed[i]:
            continue
        cycle = _polish_periodic_point(param, root, n)
        defect = _cycle_defect(param, cycle, EPS_POINT)
        if defect:
            raise RootFindingError(
                f"periodic-point solve failed for p={param.p}, n={n}: {defect}")
        C = _value_pairs([pt._value for pt in cycle])
        near = _pairs_within(C[:, :, None], pairs[:, None, :], EPS_POINT**2).any(axis=0)
        unclaimed &= ~near[:m]
        if not near[m:].any():
            cycles.append(cycle)
            pairs = np.concatenate((pairs, C), axis=1)
    return cycles


def find_periodic_points(param: MapParam, n: int, n_max: int = 4) -> list[SpherePoint]:
    """All points of period dividing n, including the point at infinity.

    Solves the degree-(2**n + 1) fixed-point polynomial of the n-fold
    composite with the Aberth-Ehrlich iteration and groups the roots into
    cycles, each Newton-polished once as a whole; a root within
    ``EPS_POINT`` of a polished point is on its cycle.  ``n_max`` guards the
    exponential degree growth; raise it explicitly for deeper searches (cost
    roughly quadruples per unit of n).  Raises :class:`RootFindingError`, naming
    the parameter, if the solve fails or returns points whose cycles do not
    close under the map within ``EPS_POINT``.
    """
    pts = [pt for cycle in _periodic_orbits(param, n, n_max) for pt in cycle]
    pts.sort(key=_point_key)
    return pts


def periodic_cycles(param: MapParam, n: int, n_max: int = 4) -> list[Cycle]:
    """The periodic points of period dividing n, grouped into the cycles
    :func:`find_periodic_points` polishes and checks under the map."""
    cycles = [_make_cycle_unchecked(param, pts)
              for pts in _periodic_orbits(param, n, n_max)]
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
    only if both tails settled on attracting-class cycles, None (verdict
    withheld) if either orbit never settled.  No roundoff certificate backs
    a settled tail: that of :func:`detect_cycle` passes every orbit from a
    critical point.  Requires 1e-30 < eps < 1, max_period >= 1 and
    max_iter >= 2*max_period; ValueError otherwise.
    """
    _check_cycle_args(eps, max_period, max_iter, "max_iter")
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
    """Fate of the critical point ``start``.

    The orbit is traced on coordinates (None for infinity) by
    :func:`qubit_chaos.sphere._extend_orbit` and doubled in length until
    :func:`_settled_cycle` finds a settled tail or the budget runs out; only
    the cycle points of a settled tail become sphere points.
    """
    vals = [start._value]
    goal = 2 * max_period + 1
    while True:
        _extend_orbit(param.p, vals, goal)
        cycle = _settled_cycle(param, vals, eps, max_period)
        if cycle is not None:
            transient = _transient_length(vals, cycle, eps)
            return CriticalOrbitResult(start, True, cycle, transient, len(vals) - 1)
        if len(vals) > max_iter:
            return CriticalOrbitResult(start, False, None, None, len(vals) - 1)
        goal = min(2 * len(vals), max_iter + 1)


def _transient_length(vals: list, cycle: Cycle, eps: float) -> int:
    # index of the first orbit value (None for infinity) within eps of the
    # cycle.  A vectorized prefilter at twice the radius picks the
    # candidates, over chunks that double in size so a short transient stays
    # cheap; the exact scalar test then decides them in orbit order
    cvals = [pt._value for pt in cycle.points]
    C = _value_pairs(cvals)
    start, size = 0, 16
    while start < len(vals):
        chunk = vals[start:start + size]
        near = _pairs_within(_value_pairs(chunk)[:, :, None], C[:, None, :], 4 * eps**2)
        for k in np.flatnonzero(near.any(axis=1)):
            if any(math.sqrt(_value_overlap(chunk[k], c)) <= eps for c in cvals):
                return start + int(k)
        start += size
        size *= 2
    return len(vals) - 1


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


def _capture_cycles(param: MapParam, cycles, eps: float, max_iter: int):
    """The capture targets of ``render_julia`` and :func:`classify_basin`,
    resolved before any point runs: check eps and max_iter, take ``cycles``
    or the attracting cycles the critical orbits land on
    (:class:`ConfigurationError` if none), and return the cycles and their
    target pairs (:func:`qubit_chaos.kernel._target_pairs`), which both
    callers run through :func:`qubit_chaos.kernel._run_capture`.
    """
    _check_capture_args(eps, max_iter)
    if cycles is None:
        cycles = critical_orbits(param).attracting_cycles()
        refusal = f"no attracting cycle found at p={param.p}; supply target cycles explicitly"
    else:
        cycles, refusal = tuple(cycles), f"no target cycles given at p={param.p}"
    if not cycles:
        raise ConfigurationError(refusal)
    return cycles, _target_pairs(cycles)


def classify_basin(param: MapParam, points, cycles=None, max_iter: int = 1000,
                   eps: float = 1e-6) -> BasinResult:
    """Which attracting cycle captures each point, with a roundoff guard.

    Vectorized over ``points`` (complex array; an entry with an infinite part
    stands for the point at infinity, and one with a NaN part is refused
    with ValueError).  ``cycles`` defaults to the attracting cycles the
    critical orbits land on; :class:`ConfigurationError` if that leaves none.

    A point is labeled only when its orbit comes within ``eps``
    (sqrt-overlap units) of a target point AND a seed perturbation of one
    roundoff unit, stretched by the spherical expansion rate of every step
    taken so far, has stayed below ``eps``.  Points failing the second test
    started within roundoff of a basin boundary: where the computed orbit
    lands says nothing about where the true one goes, so they are reported
    unresolved rather than misfiled.  Orbits sitting exactly on a repelling
    invariant set (e.g. |z| = 1 under the pure squaring map) are the
    canonical unresolved case.  The points run, in one thread, through the
    blocked capture runner ``render_julia`` uses
    (:func:`qubit_chaos.kernel._run_capture`, whose stages the kernel
    docstring gives), and the points still live after the first stage carry
    their certificate state into the second, so the scratch is one block's,
    not the input's.  The certificate is the only difference from the
    raster.
    Requires 1e-30 < eps < 1 and max_iter >= 0; ValueError otherwise.
    """
    pts = np.asarray(points, dtype=complex)
    flat = pts.ravel()
    if nan := np.count_nonzero(np.isnan(flat)):
        raise ValueError(f"{nan} of {flat.size} points have a NaN part")
    cycles, targets = _capture_cycles(param, cycles, eps, max_iter)
    out = _run_capture(param.p, flat.take, flat.size, targets, eps, max_iter, certify=True)
    steps, labels, peak = (a.reshape(pts.shape) for a in out)
    return BasinResult(labels.astype(int), steps.astype(int), peak, cycles)
