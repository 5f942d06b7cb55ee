"""Points and maps on the Riemann sphere for one conditional-measurement step.

A pure qubit state a|0> + b|1> (up to phase) is encoded by the single complex
ratio z = a/b, so z = 0 is the basis state |1> and the point at infinity is
|0>.  One measurement-selected step (amplitude squaring followed by a local
rotation) acts on z as the quadratic rational map

    z  ->  (z**2 + p) / (1 - conj(p) * z**2)

with a single complex parameter p = tan(x) * exp(i*phi) built from the
rotation angles.  This module provides the sphere arithmetic everything else
builds on: the point type with a tagged infinity, the map itself with all of
its algebraic limits, forward orbits, the overlap distance between states,
the local expansion rate of the map in that metric, and the two Lyapunov
estimators built on that rate and that distance.  It imports no numpy, so
the numpy-free paths (``iterate_orbit``, the Lyapunov estimators, the CLI's
``orbit`` and ``lyapunov``) start fast; it also holds the two errors the CLI
reports, which the numpy modules raise.

All functions are pure; no global state, safe to call from worker threads.
"""

from __future__ import annotations

import cmath
import math
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import ClassVar

# Finite coordinates above this magnitude are indistinguishable from the
# point at infinity at double precision (the overlap distance to it rounds
# to zero), so they collapse to the tagged infinity element.  This keeps
# every stored value a normal float pair and makes the map total.
SNAP_MAGNITUDE = 1e150

# Point identity as a chordal length, sqrt(overlap_distance): the tolerance
# of SpherePoint equality, and orbits' EPS_POINT.
POINT_TOL = 1e-9

# lyapunov_derivative is unreliable past this fraction of excluded critical hits.
CRITICAL_HIT_LIMIT = 0.01
# lyapunov_overlap's fit window closes once the overlap reaches this ...
OVERLAP_SATURATION = 0.01
# ... its seeds may start at most this far apart in overlap distance ...
OVERLAP_MAX_INITIAL = 1e-16
# ... and its estimate is unreliable with fewer window points than this.
OVERLAP_MIN_WINDOW = 5


class ConfigurationError(RuntimeError):
    """A request the dynamics at this parameter cannot satisfy (for example,
    asking to target attracting cycles where none exist)."""


class RootFindingError(RuntimeError):
    """The simultaneous root iteration failed to converge."""


class SpherePoint:
    """A point of the extended complex plane: a pure qubit state up to phase.

    Either a finite complex coordinate or the distinguished point at
    infinity (``SpherePoint.INFINITY``, also exported as ``INF``).  The
    coordinate 0 is the basis state |1>, infinity is |0>.

    Finite values always have normal floating-point components: NaN input is
    rejected, and any magnitude above ``SNAP_MAGNITUDE`` (including genuine
    float infinities produced by overflow) collapses to the tagged infinity.
    Equality is tolerance-based, sqrt(:func:`overlap_distance`) within
    ``POINT_TOL``, never bitwise, so instances are deliberately unhashable.
    """

    __slots__ = ("_value",)

    INFINITY: ClassVar["SpherePoint"]

    def __init__(self, value: complex | None):
        if value is None:
            self._value = None
            return
        value = complex(value)
        if math.isnan(value.real) or math.isnan(value.imag):
            raise ValueError("sphere point components cannot be NaN")
        snap = SNAP_MAGNITUDE
        # the components first: abs raises once the modulus overflows
        if abs(value.real) > snap or abs(value.imag) > snap or abs(value) > snap:
            self._value = None
        else:
            self._value = value

    @property
    def is_infinity(self) -> bool:
        return self._value is None

    @property
    def value(self) -> complex:
        """The finite coordinate; raises on the point at infinity."""
        if self._value is None:
            raise ValueError("the point at infinity has no finite coordinate")
        return self._value

    def conjugate(self) -> "SpherePoint":
        if self._value is None:
            return self
        return SpherePoint(self._value.conjugate())

    def __eq__(self, other) -> bool:
        try:
            other = as_point(other)
        except (TypeError, ValueError):
            return NotImplemented
        return overlap_distance(self, other) <= POINT_TOL * POINT_TOL

    # tolerance-based equality is incompatible with hashing
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if self._value is None:
            return "SpherePoint(inf)"
        return f"SpherePoint({self._value!r})"


SpherePoint.INFINITY = SpherePoint(None)
INF = SpherePoint.INFINITY


def as_point(z) -> SpherePoint:
    """Coerce a SpherePoint, complex number, or real number to a SpherePoint."""
    if isinstance(z, SpherePoint):
        return z
    if isinstance(z, (int, float, complex)):
        return SpherePoint(z)
    raise TypeError(f"cannot interpret {z!r} as a point on the sphere")


def _json_complex(c) -> list:
    """The JSON form of a complex number: [re, im]."""
    return [c.real, c.imag]


def _json_point(pt: SpherePoint):
    """The JSON form of a sphere point: "inf", or [re, im]."""
    return "inf" if pt.is_infinity else _json_complex(pt.value)


@dataclass(frozen=True)
class MapParam:
    """The complex parameter of the one-step map, p = tan(x) * exp(i*phi).

    Any complex p of finite modulus is a valid parameter; the angle form
    exists only when tan(x) is finite, which :meth:`from_angles` enforces.
    """

    p: complex

    # from_angles rejects |cos x| below this: floats never land exactly on
    # x = pi/2 mod pi, so a documented numerical band stands in for it.
    ANGLE_TOL: ClassVar[float] = 1e-12

    def __post_init__(self):
        p = complex(self.p)
        if not math.isfinite(math.hypot(p.real, p.imag)):
            raise ValueError(f"map parameter must have a finite modulus, got {p!r}")
        object.__setattr__(self, "p", p)

    @classmethod
    def from_angles(cls, x: float, phi: float) -> "MapParam":
        """Build p = tan(x) * exp(i*phi); rejects x at pi/2 mod pi."""
        if abs(math.cos(x)) < cls.ANGLE_TOL:
            raise ValueError(
                f"rotation angle x={x!r} is within {cls.ANGLE_TOL} of pi/2 mod pi; "
                "tan(x) has no usable finite value there (use the density form)"
            )
        return cls(math.tan(x) * cmath.exp(1j * phi))

    def to_angles(self) -> tuple[float, float]:
        """Angles (x, phi) with x in [0, pi/2) and phi = arg p."""
        return math.atan(abs(self.p)), cmath.phase(self.p)

    def conjugate(self) -> "MapParam":
        return MapParam(self.p.conjugate())


def apply_map(param: MapParam, z) -> SpherePoint:
    """One step of the map: z -> (z**2 + p) / (1 - conj(p) * z**2).

    Total on the whole sphere.  The algebraic limits are exact: infinity
    maps to -1/conj(p) (or stays at infinity when p = 0), and a vanishing
    denominator maps to infinity.  Overflow past ``SNAP_MAGNITUDE`` also
    collapses to infinity, so the result never carries NaN/Inf components.
    This is one step of :func:`_orbit`.
    """
    if z.__class__ is not SpherePoint:  # as_point, without a call in the common case
        z = as_point(z)
    _, value = islice(_orbit(param.p, z._value), 2)
    if value is None:
        return INF
    # the step has already snapped the value: skip the constructor's checks
    out = object.__new__(SpherePoint)
    out._value = value
    return out


def _orbit(p: complex, z: complex | None):
    """The orbit values z, f(z), f(f(z)), ... of the map, without end.

    An orbit value is the ``_value`` of a :class:`SpherePoint`: a complex
    number of modulus at most ``SNAP_MAGNITUDE``, or None for infinity.
    The branch constants and the image of infinity are computed once per
    orbit, and each image only when it is asked for.  For |p| > 1
    numerator and denominator are rescaled by 1/|p| so huge parameters
    cannot overflow the numerator.  A zero denominator and any value not at
    most ``SNAP_MAGNITUDE`` in modulus (NaN included) go to infinity.
    """
    snap = SNAP_MAGNITUDE
    pc = p.conjugate()
    inf_image = None
    if p:
        inf_image = -1.0 / pc
        try:
            if not abs(inf_image) <= snap:
                inf_image = None
        except OverflowError:  # a modulus past the float range
            inf_image = None
    size = abs(p)
    big = size > 1.0
    if big:
        s = 1.0 / size
        q = p * s
        qc = q.conjugate()
    while True:
        yield z
        if z is None:
            z = inf_image
        else:
            z2 = z * z
            if big:
                num = s * z2 + q
                den = s - qc * z2
            else:
                num = z2 + p
                den = 1.0 - pc * z2
            if den == 0:
                z = None
            else:
                z = num / den
                try:
                    if not abs(z) <= snap:
                        z = None
                except OverflowError:  # a modulus past the float range
                    z = None


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


def iterate_orbit(param: MapParam, z0, n: int) -> Orbit:
    """Forward orbit of length n+1 starting at z0 (total: never raises mid-orbit)."""
    if n < 0:
        raise ValueError("orbit length must be nonnegative")
    return Orbit(param, tuple(_points(islice(_orbit(param.p, as_point(z0)._value), n + 1))))


def _points(vals) -> list[SpherePoint]:
    """Sphere points of orbit values (see :func:`_orbit`)."""
    return [INF if v is None else SpherePoint(v) for v in vals]


def overlap_distance(a, b) -> float:
    """Squared state separation: 1 - |<psi_a|psi_b>|**2, in [0, 1].

    For finite coordinates this is |z_a - z_b|**2 / ((1+|z_a|**2)(1+|z_b|**2));
    the point at infinity enters through the projective form, e.g.
    overlap_distance(z, INF) = 1/(1+|z|**2).  This squared form is the
    canonical metric of the package; tolerances quoted in "sqrt(overlap)
    units" compare against its square root (see :func:`chordal_distance`).
    """
    return _value_overlap(as_point(a)._value, as_point(b)._value)


def _value_overlap(a: complex | None, b: complex | None) -> float:
    """:func:`overlap_distance` of two orbit values (None for infinity),
    through the projective pairs (z, 1) and, for infinity, (1, 0)."""
    za, wa = (1 + 0j, 0j) if a is None else (a, 1 + 0j)
    zb, wb = (1 + 0j, 0j) if b is None else (b, 1 + 0j)
    cross = abs(za * wb - zb * wa)
    na = math.hypot(abs(za), abs(wa))
    nb = math.hypot(abs(zb), abs(wb))
    d = cross / (na * nb)
    return min(1.0, d * d)


def chordal_distance(a, b) -> float:
    """sqrt of :func:`overlap_distance`; the metric the point tolerances use."""
    return math.sqrt(overlap_distance(a, b))


def spherical_derivative(param: MapParam, z) -> float:
    """Local expansion rate of the map at z in the overlap metric.

    This is the spherical derivative |f'(z)| (1+|z|**2) / (1+|f(z)|**2).
    It does not depend on p: the map is squaring followed by a rotation of
    the sphere, which preserves the overlap metric, so the rate is that of
    z -> z**2, 2r(1+r**2)/(1+r**4) with r = min(|z|, 1/|z|), for every
    ``param``.  It is at most 2, equal to 2 on the unit circle, and 0.0
    exactly at the two critical points z = 0 and z = infinity.
    """
    return _value_rate(as_point(z)._value)


def _value_rate(v: complex | None) -> float:
    """:func:`spherical_derivative` at the orbit value v (None for infinity)."""
    if v is None:
        return 0.0
    r = abs(v)
    if r > 1.0:
        r = 1.0 / r
    r2 = r * r
    return 2.0 * r * (1.0 + r2) / (1.0 + r2 * r2)


def _preferred_chart(point: SpherePoint) -> tuple[complex, bool]:
    """Coordinate of magnitude <= 1 and a flag for the inverted chart."""
    if point.is_infinity:
        return 0j, True
    zv = point.value
    if abs(zv) > 1.0:
        return 1.0 / zv, True
    return zv, False


def _chart_step(p: complex, coord: complex, in_w: bool, out_w: bool) -> tuple[complex, complex]:
    """One map application between coordinate charts: (image, derivative).

    ``coord`` is the input-point coordinate in its chart (z, or w = 1/z when
    ``in_w``); the image is the output coordinate (z, or w when ``out_w``)
    and the derivative is d(out coordinate)/d(in coordinate).  In the z
    chart the image of z is num/den with num = z**2 + p and
    den = 1 - conj(p) z**2, and the image of w is num/den with
    num = 1 + p w**2 and den = w**2 - conj(p); the w chart takes den/num.
    The derivatives share the Wronskian factor 2*coord*(1+|p|**2) over the
    squared divisor.  For |p| > 1 num, den and the factor are rescaled by
    1/|p|, as in :func:`_orbit`, so huge parameters cannot overflow
    them (the derivative may then move in the last bits).  Chained
    derivatives telescope, so a product of them along an orbit is the
    chart-correct derivative of the composite map.  Raises ZeroDivisionError
    when the image is the chart's point at infinity.
    """
    c2 = coord * coord
    one, sc2 = 1.0, c2
    size = abs(p)
    if size > 1.0:
        one = 1.0 / size
        p = p * one
        sc2 = one * c2
    pc = p.conjugate()
    g = one * one + (p.real * p.real + p.imag * p.imag)
    if in_w:
        num, den = one + p * c2, sc2 - pc
    else:
        num, den = sc2 + p, one - pc * c2
    if out_w:
        num, den = den, num
    wronskian = 2.0 * coord * g if in_w == out_w else -2.0 * coord * g
    return num / den, wronskian / (den * den)


# ---------------------------------------------------------------------------
# Lyapunov estimators

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
        value = self.value
        return {
            # JSON has no inf or NaN: a non-finite value is written "inf", "-inf" or "nan"
            "value": value if math.isfinite(value) else repr(value),
            "method": self.method,
            "steps_used": self.steps_used,
            "saturated": self.saturated,
            "reliable": self.reliable,
        }


def lyapunov_derivative(param: MapParam, z0, n: int) -> LyapunovEstimate:
    """Mean log expansion rate along n steps of the orbit from z0.

    Exact critical hits contribute log(0); they are excluded from the mean
    and counted, and the estimate is marked unreliable when they exceed
    ``CRITICAL_HIT_LIMIT`` as a fraction of n (an orbit glued to a
    superattracting cycle has no meaningful finite exponent).  Returns
    -inf when every step was excluded.
    """
    if n < 1:
        raise ValueError("need at least one step")
    total = 0.0
    used = 0
    for v in islice(_orbit(param.p, as_point(z0)._value), n):
        rate = _value_rate(v)
        if rate > 0.0:
            total += math.log(rate)
            used += 1
    excluded = n - used
    value = total / used if used else float("-inf")
    reliable = used > 0 and excluded <= CRITICAL_HIT_LIMIT * n
    return LyapunovEstimate(value, "derivative", used, False, reliable)


def lyapunov_overlap(param: MapParam, z0, z1, n_max: int = 200) -> LyapunovEstimate:
    """Growth rate of the overlap distance between two nearby orbits.

    Both seeds evolve together and log(overlap) is fitted by least squares
    (:func:`_fit_slope`) over the pre-saturation window (overlap below
    ``OVERLAP_SATURATION``).  The seeds must start distinct but no farther
    apart than ``OVERLAP_MAX_INITIAL`` in overlap distance, so growth is
    measured before the sphere folds it.  ``saturated`` is set when the
    window closed before n_max; the estimate is unreliable when the window
    has fewer than ``OVERLAP_MIN_WINDOW`` points, and NaN when it has one
    (the orbits merged at the first step).  Both orbits are lazy
    (:func:`_orbit`): no orbit value is kept past its step, and the
    window's log values are one array of doubles, so memory grows by 8
    bytes a window point.

    Because the overlap distance is quadratic in state separation, this
    estimator runs at twice the derivative estimator's value for the same
    dynamics.
    """
    if n_max < 1:
        raise ValueError("need at least one step")
    a, b = as_point(z0)._value, as_point(z1)._value
    d0 = _value_overlap(a, b)
    if d0 == 0.0:
        raise ValueError("seeds coincide; overlap separation must be positive")
    if d0 > OVERLAP_MAX_INITIAL:
        raise ValueError(
            f"initial overlap {d0:.3e} exceeds {OVERLAP_MAX_INITIAL:.0e}; start closer "
            "so the growth window is usable"
        )
    logs = array("d", [math.log(d0)])  # the window's log values
    saturated = False
    saturation = OVERLAP_SATURATION  # a local: the loop reads it every step
    for va, vb in islice(zip(_orbit(param.p, a), _orbit(param.p, b)), 1, n_max + 1):
        d = _value_overlap(va, vb)
        if d >= saturation:
            saturated = True
            break
        if d == 0.0:
            break  # orbits merged below floating-point resolution
        logs.append(math.log(d))
    window = len(logs)
    slope = _fit_slope(logs) if window >= 2 else float("nan")
    return LyapunovEstimate(slope, "overlap", window, saturated,
                            window >= OVERLAP_MIN_WINDOW)


def _fit_slope(ys) -> float:
    """Least-squares slope of ``ys`` (at least two values) against 0, 1, 2, ...

    Closed form on the centred abscissae: sum((k - km) * y_k) over
    sum((k - km)**2) = w (w**2 - 1) / 12, with km = (w - 1) / 2 the mean of
    0 .. w - 1.  The numerator is one ``math.fsum`` of the products, so the
    slope is plain IEEE arithmetic: two values give y_1 - y_0, and integer
    values on a line give its slope, exactly.
    """
    w = len(ys)
    km = (w - 1) / 2
    return math.fsum((k - km) * y for k, y in enumerate(ys)) / (w * (w * w - 1) / 12)
