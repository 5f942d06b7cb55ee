"""Points and maps on the Riemann sphere for one conditional-measurement step.

A pure qubit state a|0> + b|1> (up to phase) is encoded by the single complex
ratio z = a/b, so z = 0 is the basis state |1> and the point at infinity is
|0>.  One measurement-selected step (amplitude squaring followed by a local
rotation) acts on z as the quadratic rational map

    z  ->  (z**2 + p) / (1 - conj(p) * z**2)

with a single complex parameter p = tan(x) * exp(i*phi) built from the
rotation angles.  This module provides the sphere arithmetic everything else
builds on: the point type with a tagged infinity, the map itself with all of
its algebraic limits, the overlap distance between states, and the local
expansion rate of the map in that metric.

All functions are pure; no global state, safe to call from worker threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import ClassVar

# Finite coordinates above this magnitude are indistinguishable from the
# point at infinity at double precision (the overlap distance to it rounds
# to zero), so they collapse to the tagged infinity element.  This keeps
# every stored value a normal float pair and makes the map total.
SNAP_MAGNITUDE = 1e150

# Default tolerance for treating two points as the same, measured in
# sqrt(overlap_distance) units (i.e. a chordal length on the unit sphere).
POINT_TOL = 1e-9


class SpherePoint:
    """A point of the extended complex plane: a pure qubit state up to phase.

    Either a finite complex coordinate or the distinguished point at
    infinity (``SpherePoint.INFINITY``, also exported as ``INF``).  The
    coordinate 0 is the basis state |1>, infinity is |0>.

    Finite values always have normal floating-point components: NaN input is
    rejected, and any magnitude above ``SNAP_MAGNITUDE`` (including genuine
    float infinities produced by overflow) collapses to the tagged infinity.
    Equality is tolerance-based through :func:`overlap_distance`, never
    bitwise, so instances are deliberately unhashable.
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
        if abs(value) > SNAP_MAGNITUDE:
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

    def isclose(self, other, tol: float = POINT_TOL) -> bool:
        """True when the chordal separation sqrt(overlap) is within tol."""
        return overlap_distance(self, other) <= tol * tol

    def __eq__(self, other) -> bool:
        try:
            other = as_point(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.isclose(other)

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


@dataclass(frozen=True)
class MapParam:
    """The complex parameter of the one-step map, p = tan(x) * exp(i*phi).

    Any finite complex p is a valid parameter; the angle form exists only
    when tan(x) is finite, which :meth:`from_angles` enforces.
    """

    p: complex

    # from_angles rejects |cos x| below this: floats never land exactly on
    # x = pi/2 mod pi, so a documented numerical band stands in for it.
    ANGLE_TOL: ClassVar[float] = 1e-12

    def __post_init__(self):
        p = complex(self.p)
        if not (math.isfinite(p.real) and math.isfinite(p.imag)):
            raise ValueError("map parameter must be a finite complex number")
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
    This is one step of :func:`_extend_orbit`.
    """
    if z.__class__ is not SpherePoint:  # as_point, without a call in the common case
        z = as_point(z)
    value = _extend_orbit(param.p, [z._value], 2)[1]
    if value is None:
        return INF
    # the step has already snapped the value: skip the constructor's checks
    out = object.__new__(SpherePoint)
    out._value = value
    return out


def _extend_orbit(p: complex, vals: list, goal: int) -> list:
    """Append map images to the orbit ``vals`` until it holds ``goal`` values.

    An orbit value is the ``_value`` of a :class:`SpherePoint`: a complex
    number of modulus at most ``SNAP_MAGNITUDE``, or None for infinity.
    ``vals`` (not empty) is extended in place and returned; the branch
    constants and the image of infinity are computed once per call.  For
    |p| > 1 numerator and denominator are rescaled by 1/|p| so huge
    parameters cannot overflow the numerator.  A zero denominator and any
    value not at most ``SNAP_MAGNITUDE`` in modulus (NaN included) go to
    infinity.
    """
    snap = SNAP_MAGNITUDE
    pc = p.conjugate()
    inf_image = None
    if p:
        inf_image = -1.0 / pc
        if not abs(inf_image) <= snap:
            inf_image = None
    size = abs(p)
    big = size > 1.0
    if big:
        s = 1.0 / size
        q = p * s
        qc = q.conjugate()
    z = vals[-1]
    append = vals.append
    n = len(vals)
    while n < goal:
        n += 1
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
                if not abs(z) <= snap:
                    z = None
        append(z)
    return vals


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
    1/|p|, as in :func:`_extend_orbit`, so huge parameters cannot overflow
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
