import cmath
import math

import numpy as np
import pytest

from qubit_chaos.sphere import (
    INF,
    SNAP_MAGNITUDE,
    MapParam,
    SpherePoint,
    _chart_step,
    _preferred_chart,
    _value_rate,
    apply_map,
    as_point,
    chordal_distance,
    overlap_distance,
    spherical_derivative,
)


def state_vector(pt):
    # independent route: the normalized 2-component state for a sphere point
    if pt.is_infinity:
        return np.array([1.0, 0.0], dtype=complex)
    z = pt.value
    n = 1.0 / math.sqrt(1.0 + abs(z) ** 2)
    return np.array([n * z, n], dtype=complex)


def random_points(rng, n, spread=1.0):
    vals = spread * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return [SpherePoint(v) for v in vals]


# ---------------------------------------------------------------------------
# the point type

def test_infinity_is_tagged():
    assert INF.is_infinity
    assert SpherePoint.INFINITY is INF
    with pytest.raises(ValueError):
        INF.value


def test_nan_rejected():
    with pytest.raises(ValueError):
        SpherePoint(complex(float("nan"), 0.0))


def test_huge_values_snap_to_infinity():
    assert SpherePoint(1e200 + 0j).is_infinity
    assert SpherePoint(complex(float("inf"), 1.0)).is_infinity
    assert not SpherePoint(SNAP_MAGNITUDE / 2).is_infinity


def test_equality_is_tolerance_based():
    assert SpherePoint(1.0 + 0j) == SpherePoint(1.0 + 1e-12j)
    assert SpherePoint(1.0 + 0j) != SpherePoint(1.0 + 1e-6j)
    assert SpherePoint(1.0) == 1.0
    assert INF == INF
    assert INF != SpherePoint(5.0)
    with pytest.raises(TypeError):
        hash(SpherePoint(0j))


# ---------------------------------------------------------------------------
# the map and its limits

def test_map_examples_p1():
    p = MapParam(1 + 0j)
    assert apply_map(p, 0).value == 1 + 0j
    assert apply_map(p, 1).is_infinity
    assert apply_map(p, INF).value == -1 + 0j


def test_map_examples_p0():
    p = MapParam(0j)
    assert apply_map(p, 2).value == 4 + 0j
    assert apply_map(p, INF).is_infinity


def test_infinity_limit_general():
    p = MapParam(0.4 - 1.3j)
    expected = -1.0 / p.p.conjugate()
    assert abs(apply_map(p, INF).value - expected) < 1e-15


def test_overflow_snaps_to_infinity():
    # squaring 1e100 overshoots the snap horizon at p=0
    assert apply_map(MapParam(0j), 1e100).is_infinity


def _division_apply_map(param, z):
    """apply_map before it became one step of the orbit loop: the same
    formula, validated through the SpherePoint constructor."""
    p = param.p
    z = as_point(z)
    if z.is_infinity:
        if p == 0:
            return INF
        return SpherePoint(-1.0 / p.conjugate())
    zv = z.value
    z2 = zv * zv
    if abs(p) <= 1.0:
        num = z2 + p
        den = 1.0 - p.conjugate() * z2
    else:
        s = 1.0 / abs(p)
        q = p * s
        num = s * z2 + q
        den = s - q.conjugate() * z2
    if den == 0:
        return INF
    out = num / den
    if math.isnan(out.real) or math.isnan(out.imag):
        return INF
    return SpherePoint(out)


def _bits(pt):
    return None if pt.is_infinity else (pt.value.real.hex(), pt.value.imag.hex())


def test_apply_map_equals_division_formula():
    # bit for bit, signs of zero included, on both branches of |p|
    rng = np.random.default_rng(41)
    params = [0j, complex(-0.0, -0.0), 1e-160, 1 + 0j, complex(0.5, -0.0), complex(-2.0, -0.0),
              1.0 - 1e-16, 1.0 + 2e-16, 1000j, 1e300 + 1e300j,
              *((rng.normal(size=30) + 1j * rng.normal(size=30)) * 10.0 ** rng.integers(-2, 3, 30))]
    for p in params:
        param = MapParam(p)
        pts = [INF, 0j, complex(-0.0, 0.0), complex(0.0, -0.0), -2.0, complex(-0.5, -0.0),
               1.0, -1j, 1e75, 1e150,
               *((rng.normal(size=40) + 1j * rng.normal(size=40)) * 10.0 ** rng.integers(-3, 4, 40))]
        for z in pts:
            assert _bits(apply_map(param, z)) == _bits(_division_apply_map(param, z)), (p, z)


def _largest_square_below_snap():
    x = math.sqrt(SNAP_MAGNITUDE)
    while x * x > SNAP_MAGNITUDE:
        x = math.nextafter(x, 0.0)
    while math.nextafter(x, math.inf) ** 2 <= SNAP_MAGNITUDE:
        x = math.nextafter(x, math.inf)
    return x


def test_map_step_edge_pins():
    # the image of infinity snaps: -1/conj(p) = -1e160 is past the snap
    assert apply_map(MapParam(1e-160), INF) is INF
    # a vanishing denominator: 1 - conj(1) * 1**2 == 0
    assert apply_map(MapParam(1.0), 1.0) is INF
    # at p = 0 the image is z**2 itself, kept up to the snap and dropped past it
    x = _largest_square_below_snap()
    below = apply_map(MapParam(0j), x)
    assert below.value == complex(x * x) and abs(below.value) <= SNAP_MAGNITUDE
    assert apply_map(MapParam(0j), math.nextafter(x, math.inf)) is INF


def test_map_is_total():
    rng = np.random.default_rng(7)
    params = [MapParam(v) for v in
              (rng.normal(size=40) + 1j * rng.normal(size=40))
              * 10.0 ** rng.integers(-3, 4, 40)]
    for param in params:
        specials = [SpherePoint(0j), SpherePoint(1.0), SpherePoint(-1.0),
                    SpherePoint(1j), SpherePoint(-1j), INF]
        if param.p != 0:
            # near the denominator roots z = +/- 1/sqrt(conj p)
            r = cmath.sqrt(1.0 / param.p.conjugate())
            specials += [SpherePoint(r), SpherePoint(-r)]
        pts = specials + random_points(rng, 20, spread=float(10.0 ** rng.integers(-2, 3)))
        for pt in pts:
            out = apply_map(param, pt)
            if not out.is_infinity:
                v = out.value
                assert math.isfinite(v.real) and math.isfinite(v.imag)
                assert abs(v) <= SNAP_MAGNITUDE


def test_unit_circle_invariant_at_p0():
    # |z| = 1 stays exactly on the circle up to rounding when p = 0
    p = MapParam(0j)
    rng = np.random.default_rng(11)
    for theta in rng.uniform(0, 2 * math.pi, 200):
        out = apply_map(p, cmath.exp(1j * theta))
        assert abs(abs(out.value) - 1.0) < 1e-15


def test_conjugation_equivariance():
    rng = np.random.default_rng(13)
    for _ in range(200):
        param = MapParam(rng.normal() + 1j * rng.normal())
        pt = SpherePoint(rng.normal() + 1j * rng.normal())
        lhs = apply_map(param.conjugate(), pt.conjugate())
        rhs = apply_map(param, pt).conjugate()
        assert overlap_distance(lhs, rhs) <= 1e-12
    # and through infinity
    param = MapParam(0.3 + 0.8j)
    assert overlap_distance(apply_map(param.conjugate(), INF),
                            apply_map(param, INF).conjugate()) <= 1e-12


# ---------------------------------------------------------------------------
# overlap distance

def test_overlap_examples():
    assert overlap_distance(0j, INF) == 1.0
    assert overlap_distance(1.0, -1.0) == pytest.approx(1.0, abs=1e-12)
    assert overlap_distance(0.5 + 0.5j, 0.5 + 0.5j) == 0.0
    z = 3.0 + 1.0j
    assert overlap_distance(z, INF) == pytest.approx(1.0 / (1.0 + abs(z) ** 2), rel=1e-12)


def test_overlap_matches_state_overlap():
    # oracle: 1 - |<psi1|psi2>|^2 from explicit normalized state vectors
    rng = np.random.default_rng(17)
    pts = random_points(rng, 30, spread=2.0) + [INF, SpherePoint(0j)]
    for a in pts:
        for b in pts:
            va, vb = state_vector(a), state_vector(b)
            expected = 1.0 - abs(np.vdot(va, vb)) ** 2
            assert overlap_distance(a, b) == pytest.approx(expected, abs=1e-12)


def test_overlap_range_and_symmetry():
    rng = np.random.default_rng(19)
    pts = random_points(rng, 40, spread=5.0) + [INF]
    for a in pts:
        for b in pts:
            d = overlap_distance(a, b)
            assert 0.0 <= d <= 1.0
            assert d == overlap_distance(b, a)


def test_overlap_huge_coordinates_no_overflow():
    a = SpherePoint(1e150 + 0j)
    b = SpherePoint(-1e150 + 0j)
    d = overlap_distance(a, b)
    assert 0.0 <= d <= 1.0
    assert overlap_distance(a, INF) == pytest.approx(0.0, abs=1e-200)
    assert chordal_distance(a, b) == pytest.approx(math.sqrt(d))


# ---------------------------------------------------------------------------
# spherical derivative

def test_expansion_zero_at_critical_points():
    for p in (0j, 1 + 0j, 0.3 - 2.2j):
        param = MapParam(p)
        assert spherical_derivative(param, 0j) == 0.0
        assert spherical_derivative(param, INF) == 0.0


def test_expansion_on_unit_circle_at_p0():
    param = MapParam(0j)
    rng = np.random.default_rng(23)
    for theta in rng.uniform(0, 2 * math.pi, 50):
        assert spherical_derivative(param, cmath.exp(1j * theta)) == pytest.approx(2.0, rel=1e-14)


def test_expansion_at_most_two_and_two_on_unit_circle():
    # the map is squaring followed by a rotation of the sphere, so the
    # expansion rate is that of z -> z**2: at most 2, and 2 on |z| = 1
    rng = np.random.default_rng(43)
    for _ in range(100):
        param = MapParam((rng.normal() + 1j * rng.normal()) * 10.0 ** rng.integers(-2, 3))
        for z in (rng.normal() + 1j * rng.normal()) * 10.0 ** rng.integers(-3, 4, 20):
            assert spherical_derivative(param, z) <= 2.0 + 1e-12
        for theta in rng.uniform(0, 2 * math.pi, 10):
            rate = spherical_derivative(param, cmath.exp(1j * theta))
            assert rate == pytest.approx(2.0, rel=1e-12)


def test_expansion_matches_finite_differences():
    # oracle: ratio of overlap distances under a small displacement
    rng = np.random.default_rng(29)
    h = 1e-7
    checked = 0
    for _ in range(120):
        param = MapParam(rng.normal() + 1j * rng.normal())
        z = (rng.normal() + 1j * rng.normal()) * rng.choice([0.3, 1.0, 3.0])
        dz = cmath.exp(1j * rng.uniform(0, 2 * math.pi)) * h * max(1.0, abs(z))
        a, b = SpherePoint(z), SpherePoint(z + dz)
        fa, fb = apply_map(param, a), apply_map(param, b)
        base = chordal_distance(a, b)
        if base == 0.0:
            continue
        ratio = chordal_distance(fa, fb) / base
        rate = spherical_derivative(param, a)
        assert ratio == pytest.approx(rate, rel=2e-5, abs=2e-5)
        checked += 1
    assert checked > 100


def test_expansion_chart_consistency():
    # the same point evaluated as z and as its inverted mirror must agree
    rng = np.random.default_rng(31)
    for _ in range(50):
        param = MapParam(rng.normal() + 1j * rng.normal())
        z = rng.normal() + 1j * rng.normal()
        if abs(z) < 1e-3:
            continue
        inner = spherical_derivative(param, z)
        mirrored = spherical_derivative(MapParam(-param.p.conjugate()), 1.0 / z)
        assert inner == pytest.approx(mirrored, rel=1e-12)


def _expansion_affine(p, z):
    """Reference rate at |z| <= 1 from the map's numerator/denominator pair,
    which carries p: the Wronskian is 2z(1+|p|**2), and both are rescaled
    by c = 1/sqrt(1+|p|**2)."""
    z2 = z * z
    c = 1.0 / math.hypot(1.0, abs(p))
    cp = c * p
    a = c * z2 + cp
    b = c - cp.conjugate() * z2
    az = abs(z)
    return 2.0 * az * (1.0 + az * az) / (abs(a) ** 2 + abs(b) ** 2)


def _chart_rate(p, v):
    """Reference :func:`spherical_derivative` at the orbit value v: outside
    the unit disk, and at infinity, in the chart w = 1/z, where the map has
    parameter -conj(p)."""
    if v is None:
        return _expansion_affine(-p.conjugate(), 0j)
    if abs(v) > 1.0:
        return _expansion_affine(-p.conjugate(), 1.0 / v)
    return _expansion_affine(p, v)


def test_value_rate_equals_chart_rate():
    # the p-free rate against the rate that carries p, 200 000 points in all
    rng = np.random.default_rng(59)
    n = 50_000
    for p in (1.0 + 0j, 0.3 + 0.3j, 2.0 + 0.7j, 1000j):
        z = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.uniform(-4, 4, n)
        for v in z.tolist():
            want = _chart_rate(p, v)
            assert abs(_value_rate(v) - want) <= 4e-15 * want, (p, v)
        assert _value_rate(0j) == _chart_rate(p, 0j) == 0.0
        assert _value_rate(None) == _chart_rate(p, None) == 0.0


def _step_derivative(p, coord, in_w, out_w):
    """The chart derivative before the chart step returned the image too,
    and before it rescaled |p| > 1 (where 1 + |p|**2 overflows past 1.3e154)."""
    pc = p.conjugate()
    c2 = coord * coord
    g = 1.0 + (p.real * p.real + p.imag * p.imag)
    if not in_w and not out_w:
        den = 1.0 - pc * c2
        return 2.0 * coord * g / (den * den)
    if not in_w and out_w:
        den = c2 + p
        return -2.0 * coord * g / (den * den)
    if in_w and not out_w:
        den = c2 - pc
        return -2.0 * coord * g / (den * den)
    den = 1.0 + p * c2
    return 2.0 * coord * g / (den * den)


def test_chart_step_image_and_derivative():
    # the image is the map's; the derivative keeps its bits at |p| <= 1 and
    # moves by a few ulp at |p| > 1, both into the image's preferred chart
    rng = np.random.default_rng(73)
    params = [0j, 1 + 0j, -1j, 0.5 - 0.2j, 1.0 + 2e-16, 2 + 0.7j, 1000j, 1e100 - 3e99j,
              *((rng.normal(size=60) + 1j * rng.normal(size=60)) * 10.0 ** rng.uniform(-2, 3, 60))]
    for p in params:
        param = MapParam(p)
        p = param.p
        pts = [INF, SpherePoint(0j), SpherePoint(1.0), SpherePoint(-1j), *(
            SpherePoint(z) for z in (rng.normal(size=40) + 1j * rng.normal(size=40))
            * 10.0 ** rng.uniform(-3, 3, 40))]
        for pt in pts:
            coord, in_w = _preferred_chart(pt)
            image = apply_map(param, pt)
            out_w = _preferred_chart(image)[1]
            got, deriv = _chart_step(p, coord, in_w, out_w)
            if not in_w and not out_w:
                assert got == image.value, (p, pt)  # the orbit loop's own division
            back = (INF if got == 0 else SpherePoint(1.0 / got)) if out_w else SpherePoint(got)
            assert chordal_distance(back, image) <= 1e-15, (p, pt)
            want = _step_derivative(p, coord, in_w, out_w)
            if abs(p) <= 1.0:
                assert (deriv.real.hex(), deriv.imag.hex()) == (want.real.hex(), want.imag.hex())
            else:
                assert abs(deriv - want) <= 4e-15 * abs(want), (p, pt)


def test_chart_step_huge_parameter():
    p = 1e200 * (0.6 + 0.8j)
    assert cmath.isnan(_step_derivative(p, 0.5 + 0.1j, False, False))
    image, deriv = _chart_step(p, 0.5 + 0.1j, False, False)
    assert cmath.isfinite(deriv) and deriv != 0
    assert image == apply_map(MapParam(p), 0.5 + 0.1j).value


def test_expansion_huge_parameter():
    rate = spherical_derivative(MapParam(1e200 * (0.6 + 0.8j)), 0.5 + 0.1j)
    assert math.isfinite(rate) and rate > 0


# ---------------------------------------------------------------------------
# parameters and angles

def test_from_angles_examples():
    assert MapParam.from_angles(math.pi / 4, 0.0).p == pytest.approx(1.0, rel=1e-12)
    assert MapParam.from_angles(0.0, 1.3).p == 0.0
    assert MapParam.from_angles(math.pi / 4, math.pi / 2).p == pytest.approx(1j, rel=1e-12)


def test_from_angles_rejects_half_pi():
    for x in (math.pi / 2, -math.pi / 2, 3 * math.pi / 2):
        with pytest.raises(ValueError):
            MapParam.from_angles(x, 0.0)


def test_angles_round_trip():
    rng = np.random.default_rng(37)
    for _ in range(50):
        x = rng.uniform(0.01, math.pi / 2 - 0.01)
        phi = rng.uniform(-math.pi, math.pi)
        param = MapParam.from_angles(x, phi)
        x2, phi2 = param.to_angles()
        assert x2 == pytest.approx(x, rel=1e-12)
        assert cmath.exp(1j * phi2) == pytest.approx(cmath.exp(1j * phi), rel=1e-12)


def test_param_rejects_nonfinite():
    with pytest.raises(ValueError):
        MapParam(complex(float("inf"), 0.0))


def test_as_point_coercion():
    assert as_point(2).value == 2 + 0j
    assert as_point(INF) is INF
    with pytest.raises(TypeError):
        as_point("not a point")
