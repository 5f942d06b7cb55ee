import cmath
import math
import warnings

import numpy as np
import pytest

from qubit_chaos.roots import (
    RootFindingError,
    _newton_polygon_start,
    aberth_roots,
    fixed_point_polynomial,
    map_polynomials,
    polyval,
)
from qubit_chaos.sphere import INF, MapParam, apply_map


def assert_same_roots(found, expected, tol=1e-8):
    found = sorted(found, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    expected = sorted(expected, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    assert len(found) == len(expected)
    for f, e in zip(found, expected):
        assert abs(f - e) < tol, (f, e)


def test_known_factorizations():
    # (z-1)(z-2)(z-3) = -6 + 11 z - 6 z^2 + z^3
    assert_same_roots(aberth_roots([-6, 11, -6, 1]), [1, 2, 3])
    # roots of unity
    n = 7
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0], coeffs[n] = -1, 1
    assert_same_roots(aberth_roots(coeffs),
                      [np.exp(2j * np.pi * k / n) for k in range(n)])


def test_zero_roots_deflated():
    # z^2 (z - 5)
    assert_same_roots(aberth_roots([0, 0, -5, 1]), [0, 0, 5])


def test_matches_numpy_roots_on_random_polynomials():
    rng = np.random.default_rng(41)
    for deg in (3, 5, 9, 17):
        for _ in range(10):
            coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            ours = aberth_roots(coeffs)
            reference = np.roots(coeffs[::-1])
            # greedy nearest matching
            ref = list(reference)
            for r in ours:
                j = int(np.argmin([abs(r - s) for s in ref]))
                assert abs(r - ref[j]) < 1e-7 * (1 + abs(r))
                ref.pop(j)
            # the same polynomial with its coefficients graded from 1e-100 to
            # 1e100, or back: every root is scaled by 10**(200/deg) or its
            # inverse, and must come out to relative accuracy
            for scale in (1e100, 1e-100):
                graded = coeffs * scale ** np.linspace(-1.0, 1.0, deg + 1)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    ours = aberth_roots(graded)
                ref = list(np.roots(graded[::-1]))
                for r in ours:
                    j = int(np.argmin([abs(r - s) for s in ref]))
                    assert abs(r - ref[j]) < 1e-7 * abs(ref[j]), (deg, scale, r, ref[j])
                    ref.pop(j)


def test_newton_polygon_start_radii():
    # z^3 - 8: one hull edge, three points on the circle of radius 2
    start = _newton_polygon_start(np.array([-8, 0, 0, 1], dtype=complex))
    assert np.allclose(np.abs(start), 2.0, rtol=1e-15)
    # 1e-300 + z^3 + 1e-300 z^6: two edges, three roots near 1e-100 and
    # three near 1e100, where the Cauchy circle put all six at 1e300
    start = _newton_polygon_start(np.array([1e-300, 0, 0, 1, 0, 0, 1e-300], dtype=complex))
    assert np.allclose(np.abs(start), [1e-100] * 3 + [1e100] * 3, rtol=1e-13)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        roots = aberth_roots([1e-300, 0, 0, 1, 0, 0, 1e-300])
    assert np.allclose(np.sort(np.abs(roots)), [1e-100] * 3 + [1e100] * 3, rtol=1e-13)


@pytest.mark.parametrize("call, message", [
    (lambda: map_polynomials(0.3 + 0.1j, 0), "composition depth must be >= 1"),
    (lambda: aberth_roots([]), "nonempty 1-d"),
    (lambda: aberth_roots(np.ones((2, 3))), "nonempty 1-d"),
], ids=["depth-0", "empty", "2-d"])
def test_invalid_inputs_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_nonconvergence_raises():
    rng = np.random.default_rng(43)
    coeffs = rng.normal(size=11) + 1j * rng.normal(size=11)
    with pytest.raises(RootFindingError):
        aberth_roots(coeffs, max_iter=1)


def test_overflow_raises():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # z^3 + 1e300 starts at its root modulus 1e100, not at the Cauchy
        # radius 1e300 whose cube overflows
        roots = aberth_roots([1e300, 0, 0, 1])
        assert np.allclose(roots ** 3, -1e300, rtol=1e-13)
        # the roots of 1e-308 z^2 + 1e308 lie at modulus 1e308, where the
        # square in Horner evaluation overflows, and so does the reversed
        # derivative coefficient 2e308
        with pytest.raises(RootFindingError, match="overflowed"):
            aberth_roots([1e308, 0, 1e-308])


def test_horner_overflow_takes_the_reversed_ratio():
    # 1 + z^64 + 1e-200 z^65: the Horner sums at the root near -1e200
    # overflow, so its Newton ratio comes from the polynomial in 1/z
    coeffs = np.zeros(66, dtype=complex)
    coeffs[[0, 64, 65]] = 1.0, 1.0, 1e-200
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        roots = aberth_roots(coeffs)
    big = np.abs(roots) > 2.0
    assert big.sum() == 1
    assert abs(roots[big][0] + 1e200) <= 1e-13 * 1e200
    assert np.allclose(roots[~big] ** 64, -1.0, atol=1e-13)


# the benchmark's periodic-point parameters: p = 0 and every eighth cell
# centre of its population of the upper half-disk |p| <= 3
_UPPER = [cmath.rect(3.0 * math.sqrt((k + 0.5) / 8), math.pi * (s + 0.5) / 10)
          for k in range(8) for s in range(10)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fixed_point_solves_converge_in_few_sweeps(n):
    # from the Cauchy circle these took up to 113 sweeps at n = 5, and 302
    # at p = 1e-8, whose roots span many orders of magnitude
    params = [0j] + _UPPER[::8] + [1e-8] * (n == 5)
    for p in params:
        coeffs = fixed_point_polynomial(p, n)
        assert len(coeffs) == 2 ** n + 2
        # an exactly zero top coefficient (p = 0) is deflated
        assert len(aberth_roots(coeffs, max_iter=30)) == len(np.trim_zeros(coeffs, "b")) - 1, p


@pytest.mark.parametrize("p", [1e-8, 1e6, 1e8])
def test_degree_65_solves_at_extreme_parameters(p):
    # the start radii near 1e+-6..1e+-8 overflowed the degree-65 Horner sums
    coeffs = fixed_point_polynomial(p, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert len(aberth_roots(coeffs)) == 65


def _unscaled_fixed_point_polynomial(p, n):
    # the recurrence without the power-of-two start scale
    pc = complex(p).conjugate()
    num = np.array([p, 0.0, 1.0], dtype=complex)
    den = np.array([1.0, 0.0, -pc], dtype=complex)
    for _ in range(n - 1):
        n2, d2 = np.convolve(num, num), np.convolve(den, den)
        num, den = n2 + p * d2, d2 - pc * n2
        scale = max(np.abs(num).max(), np.abs(den).max())
        num /= scale
        den /= scale
    g = np.concatenate([num, [0.0]]) - np.concatenate([[0.0], den])
    return g / np.abs(g).max()


def test_start_scale_is_exact():
    # scaling the first level by a power of two changes no bit up to
    # |p| = 1e100, and beyond it keeps every coefficient finite
    rng = np.random.default_rng(53)
    params = [0j, 1 + 0j, 1j] + [cmath.rect(10.0 ** e, a) for e, a in
                                 zip(rng.uniform(-100, 100, 30), rng.uniform(-math.pi, math.pi, 30))]
    for p in params:
        for n in range(1, 6):
            ours, ref = fixed_point_polynomial(p, n), _unscaled_fixed_point_polynomial(p, n)
            assert np.array_equal(ours.view(float), ref.view(float)), (p, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for p in (1e150 + 1e150j, 1e200, -1e300j, 1.7e308):
            for n in range(1, 5):
                assert np.isfinite(fixed_point_polynomial(p, n)).all(), (p, n)


def test_map_polynomials_evaluate_to_composite():
    # oracle: the composed map evaluated point by point on the sphere
    rng = np.random.default_rng(47)
    for _ in range(20):
        param = MapParam(rng.normal() + 1j * rng.normal())
        num, den = map_polynomials(param.p, 3)
        z = rng.normal() + 1j * rng.normal()
        pt = z
        for _ in range(3):
            pt = apply_map(param, pt)
        expected = pt
        value = polyval(num, z) / polyval(den, z)
        assert not expected.is_infinity
        assert abs(value - expected.value) < 1e-9 * (1 + abs(value))


def test_fixed_point_polynomial_degree_and_infinity_root():
    # p = 0: infinity is a fixed point, so the top coefficient is exactly
    # zero, and the solve deflates it
    g0 = fixed_point_polynomial(0j, 1)
    assert len(g0) == 4 and g0[-1] == 0
    assert_same_roots(aberth_roots(g0), [0, 1])
    # p = 1: infinity is 2-periodic, not fixed; three finite fixed points
    g1 = fixed_point_polynomial(1 + 0j, 1)
    assert len(g1) == 4 and g1[-1] != 0  # full degree 2**1 + 1
    for r in aberth_roots(g1):
        img = apply_map(MapParam(1 + 0j), r)
        assert not img.is_infinity
        assert abs(img.value - r) < 1e-8
    # p = 0, n = 2: G = z^4 - z plus the root at infinity
    g2 = fixed_point_polynomial(0j, 2)
    assert len(g2) == 6 and g2[-1] == 0
    roots = aberth_roots(g2)
    w = np.exp(2j * np.pi / 3)
    assert_same_roots(roots, [0, 1, w, w.conjugate()])
