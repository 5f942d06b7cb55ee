import cmath
import json
import math
import warnings
from itertools import islice

import numpy as np
import pytest

from qubit_chaos import orbits
from qubit_chaos.atlas import Window, render_julia, render_parameter_space
from qubit_chaos.kernel import EPS_MIN
from qubit_chaos.orbits import (
    ATTRACTING,
    ATTRACTING_CLASSES,
    EPS_POINT,
    NEUTRAL_IRRATIONAL,
    NEUTRAL_PARABOLIC,
    REPELLING,
    SEED_ROUNDOFF,
    SUPERATTRACTING,
    ConfigurationError,
    CriticalOrbitResult,
    CriticalReport,
    LyapunovEstimate,
    _cycle_defect,
    _make_cycle_unchecked,
    _polish_periodic_point,
    _reduce_period,
    classify_basin,
    classify_multiplier,
    critical_orbits,
    cycle_multiplier,
    detect_cycle,
    find_periodic_points,
    lyapunov_derivative,
    lyapunov_overlap,
    make_cycle,
    periodic_cycles,
)
from qubit_chaos.roots import RootFindingError, aberth_roots, fixed_point_polynomial
from qubit_chaos.sphere import (
    INF,
    MapParam,
    Orbit,
    SpherePoint,
    _chart_step,
    _fit_slope,
    _orbit,
    _preferred_chart,
    _value_rate,
    apply_map,
    as_point,
    chordal_distance,
    iterate_orbit,
    overlap_distance,
    spherical_derivative,
)

P0 = MapParam(0j)
P1 = MapParam(1 + 0j)
OMEGA = cmath.exp(2j * math.pi / 3)


def contains(points, target, tol=1e-9):
    return any(chordal_distance(pt, target) <= tol for pt in points)


# ---------------------------------------------------------------------------
# orbits

def test_iterate_orbit_example_p1():
    orbit = iterate_orbit(P1, 0j, 4)
    expected = [SpherePoint(0j), SpherePoint(1.0), INF, SpherePoint(-1.0), INF]
    for got, want in zip(orbit.points, expected):
        assert overlap_distance(got, want) == 0.0


def test_iterate_orbit_example_p0():
    orbit = iterate_orbit(P0, 2.0, 3)
    assert [pt.value for pt in orbit.points] == [2, 4, 16, 256]


def test_orbit_consistency():
    rng = np.random.default_rng(3)
    param = MapParam(0.2 + 0.4j)
    orbit = iterate_orbit(param, rng.normal() + 1j * rng.normal(), 200)
    for a, b in zip(orbit.points, orbit.points[1:]):
        assert overlap_distance(apply_map(param, a), b) <= 1e-12


def test_orbit_from_fixed_point_is_constant():
    orbit = iterate_orbit(P0, 1.0, 10)
    assert all(pt.value == 1.0 for pt in orbit.points)


# ---------------------------------------------------------------------------
# cycle detection

def test_detect_cycle_p1():
    cycle = detect_cycle(iterate_orbit(P1, 0j, 200))
    assert cycle.period == 2
    assert contains(cycle.points, SpherePoint(-1.0)) and contains(cycle.points, INF)
    assert cycle.stability == SUPERATTRACTING
    assert abs(cycle.multiplier) < 1e-10


def test_detect_cycle_fixed_point():
    cycle = detect_cycle(iterate_orbit(P0, 0.5, 200))
    assert cycle.period == 1
    assert contains(cycle.points, SpherePoint(0j))


def test_detect_cycle_none_when_orbit_wanders():
    # no attracting cycle exists at this parameter; the orbit never settles
    orbit = iterate_orbit(MapParam(1.2j), 0.3 + 0.2j, 400)
    assert detect_cycle(orbit) is None


def test_detect_cycle_withholds_roundoff_drift():
    # a seed on the unit circle at p = 0 should never converge, but its
    # float orbit drifts off the circle (modulus error doubles per step)
    # and collapses onto an attractor around step 60; the expansion
    # certificate refuses to attribute that landing to the seed
    orbit = iterate_orbit(P0, cmath.exp(1j), 400)
    tail = orbit.points[-1]
    assert tail == SpherePoint(0j) or tail.is_infinity  # drift is real
    assert detect_cycle(orbit) is None                  # and disowned


def test_detect_cycle_requires_long_orbit():
    with pytest.raises(ValueError):
        detect_cycle(iterate_orbit(P1, 0j, 100), max_period=64)


def test_detect_cycle_minimality():
    # a fixed point is not reported as period 2, 4, ...
    cycle = detect_cycle(iterate_orbit(MapParam(0.1 + 0.1j), 0j, 300))
    assert cycle.period == 1


# ---------------------------------------------------------------------------
# periodic points (polynomial route)

def test_fixed_points_p0():
    pts = find_periodic_points(P0, 1)
    assert len(pts) == 3
    for want in (SpherePoint(0j), SpherePoint(1.0), INF):
        assert contains(pts, want)


def test_period_two_set_p0():
    pts = find_periodic_points(P0, 2)
    assert len(pts) == 5
    for want in (SpherePoint(0j), SpherePoint(1.0), INF,
                 SpherePoint(OMEGA), SpherePoint(OMEGA.conjugate())):
        assert contains(pts, want)


def test_periodic_points_satisfy_return_residual():
    rng = np.random.default_rng(7)
    for _ in range(12):
        param = MapParam(rng.normal() + 1j * rng.normal())
        n = int(rng.integers(1, 4))
        pts = find_periodic_points(param, n)
        assert len(pts) >= 2
        for pt in pts:
            end = pt
            for _ in range(n):
                end = apply_map(param, end)
            assert overlap_distance(end, pt) < 1e-9


def test_periodic_points_count_bound():
    rng = np.random.default_rng(11)
    for _ in range(10):
        param = MapParam(rng.normal() + 1j * rng.normal())
        n = int(rng.integers(1, 5))
        assert len(find_periodic_points(param, n)) <= 2 ** n + 1


def test_n_max_guard():
    with pytest.raises(ValueError):
        find_periodic_points(P0, 5)
    # raising the guard explicitly is allowed
    pts = find_periodic_points(P0, 5, n_max=5)
    assert len(pts) <= 2 ** 5 + 1


def test_detected_cycle_appears_among_periodic_points():
    # dual route: orbit detection vs. polynomial solve
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(40):
        param = MapParam(rng.normal(scale=0.8) + 1j * rng.normal(scale=0.8))
        report = critical_orbits(param, max_iter=3000)
        for res in report.critical:
            cyc = res.cycle
            if cyc is None or cyc.period > 4 or not cyc.is_attracting:
                continue
            pts = find_periodic_points(param, cyc.period)
            for cp in cyc.points:
                assert contains(pts, cp, tol=1e-6)
            checked += 1
    assert checked >= 10


# ---------------------------------------------------------------------------
# multipliers and stability

def test_multiplier_examples_p0():
    lam, cls = cycle_multiplier(P0, [SpherePoint(1.0)])
    assert lam == pytest.approx(2.0, abs=1e-12)
    assert cls == REPELLING
    lam, cls = cycle_multiplier(P0, [SpherePoint(0j)])
    assert abs(lam) <= 1e-12 and cls == SUPERATTRACTING
    lam, cls = cycle_multiplier(P0, [INF])
    assert abs(lam) <= 1e-12 and cls == SUPERATTRACTING
    lam, cls = cycle_multiplier(P0, [SpherePoint(OMEGA), SpherePoint(OMEGA.conjugate())])
    assert lam == pytest.approx(4.0, abs=1e-9)
    assert cls == REPELLING


def test_multiplier_superattracting_cycle_through_infinity():
    lam, cls = cycle_multiplier(P1, [SpherePoint(-1.0), INF])
    assert abs(lam) < 1e-10
    assert cls == SUPERATTRACTING
    # finite-difference oracle in the inverted chart around infinity:
    # w -> 1/F(F(1/w)) near w = 0 should be locally superattracting
    h = 1e-6
    w_img = apply_map(P1, apply_map(P1, SpherePoint(1.0 / h)))
    assert 1.0 / abs(w_img.value) < 1e-4


def test_multiplier_rejects_non_cycles():
    with pytest.raises(ValueError):
        cycle_multiplier(P0, [SpherePoint(0.5)])
    with pytest.raises(ValueError):
        cycle_multiplier(P0, [SpherePoint(1.0), SpherePoint(1.0 + 1e-12j)])


def test_classification_bands():
    assert classify_multiplier(0j) == SUPERATTRACTING
    assert classify_multiplier(0.5 + 0j) == ATTRACTING
    assert classify_multiplier(3j) == REPELLING
    assert classify_multiplier(-1 + 0j) == NEUTRAL_PARABOLIC
    assert classify_multiplier(cmath.exp(2j * math.pi / 7)) == NEUTRAL_PARABOLIC
    # golden-ratio angle: no low-order root of unity
    assert classify_multiplier(cmath.exp(2j * math.pi * 0.381966011250105)) == \
        NEUTRAL_IRRATIONAL


def test_make_cycle_canonical_rotation():
    cyc = make_cycle(P1, [INF, SpherePoint(-1.0)])
    assert cyc.points[0] == SpherePoint(-1.0)  # finite before infinity


# ---------------------------------------------------------------------------
# critical orbits and hyperbolicity

def test_critical_report_p1():
    report = critical_orbits(P1)
    assert report.hyperbolic is True
    assert len(report.cycles) == 1
    cyc = report.cycles[0]
    assert cyc.period == 2 and cyc.stability == SUPERATTRACTING
    for res in report.critical:
        assert res.converged and res.transient <= 5


def test_critical_report_p0():
    report = critical_orbits(P0)
    assert report.hyperbolic is True
    assert len(report.cycles) == 2
    assert {c.period for c in report.cycles} == {1}
    starts = {(res.start.is_infinity) for res in report.critical}
    assert starts == {True, False}
    for res in report.critical:
        assert res.transient == 0


def test_critical_report_nonconvergent_withholds_verdict():
    report = critical_orbits(MapParam(1.2j), max_iter=2000)
    assert report.hyperbolic is None
    assert report.verdict_withheld
    assert all(not res.converged for res in report.critical)


def test_critical_report_misiurewicz_parameter():
    # at p = i the critical orbits land exactly on the repelling fixed point 1
    report = critical_orbits(MapParam(1j))
    assert report.hyperbolic is False
    assert all(res.converged for res in report.critical)
    assert report.cycles[0].stability == REPELLING


def test_critical_report_long_transient_period_42():
    # both critical orbits need thousands of steps to reach a period-42
    # cycle; the transient is the first orbit point within eps of the cycle
    report = critical_orbits(MapParam(-0.49608783851868493 + 0.4467536251564276j))
    assert report.hyperbolic is True
    assert [(r.transient, r.steps, r.cycle.period) for r in report.critical] == [
        (2738, 4127, 42), (3908, 8255, 42)]


@pytest.mark.parametrize("kwargs", [
    {"eps": math.nan}, {"eps": 0.0}, {"eps": 2.0}, {"eps": 1.0}, {"eps": -1e-9},
    {"eps": math.inf}, {"max_period": 0}, {"max_period": -3}, {"max_iter": -1},
])
def test_critical_orbits_argument_guards(kwargs):
    # unchecked at p = 1, eps=nan, eps=0 and max_period=0 ran 10 000 steps
    # and withheld the verdict, eps=2 reported a period-1 cycle where the
    # orbits land on the 2-cycle {-1, inf}, and eps=-1e-9 died in math.log
    with pytest.raises(ValueError):
        critical_orbits(P1, **kwargs)


def test_critical_orbits_refuses_a_budget_below_one_tail_scan():
    # the first tail scan reads 2*max_period steps: unchecked, max_iter=0 at
    # p = 0.3+0.3i ran both orbits 128 steps and reported the orbit of
    # infinity converged at step 128 with transient 54
    param = MapParam(0.3 + 0.3j)
    for max_iter, max_period in ((0, 64), (7, 4)):
        with pytest.raises(ValueError, match=rf"max_iter must be at least "
                           rf"2\*max_period = 2\*{max_period}, got {max_iter}$"):
            critical_orbits(param, max_iter=max_iter, max_period=max_period)
    report = critical_orbits(param, max_iter=8, max_period=4)
    assert [r.steps for r in report.critical] == [8, 8]


@pytest.mark.parametrize("kwargs", [
    {"eps": math.nan}, {"eps": 0.0}, {"eps": 2.0}, {"eps": -1e-9}, {"max_period": 0},
])
def test_detect_cycle_argument_guards(kwargs):
    with pytest.raises(ValueError):
        detect_cycle(iterate_orbit(P1, 0j, 200), **kwargs)


def _sphere_point_cycle(param, pts, eps, max_period):
    """detect_cycle before it ran on coordinates: the lag scan, the
    certificate and the cycle built from sphere points."""
    n = len(pts)
    for q in range(1, max_period + 1):
        if all(overlap_distance(pts[n - 1 - k], pts[n - 1 - k - q]) < eps * eps
               for k in range(q)):
            limit = math.log(eps / SEED_ROUNDOFF)
            log_e = 0.0
            for pt in pts[: n - q]:
                if log_e > limit:
                    return None
                rate = spherical_derivative(param, pt)
                log_e += math.log(rate) if rate > 0.0 else -math.inf
            if log_e > limit:
                return None
            return _make_cycle_unchecked(param, _polish_periodic_point(param, pts[n - q], q))
    return None


def _walked_certificate(prefix, eps):
    """orbits._expansion_certified before it stopped at a critical point:
    the whole prefix walked, a zero rate adding -inf to the log sum."""
    limit = math.log(eps / SEED_ROUNDOFF)
    log_e = 0.0
    for v in prefix:
        if log_e > limit:
            return False
        rate = _value_rate(v)
        log_e += math.log(rate) if rate > 0.0 else -math.inf
    return log_e <= limit


def test_certificate_stops_at_a_critical_point_with_the_same_verdict():
    rng = np.random.default_rng(53)
    prefixes = []
    for _ in range(60):
        p = complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-1.5, 0.5)
        for start in (0j, None):  # the critical orbits, through 0 and infinity
            prefixes.append(list(islice(_orbit(p, start), int(rng.integers(1, 400)))))
        orbit = list(islice(_orbit(p, complex(*rng.normal(size=2))), int(rng.integers(2, 400))))
        prefixes.append(orbit)
        for critical in (0j, None):  # a critical point hit mid-prefix
            hit = int(rng.integers(1, len(orbit)))
            prefixes.append(orbit[:hit] + [critical] + orbit[hit:])
    for _ in range(20):  # the unit circle at p = 0 doubles roundoff at every step
        circle = list(islice(_orbit(0j, cmath.exp(1j * rng.uniform(0, 2 * math.pi))), 120))
        prefixes.append(circle)
        prefixes.append(circle + [0j])  # refused before the critical point
        prefixes.append(circle[:5] + [None] + circle)
    verdicts = {True: 0, False: 0}
    for eps in (1e-9, 1e-6, 1e-3):
        for prefix in prefixes:
            got = orbits._expansion_certified(prefix, eps)
            assert got == _walked_certificate(prefix, eps), prefix
            verdicts[got] += 1
    assert verdicts[True] > 100 and verdicts[False] > 50, verdicts


def _sphere_point_trace(param, start, max_iter, eps, max_period):
    """The critical-orbit loop before it ran on coordinates: one apply_map
    and one sphere point per step, the whole orbit scanned at each doubling."""
    pts = [start]
    cur = start
    goal = 2 * max_period + 1
    while True:
        while len(pts) < goal:
            cur = apply_map(param, cur)
            pts.append(cur)
        cycle = _sphere_point_cycle(param, pts, eps, max_period)
        if cycle is not None:
            transient = next((k for k, pt in enumerate(pts)
                              if any(chordal_distance(pt, cp) <= eps for cp in cycle.points)),
                             len(pts) - 1)
            return CriticalOrbitResult(start, True, cycle, transient, len(pts) - 1)
        if len(pts) > max_iter:
            return CriticalOrbitResult(start, False, None, None, len(pts) - 1)
        goal = min(2 * len(pts), max_iter + 1)


def _sphere_point_report(param, max_iter=10_000, eps=1e-9, max_period=64):
    results = [_sphere_point_trace(param, start, max_iter, eps, max_period)
               for start in (SpherePoint(0j), INF)]
    cycles = []
    for res in results:
        if res.cycle and not any(res.cycle.matches(c) for c in cycles):
            cycles.append(res.cycle)
    if all(r.converged for r in results):
        hyperbolic = all(r.cycle is not None and r.cycle.is_attracting for r in results)
    else:
        hyperbolic = None
    return CriticalReport(param, tuple(results), tuple(cycles), hyperbolic)


# every 4th cell centre of the benchmark's equal-area cells of |p| <= 3,
# upper half, and its conjugate
_CELLS = [cmath.rect(3.0 * math.sqrt((k + 0.5) / 8), math.pi * (s + 0.5) / 10)
          for k in range(8) for s in range(10)][::4]
_PERIOD_42 = -0.49608783851868493 + 0.4467536251564276j


@pytest.mark.parametrize("p", _CELLS + [c.conjugate() for c in _CELLS] + [
    0j, 1e-160, 1 + 0j, 1.5 + 0j, 1000j, 2 + 0.7j, _PERIOD_42])
def test_critical_orbits_equal_sphere_point_loop(p):
    param = MapParam(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert critical_orbits(param).to_json() == _sphere_point_report(param).to_json()


def test_critical_orbits_step_without_sphere_points(monkeypatch):
    # both critical orbits run the whole 10 000-step budget here; stepping
    # through apply_map would take 20 000 calls, and each doubling through
    # detect_cycle would build an Orbit of sphere points
    calls = {"apply_map": 0, "detect_cycle": 0}

    def counted(name):
        inner = getattr(orbits, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(orbits, name, counted(name))
    report = critical_orbits(MapParam(-0.9185586535436917 + 0.9185586535436919j))
    assert [(r.converged, r.steps) for r in report.critical] == [(False, 10_000)] * 2
    assert calls["apply_map"] < 100
    assert calls["detect_cycle"] == 0


def _return_map_polish(param, point, q, iters=40):
    """The polish before cycles were polished whole: Newton on the q-fold
    return map at one point, outside the unit disk in the inverted chart,
    where the map has parameter -conj(p)."""
    if point.is_infinity:
        return point
    if abs(point.value) > 1.0:
        out = _polish_affine(MapParam(-param.p.conjugate()), 1.0 / point.value, q, iters)
        if out is None:
            return point
        if out == 0:
            return INF
        return SpherePoint(1.0 / out)
    out = _polish_affine(param, point.value, q, iters)
    return point if out is None else SpherePoint(out)


def _polish_affine(param, c, q, iters):
    def residual(v):
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


def _return_map_z(param, c, q):
    """Value and z-chart derivative of the q-fold composite at z-coordinate
    c (the chart derivatives through ``_chart_step``, which at |p| > 1 may
    differ from the old ones in the last bits)."""
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
        deriv *= _chart_step(param.p, cur_coord, cur_w, nxt_w)[1]
        pt, cur_coord, cur_w = nxt, nxt_coord, nxt_w
    return pt.value, deriv


def _return_map_periodic_point(param, point, q):
    """_polish_periodic_point before cycles were polished whole: each point
    of the orbit on its own, the raw orbit where those do not close."""
    raw = [point]
    for _ in range(q - 1):
        raw.append(apply_map(param, raw[-1]))
    polished = _reduce_period([_return_map_polish(param, pt, q) for pt in raw])
    return polished if _cycle_defect(param, polished) is None else _reduce_period(raw)


def _assert_cycles_match(new, old):
    # the same cycle: period and class exactly, points to 1e-12 chordal,
    # multiplier to 1e-9 relative
    assert (new.period, new.stability) == (old.period, old.stability)
    for a, b in zip(new.points, old.points):
        assert chordal_distance(a, b) <= 1e-12, (new, old)
    assert abs(new.multiplier - old.multiplier) <= 1e-9 * abs(old.multiplier), (new, old)


def _assert_reports_match(new, old):
    assert new.hyperbolic == old.hyperbolic
    for a, b in zip(new.critical, old.critical):
        assert (a.converged, a.transient, a.steps) == (b.converged, b.transient, b.steps)
        assert (a.cycle is None) == (b.cycle is None)
        if a.cycle is not None:
            _assert_cycles_match(a.cycle, b.cycle)
    assert len(new.cycles) == len(old.cycles)
    for a, b in zip(new.cycles, old.cycles):
        _assert_cycles_match(a, b)


# the benchmark's 160 critical-orbit parameters: the centres of the
# equal-area cells of |p| <= 3, upper half, and their conjugates
_UPPER = [cmath.rect(3.0 * math.sqrt((k + 0.5) / 8), math.pi * (s + 0.5) / 10)
          for k in range(8) for s in range(10)]
_POPULATION = _UPPER + [c.conjugate() for c in _UPPER]


def _return_map_reports(params, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(orbits, "_polish_periodic_point", _return_map_periodic_point)
        return [critical_orbits(MapParam(p)) for p in params]


def test_cycle_polish_matches_return_map_polish_on_population(monkeypatch):
    old = _return_map_reports(_POPULATION, monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, want in zip(_POPULATION, old):
            _assert_reports_match(critical_orbits(MapParam(p)), want)
    assert sum(len(r.cycles) for r in old) > 100


@pytest.mark.parametrize("p", [_PERIOD_42, 0j, 1 + 0j, 1.5 + 0j, 0.3 + 0.3j, 0.5j,
                               -0.2 + 0.7j, 2 + 0.7j])
def test_cycle_polish_matches_return_map_polish(p, monkeypatch):
    [old] = _return_map_reports([p], monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_reports_match(critical_orbits(MapParam(p)), old)


def _per_root_periodic_points(param, n, eps=EPS_POINT):
    """find_periodic_points before the roots were grouped by orbit: every
    root's orbit polished on its own (here by the return-map polish), its
    first point kept, and the points deduplicated within eps."""
    coeffs = fixed_point_polynomial(param.p, n)
    raw = aberth_roots(coeffs)
    found = [INF] * (len(coeffs) - 1 - len(raw))
    for r in raw:
        found.append(_return_map_polish(param, SpherePoint(r), n))
    unique = []
    for pt in found:
        if all(chordal_distance(pt, u) > eps for u in unique):
            unique.append(pt)
    unique.sort(key=orbits._point_key)
    return unique


def _per_root_periodic_cycles(param, n):
    """periodic_cycles before the roots were grouped by orbit: the points of
    :func:`_per_root_periodic_points` chained into cycles by matching each
    forward image against every point."""
    pts = _per_root_periodic_points(param, n)
    used = [False] * len(pts)

    def lookup(target):
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
    cycles.sort(key=lambda c: (c.period,) + orbits._point_key(c.points[0]))
    return cycles


def _assert_cycle_sets_match(new, old):
    # as sets: cycles (and the points of a cycle) whose sort keys tie to
    # within an ulp may come in either order
    assert len(new) == len(old)
    rest = list(old)
    for a in new:
        [b] = [c for c in rest if c.matches(a, tol=1e-12) and a.matches(c, tol=1e-12)]
        rest.remove(b)
        assert (a.period, a.stability) == (b.period, b.stability)
        assert abs(a.multiplier - b.multiplier) <= 1e-9 * abs(b.multiplier), (a, b)


# the benchmark's periodic_cycles parameters, and p = i
_CYCLE_PARAMS = [0j] + _UPPER[::8] + [1j]


@pytest.mark.parametrize("p", _CYCLE_PARAMS)
def test_periodic_cycles_polish_matches_return_map_polish(p):
    # n = 1..5 against the per-root route with the return-map polish
    param = MapParam(p)
    old = [_per_root_periodic_cycles(param, n) for n in range(1, 6)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        new = [periodic_cycles(param, n, n_max=5) for n in range(1, 6)]
    for n, got, want in zip(range(1, 6), new, old):
        assert sum(c.period for c in got) == 2 ** n + 1
        _assert_cycle_sets_match(got, want)


# the Moebius function at 1..5
_MOBIUS = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1}


@pytest.mark.parametrize("p", _CYCLE_PARAMS)
def test_periodic_cycles_count_each_exact_period(p):
    # f^d has 2**d + 1 fixed points, so Moebius inversion gives the number
    # of points of exact period d
    param = MapParam(p)
    for n in range(1, 6):
        cycles = periodic_cycles(param, n, n_max=5)
        assert all(n % c.period == 0 for c in cycles)
        for d in (d for d in range(1, n + 1) if n % d == 0):
            want = sum(_MOBIUS[d // e] * (2 ** e + 1) for e in range(1, d + 1) if d % e == 0)
            assert sum(c.period for c in cycles if c.period == d) == want, (n, d)


@pytest.mark.parametrize("p", [0j, 0.3 + 0.3j])
def test_periodic_cycles_polish_each_cycle_once(p, monkeypatch):
    # counted at the module attribute the benchmark's polish hook wraps;
    # polishing every root's orbit took 32 calls at 0 and 33 at 0.3+0.3i
    calls = 0
    inner = orbits._polish_periodic_point

    def counted(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    monkeypatch.setattr(orbits, "_polish_periodic_point", counted)
    cycles = periodic_cycles(MapParam(p), 5, n_max=5)
    assert calls == len(cycles) == 9


def test_periodic_points_distinct_when_a_root_is_far_from_its_point(monkeypatch):
    # a second copy of every root, 1e-8 away, is not claimed by the cycle
    # through the first; it seeds a polish of a cycle already found, which
    # must add nothing
    inner = orbits.aberth_roots
    monkeypatch.setattr(orbits, "aberth_roots", lambda c: np.concatenate([inner(c), inner(c) + 1e-8]))
    param = MapParam(0.3 + 0.3j)
    for n in (1, 2, 3):
        assert len(find_periodic_points(param, n)) == 2 ** n + 1
        assert sum(c.period for c in periodic_cycles(param, n)) == 2 ** n + 1


@pytest.mark.parametrize("p", [0.5 + 0.5j, 1.2 - 0.3j, -0.8 + 1.1j, 2 + 0.7j])
def test_period_six_solves(p):
    # the benchmark's period-6 solves, which failed while Aberth started on
    # the Cauchy circle: the degree-65 coefficients overflowed in Horner
    # evaluation or the iteration hit its sweep cap
    param = MapParam(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        points = find_periodic_points(param, 6, n_max=6)
        cycles = periodic_cycles(param, 6, n_max=6)
    assert len(points) == 2 ** 6 + 1
    # the Moebius count: 3 points of period 1, 5 - 3 = 2 of period 2 (one
    # cycle), 9 - 3 = 6 of period 3 (two) and 65 - 3 - 2 - 6 = 54 of
    # period 6 (nine)
    periods = [c.period for c in cycles]
    assert {d: periods.count(d) for d in set(periods)} == {1: 3, 2: 1, 3: 2, 6: 9}
    for pt in points:
        image = pt
        for _ in range(6):
            image = apply_map(param, image)
        assert chordal_distance(image, pt) <= 1e-12, pt


def _index_sum_miss(cycles, n):
    """|sum q / (1 - lam**(n/q)) - 1| over the cycles of a period-n solve:
    the rational fixed-point formula (Milnor, Dynamics in One Complex
    Variable, 3rd ed., 2006, section 12) applied to f^n, whose fixed points
    on a q-cycle of multiplier lam each have multiplier lam**(n/q)."""
    return abs(sum(c.period / (1 - c.multiplier ** (n // c.period)) for c in cycles) - 1)


def _assert_complete_solve(param, n):
    # 2**n + 1 points, each within 1e-12 of its f^n image, and cycles whose
    # multipliers satisfy the rational fixed-point formula
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        points = find_periodic_points(param, n, n_max=n)
        cycles = periodic_cycles(param, n, n_max=n)
    assert len(points) == sum(c.period for c in cycles) == 2 ** n + 1
    for pt in points:
        image = pt
        for _ in range(n):
            image = apply_map(param, image)
        assert chordal_distance(image, pt) <= 1e-12, pt
    assert _index_sum_miss(cycles, n) <= 1e-12
    return points


@pytest.mark.parametrize("p", [1e-8, 1e6, 1e8])
def test_period_six_solves_at_extreme_parameters(p):
    # the start radii near 1e+-6..1e+-8 overflowed the degree-65 Horner sums
    _assert_complete_solve(MapParam(p), 6)


# n = 7 at this parameter carried a leading coefficient of G_7 below the
# 1e-12 trim once used here, though f^7(inf) lies 0.44 from inf: the solve
# refused as trimmed, and without the refusal returned 136 points, the worst
# 0.99 chordal from its f^7 image, where 129 exist
_P_UNCLOSED = 0.6923106688875231 - 0.6979346744286996j


@pytest.mark.parametrize("p", [_P_UNCLOSED, 1 + 0j], ids=["unclosed", "one"])
def test_period_seven_solves_close(p):
    _assert_complete_solve(MapParam(p), 7)


@pytest.mark.parametrize("p", [0j, 0.3 + 0.3j, 1j, 1.5 + 0j, 2 + 0.7j])
def test_periodic_cycles_satisfy_the_fixed_point_formula(p):
    # at p = 0 the sum is exactly 2 + (2**n - 1) / (1 - 2**n) = 1
    for n in range(1, 6):
        assert _index_sum_miss(periodic_cycles(MapParam(p), n, n_max=5), n) <= 1e-12, n


def _three_periodic_infinity_parameter():
    """A non-real p at which infinity is 3-periodic: f(inf) = -1/conj(p), so
    f^3(inf) = inf exactly when conj(p) f(-1/conj(p))**2 = 1, which clears
    to h(p) = (1 + p conj(p)**2)**2 - conj(p) (conj(p) - 1)**2 = 0.  h is
    not holomorphic, so Newton's step solves a dp + b conj(dp) = -h with
    the Wirtinger derivatives a = dh/dp and b = dh/dconj(p)."""
    p = -0.064 + 0.654j
    for _ in range(8):
        pc = p.conjugate()
        t = 1 + p * pc * pc
        h = t * t - pc * (pc - 1) ** 2
        a = 2 * t * pc * pc
        b = 4 * t * p * pc - (pc - 1) * (3 * pc - 1)
        p += (b * h.conjugate() - a.conjugate() * h) / (abs(a) ** 2 - abs(b) ** 2)
    return p


def test_three_periodic_infinity_is_found_without_an_exact_zero():
    p = _three_periodic_infinity_parameter()
    pc = p.conjugate()
    w = (1 / pc ** 2 + p) / (1 - 1 / pc)  # f(-1/conj(p))
    assert abs(pc * w * w - 1) <= 1e-15 and abs(p.imag) > 0.5
    # roundoff leaves G_3's top coefficient nonzero, and it is kept:
    # infinity is a root of huge modulus, not a deflated one, and the polish
    # ends it within roundoff of w = 0, which is infinity itself
    g = fixed_point_polynomial(p, 3)
    assert len(g) == 2 ** 3 + 2 and g[-1] != 0
    for n in (3, 6):
        points = _assert_complete_solve(MapParam(p), n)
        assert sum(pt.is_infinity for pt in points) == 1, n
        cycles = periodic_cycles(MapParam(p), n, n_max=n)
        assert [c.period for c in cycles if any(pt.is_infinity for pt in c.points)] == [3], n


@pytest.mark.parametrize("solve", [find_periodic_points, periodic_cycles])
def test_periodic_points_that_do_not_close_raise(monkeypatch, solve):
    # G_7 with its top coefficients below 1e-12 zeroed, as the old trim
    # did, claims infinity twice, though f^7(inf) lies 0.44 from inf; the
    # polish from infinity cannot close and the solve refuses
    inner = orbits.fixed_point_polynomial

    def trimmed(p, n):
        c = inner(p, n).copy()
        assert np.all(np.abs(c[-2:]) < 1e-12)
        c[-2:] = 0
        return c

    monkeypatch.setattr(orbits, "fixed_point_polynomial", trimmed)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RootFindingError, match="n=7"):
            solve(MapParam(_P_UNCLOSED), 7, n_max=7)


@pytest.mark.parametrize("solve", [find_periodic_points, periodic_cycles])
def test_cycle_that_does_not_close_raises(monkeypatch, solve):
    # every root of the degree-129 solve, moved by 0.1, seeds an orbit the
    # polish cannot close; the polished cycles are checked under the map
    inner = orbits.aberth_roots
    monkeypatch.setattr(orbits, "aberth_roots", lambda c: inner(c) + 0.1)
    with pytest.raises(RootFindingError, match="n=7: points do not form a cycle"):
        solve(MapParam(_P_UNCLOSED), 7, n_max=7)


@pytest.mark.parametrize("solve", [find_periodic_points, periodic_cycles])
def test_failed_root_solve_names_the_parameter(monkeypatch, solve):
    def fail(coeffs):
        raise RootFindingError("Aberth iteration stalled")

    monkeypatch.setattr(orbits, "aberth_roots", fail)
    with pytest.raises(RootFindingError) as info:
        solve(MapParam(0.3 + 0.1j), 2)
    assert str(info.value) == (
        "periodic-point solve failed for p=(0.3+0.1j): Aberth iteration stalled")


def test_periodic_infinity_is_a_root():
    # an exactly zero top coefficient is infinity, deflated once: 0, and
    # the 2-cycle {inf, -1} at p = 1
    for p, n in ((0j, 3), (1 + 0j, 2), (1 + 0j, 4)):
        assert fixed_point_polynomial(p, n)[-1] == 0
        assert INF in find_periodic_points(MapParam(p), n), (p, n)


def test_critical_orbits_polish_cycles_in_linear_time(monkeypatch):
    # each cycle is polished whole, one chart step per point per Newton
    # iteration; the per-point return-map polish made 262 920 map steps here
    calls = 0
    inner = orbits.apply_map

    def counted(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    monkeypatch.setattr(orbits, "apply_map", counted)
    report = critical_orbits(MapParam(_PERIOD_42))
    assert [r.cycle.period for r in report.critical] == [42, 42]
    assert calls < 1000


def test_huge_parameter_cycle_has_a_finite_multiplier():
    # 1 + |p|**2 overflows here: the chart step rescales by 1/|p|
    param = MapParam(1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = critical_orbits(param)
        assert report.hyperbolic is True
        [cycle] = report.cycles
        assert cycle.period == 2 and cycle.stability == SUPERATTRACTING
        assert cmath.isfinite(cycle.multiplier)
        assert "NaN" not in report.to_json()
        raster = render_julia(param, Window(1e200, 1e199, 1e199, 8, 8))
    assert np.all(raster.period == 2)


@pytest.mark.parametrize("p", [0j, 1 + 0j, 1.5 + 0j, 1j, 1.2j, 0.3 + 0.3j, -0.2 + 0.7j,
                               0.5 + 0.5j, 2 + 0.7j, -1.1 - 0.4j])
def test_multiplier_modulus_is_product_of_rates(p):
    # the spherical derivative does not depend on the chart, so along a
    # cycle its product is the modulus of the chart-correct multiplier
    param = MapParam(p)
    cycles = list(critical_orbits(param).cycles)
    for n in (1, 2, 3):
        cycles += periodic_cycles(param, n)
    assert cycles
    for cycle in cycles:
        prod = math.prod(spherical_derivative(param, pt) for pt in cycle.points)
        assert abs(cycle.multiplier) == pytest.approx(prod, rel=1e-12, abs=1e-300), cycle


def test_at_most_two_attracting_or_neutral_cycles():
    rng = np.random.default_rng(17)
    for _ in range(60):
        param = MapParam(rng.normal() + 1j * rng.normal())
        report = critical_orbits(param, max_iter=3000)
        soft = [c for c in report.cycles if c.stability != REPELLING]
        assert len(soft) <= 2


def test_report_conjugation_symmetry():
    rng = np.random.default_rng(19)
    for _ in range(15):
        param = MapParam(rng.normal(scale=0.7) + 1j * rng.normal(scale=0.7))
        rep = critical_orbits(param, max_iter=3000)
        mirror = critical_orbits(param.conjugate(), max_iter=3000)
        conj = rep.conjugate()
        assert mirror.hyperbolic == conj.hyperbolic
        assert len(mirror.cycles) == len(conj.cycles)
        for a, b in zip(mirror.cycles, conj.cycles):
            assert a.period == b.period
            assert abs(a.multiplier - b.multiplier) <= 1e-12 * (1 + abs(a.multiplier))
            for pa, pb in zip(a.points, b.points):
                assert overlap_distance(pa, pb) <= 1e-12


def test_report_json_schema():
    doc = critical_orbits(P1).to_json_dict()
    assert doc["p"] == [1.0, 0.0]
    assert doc["hyperbolic"] is True
    assert len(doc["critical_orbits"]) == 2
    cyc = doc["cycles"][0]
    assert set(cyc) == {"period", "points", "multiplier", "class"}
    assert "inf" in cyc["points"]
    json.dumps(doc)  # round-trippable


# ---------------------------------------------------------------------------
# basin classification

def test_classify_basin_splits_disk_and_exterior():
    pts = np.array([0.3 + 0.1j, 0.5j, -0.7, 2.0, -1.5j, 3 + 3j])
    res = classify_basin(P0, pts)
    zero = next(i for i, c in enumerate(res.cycles)
                if any(pt == SpherePoint(0j) for pt in c.points))
    inf_ = next(i for i, c in enumerate(res.cycles)
                if any(pt.is_infinity for pt in c.points))
    assert list(res.labels) == [zero, zero, zero, inf_, inf_, inf_]
    assert np.all(res.steps >= 0)


def test_classify_basin_on_target_is_step_zero():
    res = classify_basin(P0, np.array([0j, np.inf + 0j]))
    assert list(res.steps) == [0, 0]
    assert res.labels[0] != res.labels[1]


def test_classify_basin_refuses_circle_seeds():
    rng = np.random.default_rng(29)
    pts = np.exp(1j * rng.uniform(0, 2 * math.pi, 50))
    res = classify_basin(P0, pts, max_iter=1000)
    assert np.all(res.labels == -1)
    assert np.all(res.steps == -1)
    # the certificate tripped: peak expansion far beyond the capture radius
    assert np.all(res.expansion_log_peak > math.log(1e-6 / 2.3e-16))


def test_classify_basin_certifies_near_circle_seeds():
    # 1e-3 away from the boundary: ~10 expanding steps, safely certifiable
    res = classify_basin(P0, np.array([0.999, 1.001]))
    assert -1 not in res.labels
    assert np.all(res.expansion_log_peak < math.log(1e-6 / 2.3e-16))


def test_classify_basin_explicit_cycles():
    cyc = make_cycle(P1, [SpherePoint(-1.0), INF])
    res = classify_basin(P1, np.array([0j, 0.1 + 0.1j]), cycles=[cyc])
    assert list(res.labels) == [0, 0]
    assert res.cycles == (cyc,)


def test_classify_basin_requires_targets():
    with pytest.raises(ConfigurationError):
        classify_basin(MapParam(1.2j), np.array([0.2 + 0.1j]))


def test_capture_front_ends_refuse_an_empty_target_list():
    # an empty list used to run: the raster came back with no pixel
    # captured and the classifier labeled every point -1
    win = Window.from_bounds(-1.0, 1.0, -1.0, 1.0, 4, 4)
    for cycles in ([], ()):
        with pytest.raises(ConfigurationError, match="no target cycles given at p="):
            render_julia(P1, win, max_iter=50, cycles=cycles)
        with pytest.raises(ConfigurationError, match="no target cycles given at p="):
            classify_basin(P1, win.grid(), cycles=cycles)
    for run in (lambda: render_julia(MapParam(1.2j), win, max_iter=50),
                lambda: classify_basin(MapParam(1.2j), win.grid())):
        with pytest.raises(ConfigurationError, match=r"^no attracting cycle found at "
                           r"p=1\.2j; supply target cycles explicitly$"):
            run()


def test_classify_basin_refuses_nan_points():
    # a NaN entry used to be filed as captured by infinity at step 0
    pts = np.array([complex(math.nan, 0.0), complex(math.nan, 1.0), math.inf, 0.5, 2.0])
    with pytest.raises(ValueError, match="2 of 5 points have a NaN part"):
        classify_basin(P0, pts)
    with pytest.raises(ValueError, match="1 of 1 points"):
        classify_basin(P0, complex(math.inf, math.nan))
    # an infinite part with no NaN still stands for infinity (label 1 at p = 0)
    res = classify_basin(P0, np.array([math.inf, complex(-math.inf, 1.0),
                                       complex(0.5, math.inf), 0.5]))
    assert list(res.labels) == [1, 1, 1, 0]
    assert list(res.steps) == [0, 0, 0, 5]


def test_classify_basin_takes_a_point_whose_modulus_overflows_for_infinity():
    # abs(1.3e308+1.3e308j) overflows; infinity lies on the 2-cycle of p = 1
    res = classify_basin(P1, np.array([1.3e308 + 1.3e308j]))
    cycle = [any(pt.is_infinity for pt in c.points) for c in res.cycles].index(True)
    assert (res.labels[0], res.steps[0], res.expansion_log_peak[0]) == (cycle, 0, 0.0)


def test_classify_basin_preserves_shape():
    pts = np.full((3, 4), 0.25 + 0j)
    res = classify_basin(P0, pts)
    assert res.labels.shape == (3, 4)
    assert res.steps.shape == (3, 4)
    assert res.expansion_log_peak.shape == (3, 4)


def test_classify_basin_agrees_with_scalar_orbits():
    rng = np.random.default_rng(31)
    pts = rng.normal(size=8) + 1j * rng.normal(size=8)
    res = classify_basin(P1, pts, max_iter=300)
    cycle_pts = [pt for c in res.cycles for pt in c.points]
    for z0, label, k in zip(pts, res.labels, res.steps):
        assert label >= 0
        end = iterate_orbit(P1, z0, int(k)).points[-1]
        assert any(chordal_distance(end, cp) <= 1e-6 for cp in cycle_pts)


@pytest.mark.parametrize("kwargs", [
    {"eps": math.nan}, {"eps": 2.0}, {"eps": 0.0}, {"eps": 1.0}, {"eps": -1e-6},
    {"eps": math.inf}, {"max_iter": -1},
])
def test_classify_basin_argument_guards(kwargs):
    # unchecked, eps=nan resolved nothing, eps=2 put 2.0 (an exterior point)
    # in the basin of 0 at step 0, eps=0 died in math.log and max_iter=-1
    # returned all -1
    with pytest.raises(ValueError):
        classify_basin(P0, np.array([0.5, 2.0, 0.3 + 0.1j]), **kwargs)


def test_capture_radius_floor():
    # below EPS_MIN, eps**2 leaves the range the kernel's rescale keeps clear
    # of the subnormals: julia --eps=1e-170 used to capture no pixel and
    # 1e-160 every pixel
    assert EPS_MIN == 1e-30
    win = Window.from_bounds(-1.0, 1.0, -1.0, 1.0, 4, 4)
    orbit = iterate_orbit(P1, 0j, 40)
    runs = [
        lambda eps: render_julia(P1, win, max_iter=20, eps=eps),
        lambda eps: render_parameter_space(win, transient=16, max_period=4, eps=eps),
        lambda eps: classify_basin(P1, win.grid(), max_iter=20, eps=eps),
        lambda eps: critical_orbits(P1, max_iter=40, max_period=4, eps=eps),
        lambda eps: detect_cycle(orbit, eps=eps, max_period=4),
    ]
    for run in runs:
        with pytest.raises(ValueError, match=r"eps must be finite and in \(1e-30, 1\)"):
            run(1e-30)
        run(1e-29)


def _inline_classify(param, pts, cycles, max_iter, eps):
    """The classifier's own loop before it ran through the shared capture
    kernel: (n, targets) broadcast tests and a separate step and rate."""
    tz, tw, tlabel = [], [], []
    for ci, cyc in enumerate(cycles):
        for pt in cyc.points:
            z, w = (1.0 + 0j, 0j) if pt.is_infinity else (pt.value, 1.0 + 0j)
            m = max(abs(z), abs(w))
            tz.append(z / m)
            tw.append(w / m)
            tlabel.append(ci)
    tz, tw, tlabel = np.asarray(tz), np.asarray(tw), np.asarray(tlabel)
    tn2 = np.abs(tz) ** 2 + np.abs(tw) ** 2
    flat = np.asarray(pts, dtype=complex).ravel()
    finite = np.isfinite(flat)
    Z = np.where(finite, flat, 1.0 + 0j)
    W = np.where(finite, 1.0 + 0j, 0j)
    norm = np.maximum(np.abs(Z), np.abs(W))
    Z, W = Z / norm, W / norm
    labels = np.full(flat.size, -1, dtype=int)
    steps = np.full(flat.size, -1, dtype=int)
    peak = np.zeros(flat.size)
    idx = np.arange(flat.size)
    log_e, log_peak = np.zeros(flat.size), np.zeros(flat.size)
    p = param.p
    pc = np.conj(p)
    gain = 1.0 + abs(p) ** 2
    limit = math.log(eps / SEED_ROUNDOFF)
    eps2 = eps * eps
    for k in range(max_iter + 1):
        if idx.size == 0:
            break
        na2 = np.abs(Z) ** 2 + np.abs(W) ** 2
        cross2 = np.abs(Z[:, None] * tw[None, :] - W[:, None] * tz[None, :]) ** 2
        hit = cross2 < (eps2 * na2[:, None]) * tn2[None, :]
        got = hit.any(axis=1)
        if got.any():
            first = np.argmax(hit[got], axis=1)
            certified = log_peak[got] <= limit
            captured = idx[got]
            labels[captured[certified]] = tlabel[first[certified]]
            steps[captured[certified]] = k
            peak[captured] = log_peak[got]
            keep = ~got
            idx, Z, W = idx[keep], Z[keep], W[keep]
            log_e, log_peak, na2 = log_e[keep], log_peak[keep], na2[keep]
            if idx.size == 0:
                break
        if k == max_iter:
            peak[idx] = log_peak
            break
        Zn = Z * Z + p * (W * W)
        Wn = W * W - pc * (Z * Z)
        rate = (2.0 * gain) * np.abs(Z) * np.abs(W) * na2 / (
            np.abs(Zn) ** 2 + np.abs(Wn) ** 2)
        with np.errstate(divide="ignore"):
            log_e = log_e + np.log(rate)
        log_peak = np.maximum(log_peak, log_e)
        # normalized by a power of two, as the kernel's rescale: exact, so
        # the orbit is the kernel's up to that power of two
        scale = np.ldexp(1.0, -np.frexp(np.maximum(np.abs(Zn), np.abs(Wn)))[1])
        Z, W = Zn * scale, Wn * scale
    return labels, steps, peak


def _square(half, n):
    return Window.from_bounds(-half, half, -half, half, n, n).grid()


_P0_SET = np.concatenate([
    [0j, np.inf, complex(-np.inf, 1.0), 1.0, -1.0, 1j, -1j, 0.5, 2.0, 0.3 + 0.1j],
    np.exp(2j * math.pi * np.arange(64) / 64),           # on the unit circle
    np.linspace(0.01, 0.99, 40) * np.exp(0.7j * np.arange(40)),
    np.linspace(1.01, 100.0, 40) * np.exp(1.3j * np.arange(40)),
])


@pytest.mark.parametrize("p, pts, max_iter, unresolved", [
    (1.0 + 0j, _square(2.0, 400), 200, 16),     # captures the certificate refuses
    (1.5 + 0j, _square(1.5, 200), 200, 8),
    (0.3 + 0.3j, _square(1.5, 100), 1000, 0),
    (0j, _P0_SET, 1000, 68),                    # the unit circle
], ids=["p1", "p1.5", "p0.3+0.3i", "p0"])
def test_classify_basin_equals_inline_loop(p, pts, max_iter, unresolved):
    param = MapParam(p)
    cycles = critical_orbits(param).attracting_cycles()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = classify_basin(param, pts, cycles=cycles, max_iter=max_iter)
        labels, steps, peak = _inline_classify(param, pts, cycles, max_iter, 1e-6)
    assert res.labels.dtype == labels.dtype and res.steps.dtype == steps.dtype
    assert np.array_equal(res.labels.ravel(), labels)
    assert np.array_equal(res.steps.ravel(), steps)
    # the kernel's rate is p-free and this loop's carries the (1+|p|**2)
    # gain, so the peaks part in the last bits (2.8e-14 at most)
    np.testing.assert_allclose(res.expansion_log_peak.ravel(), peak, rtol=0, atol=1e-12)
    assert np.count_nonzero(labels < 0) == unresolved


# After k steps the log expansion is at most k ln 2, since no step's rate
# exceeds 2: a capture at step k <= CERTAIN_STEPS keeps seed roundoff below
# eps = 1e-6, and the certificate cannot refuse it.
CERTAIN_STEPS = math.floor(math.log(1e-6 / SEED_ROUNDOFF) / math.log(2.0))


@pytest.mark.parametrize("p, half, n, max_iter", [
    (1.0 + 0j, 2.0, 64, 200),
    (1.5 + 0j, 1.5, 150, 200),        # 12 pixels captured but refused
    (0.3 + 0.3j, 1.5, 48, 1000),
    (1.0 + 0j, 2.0, 400, 200),        # the benchmark's basin-capture grids
    (1.5 + 0j, 1.5, 400, 200),
    (0.3 + 0.3j, 1.5, 200, 1000),
])
def test_classify_basin_agrees_with_julia_raster(p, half, n, max_iter):
    param = MapParam(p)
    window = Window.from_bounds(-half, half, -half, half, n, n)
    raster = render_julia(param, window, max_iter=max_iter, workers=1)
    res = classify_basin(param, window.grid(), max_iter=max_iter)
    resolved = res.labels >= 0
    assert not np.any(resolved & ~raster.converged)
    assert np.array_equal(raster.steps[resolved], res.steps[resolved])
    periods = np.array([c.period for c in res.cycles])
    assert np.array_equal(raster.period[resolved], periods[res.labels[resolved]])
    assert resolved.sum() > n * n // 2
    # the raster's capture step s is the classifier's, certified or not:
    # the peak there is at most s ln 2, and no capture by CERTAIN_STEPS is refused
    ln2 = math.log(2.0) * (1.0 + 1e-12)
    captured = raster.converged
    assert np.all(res.expansion_log_peak[captured] <= raster.steps[captured] * ln2)
    assert np.all(res.expansion_log_peak <= max_iter * ln2)
    assert CERTAIN_STEPS == 32
    early = captured & (raster.steps <= CERTAIN_STEPS)
    assert early.any() and np.all(resolved[early])


def test_expansion_bound_met_on_the_unit_circle():
    # at p = 0 every step on |z| = 1 expands by exactly 2
    circle = np.exp(2j * math.pi * np.arange(64) / 64)
    res = classify_basin(P0, circle, max_iter=20)
    assert np.all(res.labels == -1)
    np.testing.assert_allclose(res.expansion_log_peak, 20 * math.log(2.0), rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# Lyapunov estimators

def test_lyapunov_estimates_at_most_the_rate_bound():
    # no step expands by more than 2, so no estimate exceeds ln 2, or ln 4
    # for the overlap, which is quadratic in the separation
    rng = np.random.default_rng(67)
    seeds = [(0j, 1.0 + 0j), (0j, -1.0 + 0j), (0j, 1j)]
    for _ in range(40):
        p = complex(rng.normal(), rng.normal()) * 10.0 ** rng.uniform(-1.5, 0.5)
        seeds.append((p, complex(rng.normal(), rng.normal())))
        seeds.append((p, cmath.exp(1j * rng.uniform(0, 2 * math.pi))))
    slack = 1.0 + 1e-12
    for p, z0 in seeds:
        param = MapParam(p)
        assert lyapunov_derivative(param, z0, 200).value <= math.log(2.0) * slack
        est = lyapunov_overlap(param, z0, z0 * cmath.exp(1e-8j))
        assert est.value <= math.log(4.0) * slack


def test_derivative_estimator_doubling_circle():
    # z = 1 is a repelling fixed point with multiplier 2; the orbit is exact
    est = lyapunov_derivative(P0, 1.0, 1000)
    assert est.method == "derivative"
    assert est.value == pytest.approx(math.log(2.0), abs=1e-12)
    assert est.reliable and not est.saturated
    assert est.steps_used == 1000
    # a generic circle point matches over a short run, before the squared
    # modulus drifts off the circle at floating-point resolution
    est2 = lyapunov_derivative(P0, cmath.exp(0.5j), 30)
    assert est2.value == pytest.approx(math.log(2.0), abs=1e-12)


def test_derivative_estimator_contracting_orbit():
    est = lyapunov_derivative(P0, 0.5, 60)
    assert est.value < 0


def test_derivative_estimator_flags_critical_collapse():
    # the orbit slams into the superattracting cycle and stays; log rates
    # diverge and the excluded steps exceed the budget
    est = lyapunov_derivative(P1, -1.0 + 1e-3j, 400)
    assert (not est.reliable) or est.value < -1


def test_overlap_estimator_doubling_circle():
    est = lyapunov_overlap(P0, 1.0, cmath.exp(1e-8j), n_max=200)
    assert est.method == "overlap"
    assert est.saturated
    assert est.reliable
    assert est.value == pytest.approx(2.0 * math.log(2.0), rel=0.05)


def test_overlap_estimator_contracting():
    est = lyapunov_overlap(P0, 0.3, 0.3 + 1e-8, n_max=100)
    assert est.value < 0


def test_overlap_estimator_validates_seeds():
    with pytest.raises(ValueError):
        lyapunov_overlap(P0, 0.3, 0.3)  # coincident
    with pytest.raises(ValueError):
        lyapunov_overlap(P0, 0.3, 0.9)  # far apart


@pytest.mark.parametrize("n_max", [0, -5])
def test_overlap_estimator_needs_a_step(n_max):
    # with no step there is no fit, and the estimate would be NaN
    with pytest.raises(ValueError, match="at least one step"):
        lyapunov_overlap(P0, 1.0, cmath.exp(1e-8j), n_max=n_max)


def test_factor_two_between_estimators():
    # overlap distance is quadratic in separation, so its growth rate runs
    # at twice the derivative estimate
    rng = np.random.default_rng(23)
    for _ in range(10):
        theta = rng.uniform(0, 2 * math.pi)
        z0 = cmath.exp(1j * theta)
        d = lyapunov_derivative(P0, z0, 40)
        o = lyapunov_overlap(P0, z0, z0 * cmath.exp(1e-8j), n_max=200)
        assert o.value == pytest.approx(2.0 * d.value, rel=0.05)


def _sphere_point_lyapunov_derivative(param, z0, n, exclusion_limit=0.01):
    """lyapunov_derivative before it ran on coordinates: one
    spherical_derivative and one apply_map per step."""
    pt = as_point(z0)
    total = 0.0
    used = 0
    for _ in range(n):
        rate = spherical_derivative(param, pt)
        if rate > 0.0:
            total += math.log(rate)
            used += 1
        pt = apply_map(param, pt)
    value = total / used if used else float("-inf")
    reliable = used > 0 and n - used <= exclusion_limit * n
    return LyapunovEstimate(value, "derivative", used, False, reliable)


def _sphere_point_lyapunov_overlap(param, z0, z1, n_max):
    """lyapunov_overlap (default saturation and window) before it ran on
    coordinates: both seeds stepped one apply_map at a time."""
    a, b = as_point(z0), as_point(z1)
    logs = [math.log(overlap_distance(a, b))]
    saturated = False
    for _ in range(n_max):
        a = apply_map(param, a)
        b = apply_map(param, b)
        d = overlap_distance(a, b)
        if d >= 0.01:
            saturated = True
            break
        if d == 0.0:
            break
        logs.append(math.log(d))
    window = len(logs)
    slope = _fit_slope(logs) if window >= 2 else float("nan")
    return LyapunovEstimate(slope, "overlap", window, saturated, window >= 5)


def test_lyapunov_estimators_equal_sphere_point_loops():
    rng = np.random.default_rng(41)
    pairs = [(0j, cmath.exp(0.3j)), (1 + 0j, 0j), (1 + 0j, INF), (0.5 + 0.5j, INF),
             (2 + 0.7j, 0j), (1000j, 0.2 - 0.1j)]
    pairs += [(complex(*rng.uniform(-3, 3, 2)), complex(*rng.normal(size=2)))
              for _ in range(30)]
    saturated = 0
    for p, z0 in pairs:
        param = MapParam(p)
        for n in (1, 40, 300):
            got = lyapunov_derivative(param, z0, n).to_json_dict()
            want = _sphere_point_lyapunov_derivative(param, z0, n).to_json_dict()
            assert json.dumps(got) == json.dumps(want), (p, z0, n)
        # a partner at overlap at most about 1e-17
        z1 = 1e9j if z0 is INF else z0 * cmath.exp(3e-9j) + 3e-9
        for n_max in (1, 7, 200):
            got = lyapunov_overlap(param, z0, z1, n_max=n_max).to_json_dict()
            want = _sphere_point_lyapunov_overlap(param, z0, z1, n_max).to_json_dict()
            assert json.dumps(got) == json.dumps(want), (p, z0, n_max)
            saturated += got["saturated"]
    assert saturated > 0
