import cmath
import json
import math

import numpy as np
import pytest

from qubit_chaos.orbits import (
    ATTRACTING,
    ATTRACTING_CLASSES,
    NEUTRAL_IRRATIONAL,
    NEUTRAL_PARABOLIC,
    REPELLING,
    SUPERATTRACTING,
    ConfigurationError,
    Orbit,
    classify_basin,
    classify_multiplier,
    critical_orbits,
    cycle_multiplier,
    detect_cycle,
    find_periodic_points,
    iterate_orbit,
    lyapunov_derivative,
    lyapunov_overlap,
    make_cycle,
    periodic_cycles,
)
from qubit_chaos.sphere import (
    INF,
    MapParam,
    SpherePoint,
    apply_map,
    chordal_distance,
    overlap_distance,
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


# ---------------------------------------------------------------------------
# Lyapunov estimators

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
