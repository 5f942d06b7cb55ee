"""End-to-end acceptance checks for the package's shipped guarantees.

Each test exercises one guarantee at its stated tolerance and prints a
single PASS/FAIL line (visible with ``pytest -s``); the same condition is
asserted, so this module is both a report and a gate.  Parameters,
populations, and tolerances are fixed here on purpose -- these are the
numbers the package promises, not tunables.
"""

import cmath
import math
import time

import numpy as np

from qubit_chaos import (
    INF,
    MapParam,
    SpherePoint,
    Window,
    apply_map,
    bifurcation_sweep,
    chordal_distance,
    classify_basin,
    critical_orbits,
    cycle_multiplier,
    density_to_pure,
    find_periodic_points,
    lyapunov_derivative,
    lyapunov_overlap,
    overlap_distance,
    periodic_cycles,
    pure_to_density,
    render_julia,
    render_parameter_space,
    selection_probability,
    squaring_map,
    step_density,
)
from qubit_chaos.channel import purity, selection_trace
from qubit_chaos.orbits import REPELLING, SUPERATTRACTING, detect_cycle
from qubit_chaos.sphere import iterate_orbit
from qubit_chaos.twoqubit import (
    basis_state,
    fidelity,
    reduced_state,
    squaring4,
    step_two_qubit,
)

P0 = MapParam(0j)
P1 = MapParam(1 + 0j)
LN2 = math.log(2.0)


def _report(label: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} [{label}] {detail}"
    print(line)
    assert ok, line


def test_01_doubling_rate_benchmark():
    t0 = time.perf_counter()
    deriv = lyapunov_derivative(P0, 1.0, 200)
    over = lyapunov_overlap(P0, 1.0, cmath.exp(1e-8j), n_max=200)
    elapsed = time.perf_counter() - t0
    d_err = abs(deriv.value - LN2)
    o_rel = abs(over.value - 2.0 * LN2) / (2.0 * LN2)
    ok = d_err <= 1e-3 and o_rel <= 0.05 and elapsed < 1.0
    _report("01 expansion-rate benchmark", ok,
            f"derivative {deriv.value:.6f} (err {d_err:.1e} <= 1e-3), "
            f"overlap {over.value:.4f} (rel {o_rel:.1e} <= 5%), "
            f"{elapsed:.2f}s < 1s")


def test_02_unit_circle_separates_basins():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()

    inner = rng.uniform(0.01, 0.99, 100_000) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, 100_000))
    res_in = classify_basin(P0, inner, max_iter=1000)
    outer = rng.uniform(1.01, 100.0, 100_000) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, 100_000))
    res_out = classify_basin(P0, outer, max_iter=1000)
    circle = np.exp(1j * rng.uniform(0, 2 * np.pi, 1000))
    res_circ = classify_basin(P0, circle, max_iter=1000)
    elapsed = time.perf_counter() - t0

    zero = next(i for i, c in enumerate(res_in.cycles)
                if any(chordal_distance(pt, SpherePoint(0j)) < 1e-9
                       for pt in c.points))
    inf_ = next(i for i, c in enumerate(res_out.cycles)
                if any(pt.is_infinity for pt in c.points))
    all_zero = bool(np.all(res_in.labels == zero))
    all_inf = bool(np.all(res_out.labels == inf_))
    none_circ = bool(np.all(res_circ.labels == -1))
    ok = all_zero and all_inf and none_circ and elapsed < 5.0
    _report("02 unit-circle basins", ok,
            f"10^5 interior -> 0: {all_zero}, 10^5 exterior -> inf: {all_inf}, "
            f"10^3 on-circle unresolved: {none_circ}, {elapsed:.2f}s < 5s")


def test_03_superattracting_two_cycle_at_p1():
    report = critical_orbits(P1)
    cyc = report.cycles[0] if report.cycles else None
    landing = (
        cyc is not None and cyc.period == 2
        and all(any(chordal_distance(pt, t) <= 1e-9 for pt in cyc.points)
                for t in (SpherePoint(-1.0), INF))
    )
    transients = [res.transient for res in report.critical]
    ok = (landing and len(report.cycles) == 1
          and all(res.converged for res in report.critical)
          and max(transients) <= 5
          and abs(cyc.multiplier) < 1e-10
          and cyc.stability == SUPERATTRACTING
          and report.hyperbolic is True)
    _report("03 hyperbolicity at p=1", ok,
            f"both critical orbits land on {{-1, inf}} (transients {transients}), "
            f"|multiplier| {abs(cyc.multiplier):.1e} < 1e-10, hyperbolic verdict "
            f"{report.hyperbolic}")


def test_04_period_two_catalog_at_p0():
    targets = {
        "0": SpherePoint(0j), "1": SpherePoint(1.0), "inf": INF,
        "w": SpherePoint(cmath.exp(2j * math.pi / 3)),
        "w2": SpherePoint(cmath.exp(4j * math.pi / 3)),
    }
    pts = find_periodic_points(P0, 2)
    complete = len(pts) == 5 and all(
        any(chordal_distance(pt, t) <= 1e-9 for pt in pts)
        for t in targets.values())

    lam0, cls0 = cycle_multiplier(P0, [targets["0"]])
    lam1, cls1 = cycle_multiplier(P0, [targets["1"]])
    lami, clsi = cycle_multiplier(P0, [targets["inf"]])
    fixed_ok = (abs(lam0) <= 1e-10 and cls0 == SUPERATTRACTING
                and abs(lam1 - 2.0) <= 1e-9 and cls1 == REPELLING
                and abs(lami) <= 1e-10 and clsi == SUPERATTRACTING)

    two = [c for c in periodic_cycles(P0, 2) if c.period == 2]
    pair_ok = (
        len(two) == 1 and abs(two[0].multiplier - 4.0) <= 1e-9
        and two[0].stability == REPELLING
        and all(any(chordal_distance(pt, t) <= 1e-9 for pt in two[0].points)
                for t in (targets["w"], targets["w2"]))
    )
    ok = complete and fixed_ok and pair_ok
    _report("04 period-2 catalog at p=0", ok,
            f"5/5 points within 1e-9, fixed multipliers (0, 2, 0), "
            f"rotation pair = one repelling 2-cycle with multiplier "
            f"{two[0].multiplier:.6f}" if two else "no 2-cycle found")


def test_05_density_steps_track_sphere_map():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        x = math.atan(rng.uniform(0.0, 3.0))  # |p| = tan(x) <= 3
        param = MapParam.from_angles(x, phi)
        z = SpherePoint(complex(rng.normal(), rng.normal()))
        rho = pure_to_density(z)
        for _ in range(50):
            rho = step_density(rho, x, phi)
            mapped = apply_map(param, z)
            bridged = density_to_pure(rho)
            worst = max(worst, overlap_distance(bridged, mapped))
            z = bridged
    ok = worst <= 1e-9
    _report("05 density/sphere bridge", ok,
            f"100 runs x 50 steps, worst per-step overlap gap "
            f"{worst:.1e} <= 1e-9")


def test_06_at_most_two_soft_cycles():
    rng = np.random.default_rng(7)
    radii = 3.0 * np.sqrt(rng.uniform(0.0, 1.0, 200))
    angles = rng.uniform(0.0, 2.0 * np.pi, 200)
    worst = 0
    for p in radii * np.exp(1j * angles):
        report = critical_orbits(MapParam(complex(p)))
        soft = [c for c in report.cycles if c.stability != REPELLING]
        worst = max(worst, len(soft))
    verdicts = (critical_orbits(P0).hyperbolic, critical_orbits(P1).hyperbolic)
    ok = worst <= 2 and verdicts == (True, True)
    _report("06 at most two non-repelling cycles", ok,
            f"200 parameters in |p| <= 3: max count {worst} <= 2; "
            f"known-hyperbolic verdicts {verdicts}")


def test_07_conjugation_mirror_symmetry():
    win = Window.from_bounds(0.0, 3.0, -1.5, 1.5, 31, 25)
    raster = render_parameter_space(win, transient=200, max_period=16)
    mirror_ok = (np.array_equal(raster.period, raster.period[::-1, :])
                 and np.array_equal(raster.converged, raster.converged[::-1, :]))

    rng = np.random.default_rng(17)
    worst = 0.0
    reports_ok = True
    for _ in range(25):
        p = complex(rng.normal(scale=0.8), rng.normal(scale=0.8))
        a = critical_orbits(MapParam(p)).conjugate()
        b = critical_orbits(MapParam(p).conjugate())
        if a.hyperbolic != b.hyperbolic or len(a.cycles) != len(b.cycles):
            reports_ok = False
            break
        for ca, cb in zip(a.cycles, b.cycles):
            if ca.period != cb.period:
                reports_ok = False
            worst = max(worst, abs(ca.multiplier - cb.multiplier)
                        / (1.0 + abs(cb.multiplier)))
            worst = max(worst, max(chordal_distance(pa, pb)
                                   for pa, pb in zip(ca.points, cb.points)))
    ok = mirror_ok and reports_ok and worst <= 1e-12
    _report("07 conjugation symmetry", ok,
            f"parameter raster mirror-equal: {mirror_ok}; 25 conjugate "
            f"report pairs agree within {worst:.1e} <= 1e-12")


def test_08_figure_pipelines_at_scale():
    jwin = Window.from_bounds(-2.0, 2.0, -2.0, 2.0, 1000, 1000)
    t0 = time.perf_counter()
    julia_a = render_julia(P1, jwin, max_iter=200, workers=1)
    t_julia = time.perf_counter() - t0
    julia_b = render_julia(P1, jwin, max_iter=200, workers=4)
    julia_ok = (np.array_equal(julia_a.steps, julia_b.steps)
                and np.array_equal(julia_a.converged, julia_b.converged))

    pwin = Window.from_bounds(0.0, 3.0, 0.0, 3.0, 500, 500)
    t0 = time.perf_counter()
    params_a = render_parameter_space(pwin, transient=2000, max_period=64,
                                      workers=1)
    t_params = time.perf_counter() - t0
    params_b = render_parameter_space(pwin, transient=2000, max_period=64,
                                      workers=4)
    params_ok = (np.array_equal(params_a.period, params_b.period)
                 and np.array_equal(params_a.converged, params_b.converged))

    t0 = time.perf_counter()
    sweep_a = bifurcation_sweep(start=0j, end=2j, samples=800,
                                transient=10_000, record=50)
    t_sweep = time.perf_counter() - t0
    sweep_b = bifurcation_sweep(start=0j, end=2j, samples=800,
                                transient=10_000, record=50)
    sweep_ok = (np.array_equal(sweep_a.abs_z, sweep_b.abs_z)
                and np.array_equal(sweep_a.is_infinity, sweep_b.is_infinity))

    grid = pwin.grid()
    rng = np.random.default_rng(123)
    rows = rng.integers(0, 500, 20)
    cols = rng.integers(0, 500, 20)
    agree = 0
    for r, c in zip(rows, cols):
        orbit = iterate_orbit(MapParam(complex(grid[r, c])), 0j,
                              2000 + 2 * 64 + 1)
        cyc = detect_cycle(orbit, eps=1e-6, max_period=64)
        raster_period = int(params_a.period[r, c]) if params_a.converged[r, c] else None
        agree += (cyc.period if cyc is not None else None) == raster_period

    times_ok = t_julia < 60.0 and t_params < 60.0 and t_sweep < 60.0
    ok = julia_ok and params_ok and sweep_ok and times_ok and agree == 20
    _report("08 figure pipelines", ok,
            f"julia 1000^2 {t_julia:.1f}s, params 500^2 {t_params:.1f}s, "
            f"sweep 800x10^4 {t_sweep:.1f}s (all < 60s); bit-reproducible "
            f"{julia_ok and params_ok and sweep_ok}; pixel cross-check "
            f"{agree}/20")


def test_09_two_qubit_invariants():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(1000, 4, 4)) + 1j * rng.normal(size=(1000, 4, 4))
    rho = a @ np.conj(np.swapaxes(a, -1, -2))
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    worst = 0.0
    for _ in range(100):
        rho = step_two_qubit(rho, 0.3, 0.0, 0.3, 0.0)
        worst = max(worst, np.abs(
            np.trace(rho, axis1=-2, axis2=-1) - 1.0).max())
        worst = max(worst, np.abs(
            rho - np.conj(np.swapaxes(rho, -1, -2))).max())
        worst = max(worst, max(0.0, -np.linalg.eigvalsh(rho).min()))
    invariants_ok = worst <= 1e-10

    purify_ok = True
    for _ in range(20):
        weights = rng.dirichlet(np.ones(4))
        state = np.diag(weights).astype(complex)
        dominant = int(np.argmax(weights))
        if np.sort(weights)[-1] - np.sort(weights)[-2] < 0.05:
            continue  # no clear dominant weight; skip degenerate draw
        for _ in range(40):
            state = squaring4(state)
        purify_ok &= fidelity(state, basis_state(dominant)) > 1.0 - 1e-8

    closure_worst = 0.0
    for _ in range(20):
        z1, z2 = (complex(rng.normal(), rng.normal()) for _ in range(2))
        joint = np.kron(pure_to_density(SpherePoint(z1)),
                        pure_to_density(SpherePoint(z2)))
        x1, f1, x2, f2 = rng.uniform(-1.0, 1.0, 4)
        for _ in range(20):
            joint = step_two_qubit(joint, x1, f1, x2, f2)
            closure_worst = max(
                closure_worst,
                abs(1.0 - purity(reduced_state(joint, 1))),
                abs(1.0 - purity(reduced_state(joint, 2))),
            )
    closure_ok = closure_worst <= 1e-8
    ok = invariants_ok and purify_ok and closure_ok
    _report("09 two-qubit invariants", ok,
            f"10^3 states x 100 steps: worst violation {worst:.1e} <= 1e-10; "
            f"zero-rotation purification to dominant basis state: {purify_ok}; "
            f"product closure reduced-purity gap {closure_worst:.1e} <= 1e-8")


def test_10_selection_probability_halves():
    mixed = np.eye(2, dtype=complex) / 2.0
    fixed_ok = np.array_equal(squaring_map(mixed), mixed)
    exact_half = selection_probability(mixed) == 0.5

    probs = selection_trace(mixed, 0.0, 0.0, 30)
    stepwise_exact = bool(np.all(probs == 0.5))
    cumulative = np.cumprod(probs)
    expected = 0.5 ** np.arange(1, 31)
    cumulative_ok = bool(np.all(np.abs(cumulative - expected) <= 1e-12 * expected))
    ok = fixed_ok and exact_half and stepwise_exact and cumulative_ok
    _report("10 ensemble thinning", ok,
            f"maximally mixed state exactly fixed: {fixed_ok}; per-step "
            f"selection exactly 1/2: {stepwise_exact}; 30-step survival "
            f"matches 2^-n within 1e-12: {cumulative_ok}")
