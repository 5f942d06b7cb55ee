"""Workload ``scalar-analysis``: the pure-Python scalar path over a population.

One round, in one process:

* stage1 -- ``critical_orbits`` at the centre of every equal-area cell of
  the upper half-disk |p| <= 3, plus each centre's conjugate, so every
  report has its mirror.  The cost of one call is heavy-tailed: about one
  parameter in twelve never settles and runs the full 10 000-step budget,
  and one that lands on a long cycle (period 42 near p = -0.496+0.447i)
  costs 1.4 s, 500 times the median.  A seeded draw, even one moving each
  point by 1% of its cell, let the seed move the stage by up to half, so
  this population is fixed and the seed varies the other stages' inputs;
* stage2 -- ``periodic_cycles`` for n = 1..5 at p = 0 and a seeded subset;
* stage3 -- single-qubit ``step_density`` runs from seeded pure states;
* stage4 -- both Lyapunov estimators from seeded points on the unit circle
  at p = 0, where the exact values are ln 2 and 2 ln 2;
* other -- the period-6 solves (fixed parameters, each fails today), a
  stacked ``step_density`` call on seeded mixed states and a stacked
  two-qubit step; they count in ``round_s`` only.
"""

from __future__ import annotations

import cmath
import math
import time
import warnings

import numpy as np

from common import (YARDSTICK, Stage, install_boundaries, own_peak_rss_mb, repeat_rounds,
                    run_interleaved, scaled_medians, yardstick_plan)

N_RADIAL, N_ANGULAR = 8, 10         # 80 upper-half cells, 160 parameters
CYCLE_STRIDE = 8                    # every 8th cell solves periodic_cycles, plus p = 0
N_CYCLES = 5
PERIOD6_PARAMS = (0.5 + 0.5j, 1.2 - 0.3j, -0.8 + 1.1j, 2.0 + 0.7j)
DENSITY_RUNS, DENSITY_STEPS = 80, 50
LYAP_SEEDS, LYAP_STEPS = 400, 40
TWOQ_BATCH = 2000
DENSITY_BATCH = 4000
OTHER = "other"                     # period-6 solves and stacked steps: in round_s only
YARDSTICK_ITEMS = 40                # one yardstick call each, about 10% of a round


class ScalarAnalysis:
    name = "scalar-analysis"

    def __init__(self, root: str, seed: int, workdir: str):
        from qubit_chaos import MapParam
        self.seed = seed
        rng = np.random.default_rng(seed)
        upper = [cmath.rect(3.0 * math.sqrt((k + 0.5) / N_RADIAL), math.pi * (s + 0.5) / N_ANGULAR)
                 for k in range(N_RADIAL) for s in range(N_ANGULAR)]
        self.upper = upper
        self.population = [MapParam(p) for p in upper] + [MapParam(p.conjugate()) for p in upper]
        pick = rng.permutation(len(upper))
        self.cycle_params = [MapParam(0j)] + [MapParam(p) for p in upper[::CYCLE_STRIDE]]
        self.density_runs = []
        for i in pick[:DENSITY_RUNS]:
            p = upper[i]
            z0 = complex(*rng.normal(size=2))
            self.density_runs.append((math.atan(abs(p)), cmath.phase(p), MapParam(p), z0))
        self.lyap_seeds = list(np.exp(1j * rng.uniform(0, 2 * math.pi, LYAP_SEEDS)))
        raw = rng.normal(size=(TWOQ_BATCH, 4, 4)) + 1j * rng.normal(size=(TWOQ_BATCH, 4, 4))
        rho = raw @ np.conj(np.swapaxes(raw, -1, -2))
        self.twoq_states = rho / np.einsum("...ii->...", rho).real[:, None, None]
        self.twoq_angles = tuple(rng.uniform(0, 1.2, 4))
        raw = rng.normal(size=(DENSITY_BATCH, 2, 2)) + 1j * rng.normal(size=(DENSITY_BATCH, 2, 2))
        rho = raw @ np.conj(np.swapaxes(raw, -1, -2))
        self.density_batch = rho / np.einsum("...ii->...", rho).real[:, None, None]
        self.period6_warnings = 0
        self.speed_scale = None

    def warm_up(self) -> None:
        from qubit_chaos import MapParam, channel, orbits
        orbits.critical_orbits(MapParam(1.0))
        orbits.periodic_cycles(MapParam(0.5j), 2)
        channel.step_density(channel.pure_to_density(0.5), 0.3, 0.1)

    def measure(self, seconds, between):
        return repeat_rounds(self.round, seconds, between)

    def round(self, tracer=None):
        from qubit_chaos import channel, orbits, twoqubit
        from qubit_chaos.roots import RootFindingError
        times, deltas = {}, {}
        start = time.perf_counter()

        def density_run(run):
            x, phi, _, z0 = run
            rho = channel.pure_to_density(z0)
            states = [rho]
            for _ in range(DENSITY_STEPS):
                rho = channel.step_density(rho, x, phi)
                states.append(rho)
            return states

        def other(item):
            kind, arg = item
            if kind == "period6":
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        orbits.find_periodic_points(orbits.MapParam(arg), 6, n_max=6)
                        return True, len(caught)
                    except RootFindingError:
                        return False, len(caught)
            if kind == "density":
                return channel.step_density(self.density_batch, *self.twoq_angles[:2])
            return twoqubit.step_two_qubit(self.twoq_states, *self.twoq_angles)

        p0 = orbits.MapParam(0j)
        turn = complex(math.cos(1e-8), math.sin(1e-8))
        res = run_interleaved({
            "stage1_s": (self.population, orbits.critical_orbits),
            "stage2_s": (self.cycle_params, lambda p: [
                orbits.periodic_cycles(p, n, n_max=N_CYCLES) for n in range(1, N_CYCLES + 1)]),
            "stage3_s": (self.density_runs, density_run),
            "stage4_s": (self.lyap_seeds, lambda z: (
                orbits.lyapunov_derivative(p0, z, LYAP_STEPS),
                orbits.lyapunov_overlap(p0, z, z * turn, n_max=LYAP_STEPS))),
            OTHER: ([("period6", p) for p in PERIOD6_PARAMS] + [("density", None), ("twoqubit", None)],
                    other),
            YARDSTICK: yardstick_plan(YARDSTICK_ITEMS, 1),
        }, times, deltas, tracer)
        *period6, density_batch, twoq_batch = res[OTHER]
        self.period6_warnings = sum(n for _, n in period6)
        out = {"reports": res["stage1_s"], "cycles": res["stage2_s"],
               "density": res["stage3_s"], "lyapunov": res["stage4_s"],
               "batch": density_batch, "twoq_batch": twoq_batch}
        attempted = (len(self.population) + N_CYCLES * len(self.cycle_params) + len(PERIOD6_PARAMS)
                     + DENSITY_RUNS * DENSITY_STEPS + 2 * LYAP_SEEDS + 2)
        stage = Stage(times, attempted=attempted, failed=sum(not ok for ok, _ in period6),
                      wall_s=time.perf_counter() - start, deltas=deltas)
        return stage, out

    def traced(self, tracer):
        plain, _ = self.round()
        sink = {}
        install_boundaries(tracer, sink)
        try:
            traced, out = self.round(tracer)
        finally:
            tracer.restore()
        layer = scalar_layer_metrics(tracer, traced.deltas, out, self)
        stage = Stage({}, attempted=plain.attempted + traced.attempted,
                      failed=plain.failed + traced.failed)
        return out, layer, plain.wall_s, traced.wall_s, stage

    def stage_metrics(self, stages) -> dict:
        values, self.speed_scale = scaled_medians(stages, YARDSTICK_ITEMS)
        del values[OTHER]
        return values

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()

    def named_metrics(self, m) -> dict:
        return {"critical_orbits_per_s": len(self.population) / m["stage1_s"],
                "cycles_per_s": N_CYCLES * len(self.cycle_params) / m["stage2_s"],
                "density_steps_per_s": DENSITY_RUNS * DENSITY_STEPS / m["stage3_s"]}

    # -- checks ---------------------------------------------------------------

    def check(self, out) -> dict:
        import reference as ref
        from qubit_chaos import sphere
        out["sphere_images"] = [[sphere.apply_map(param, _bridge(s)) for s in run[:-1]]
                                for (_, _, param, _), run in zip(self.density_runs, out["density"])]
        reports = out["reports"]
        half = len(self.upper)
        for rep in reports:
            check_report(rep)
        for a, b in zip(reports[:half], reports[half:]):
            check_conjugate(a, b)
        for param, per_n in zip(self.cycle_params, out["cycles"]):
            check_cycle_lists(param, per_n)
        check_density(out["density"], out["sphere_images"])
        check_lyapunov(out["lyapunov"])
        want = ref.step_density_ref(self.density_batch, *self.twoq_angles[:2])
        ref.require(np.abs(out["batch"] - want).max() < 1e-12,
                    "stacked step_density differs from the reference step")
        want = ref.step_two_qubit_ref(self.twoq_states, *self.twoq_angles)
        ref.require(np.abs(out["twoq_batch"] - want).max() < 1e-12,
                    "stacked two-qubit step differs from the reference step")
        return out

    def selftests(self, out) -> dict:
        import dataclasses
        from common import rejects
        from qubit_chaos.orbits import Cycle
        rep = next(r for r in out["reports"] if r.cycles)
        cyc = rep.cycles[0]
        p0_cycles = out["cycles"][0]
        generic = out["cycles"][1]

        def replace_cycle(r, c):
            return dataclasses.replace(r, cycles=(c,) + r.cycles[1:])

        def bad_multiplier():
            check_report(replace_cycle(rep, dataclasses.replace(
                cyc, multiplier=cyc.multiplier * (1 + 1e-7) + 1e-12)))

        def bad_point():
            from qubit_chaos import SpherePoint
            pts = list(cyc.points)
            pts[0] = SpherePoint(0.5 + 0.25j) if pts[0].is_infinity else SpherePoint(pts[0].value + 1e-6)
            check_report(replace_cycle(rep, dataclasses.replace(cyc, points=tuple(pts))))

        def third_soft_cycle():
            soft = Cycle(1, cyc.points[:1], 0.5 + 0j, "attracting")
            check_soft_count([soft, soft, soft], "fabricated")

        def broken_mirror():
            mirror = rep.conjugate()
            c0 = mirror.cycles[0]
            check_conjugate(rep, dataclasses.replace(mirror, cycles=(dataclasses.replace(
                c0, multiplier=c0.multiplier * (1 + 1e-9) + 1e-12),) + mirror.cycles[1:]))

        def dropped_point():
            per_n = [list(c) for c in generic]
            per_n[2] = per_n[2][1:]
            check_cycle_lists(self.cycle_params[1], per_n, verify=False)

        def moved_root_of_unity():
            from qubit_chaos import SpherePoint
            per_n = [list(c) for c in p0_cycles]
            c = next(c for c in per_n[3] if c.period == 4)
            moved = dataclasses.replace(c, points=(SpherePoint(c.points[0].value * (1 + 1e-9)),)
                                        + c.points[1:])
            per_n[3] = [moved if x is c else x for x in per_n[3]]
            check_p0_points(per_n)

        def bad_density():
            r, k = max(((r, k) for r in range(len(out["density"])) for k in range(1, DENSITY_STEPS + 1)),
                       key=lambda rk: abs(out["density"][rk[0]][rk[1]][0, 1]))
            run = list(out["density"][r])
            rho = run[k].copy()
            rho[0, 1] *= complex(math.cos(1e-3), math.sin(1e-3))
            rho[1, 0] = np.conj(rho[0, 1])
            run[k] = rho
            check_density([run], [out["sphere_images"][r]])

        def bad_lyapunov():
            d, o = out["lyapunov"][0]
            check_lyapunov([(dataclasses.replace(d, value=d.value + 2e-3), o)])

        return {name: rejects(fn) for name, fn in [
            ("critical report one perturbed multiplier", bad_multiplier),
            ("critical report one moved cycle point", bad_point),
            ("three non-repelling cycles", third_soft_cycle),
            ("conjugate report one perturbed multiplier", broken_mirror),
            ("periodic points one dropped", dropped_point),
            ("p=0 one moved root of unity", moved_root_of_unity),
            ("density one perturbed state", bad_density),
            ("lyapunov estimate off by 2e-3", bad_lyapunov)]}

    def record(self) -> dict:
        return {"threads": 1, "population": len(self.population),
                "period6_warnings": self.period6_warnings, "speed_scale": self.speed_scale}


def _bridge(rho):
    """Sphere coordinate of a pure 2x2 density matrix: rho01 / rho11."""
    from qubit_chaos import INF, SpherePoint
    return INF if rho[1, 1].real == 0.0 else SpherePoint(rho[0, 1] / rho[1, 1].real)


def _points(cycle):
    return [None if pt.is_infinity else pt.value for pt in cycle.points]


def check_soft_count(cycles, where) -> None:
    import reference as ref
    soft = [c for c in cycles if c.stability != "repelling"]
    ref.require(len(soft) <= 2, f"{where}: {len(soft)} non-repelling cycles")


def check_report(rep) -> None:
    import reference as ref
    for c in rep.cycles:
        ref.check_cycle(rep.param.p, c.period, _points(c), c.multiplier)
    check_soft_count(rep.cycles, f"critical report at p={rep.param.p}")


def check_conjugate(a, b) -> None:
    """The report at conj(p) is the conjugate of the report at p."""
    import reference as ref
    m = a.conjugate()
    ref.require(m.hyperbolic == b.hyperbolic and len(m.cycles) == len(b.cycles),
                f"reports at p={a.param.p} and its conjugate differ in shape")
    for ca, cb in zip(m.cycles, b.cycles):
        ref.require(ca.period == cb.period, f"conjugate cycles at p={a.param.p} differ in period")
        ref.require(abs(ca.multiplier - cb.multiplier) <= 1e-12 * (1 + abs(cb.multiplier)),
                    f"conjugate multipliers at p={a.param.p} differ")
        for pa, pb in zip(ca.points, cb.points):
            za, zb = (None if x.is_infinity else x.value for x in (pa, pb))
            ref.require(ref.chordal(ref.pair(za), ref.pair(zb)) <= 1e-12,
                        f"conjugate cycle points at p={a.param.p} differ")


def check_cycle_lists(param, per_n, verify: bool = True) -> None:
    """periodic_cycles for n = 1..5: exact cycles, 2**n + 1 points, <= 2 soft."""
    import reference as ref
    for n, cycles in enumerate(per_n, start=1):
        total = sum(c.period for c in cycles)
        ref.require(total == 2 ** n + 1, f"p={param.p} n={n}: {total} periodic points, expected {2 ** n + 1}")
        if verify:
            for c in cycles:
                ref.require(n % c.period == 0, f"p={param.p} n={n}: cycle of period {c.period}")
                ref.check_cycle(param.p, c.period, _points(c), c.multiplier)
    check_soft_count([c for n, cycles in enumerate(per_n, start=1) for c in cycles if c.period == n],
                     f"periodic cycles at p={param.p}")
    if param.p == 0:
        check_p0_points(per_n)


def check_p0_points(per_n) -> None:
    """At p = 0 the period-n points are 0, infinity and the (2**n - 1)-th roots of unity."""
    import reference as ref
    for n, cycles in enumerate(per_n, start=1):
        pts = [z for c in cycles for z in _points(c)]
        ref.require(pts.count(None) == 1 and sum(1 for z in pts if z is not None and abs(z) <= 1e-12) == 1,
                    f"p=0 n={n}: 0 and infinity must each appear once")
        m = 2 ** n - 1
        roots = [z for z in pts if z is not None and abs(z) > 1e-12]
        ref.require(len(roots) == m, f"p=0 n={n}: {len(roots)} roots of unity, expected {m}")
        for z in roots:
            k = round(cmath.phase(z) / (2 * math.pi) * m) % m
            ref.require(abs(z - cmath.rect(1.0, 2 * math.pi * k / m)) <= 1e-12,
                        f"p=0 n={n}: {z} is not a {m}-th root of unity")


def check_density(runs, images) -> None:
    """Each density step lands on the sphere map's image of the previous state."""
    import reference as ref
    for run, imgs in zip(runs, images):
        for rho, img in zip(run[1:], imgs):
            psi = ref.pure_density(None if img.is_infinity else img.value)
            gap = 1.0 - float(np.real(np.trace(rho @ psi)))
            ref.require(gap <= 1e-9, f"density step is {gap:.2e} from the sphere map image")


def check_lyapunov(pairs) -> None:
    import reference as ref
    for d, o in pairs:
        ref.check_lyapunov_p0(d.value, o.value)


def scalar_layer_metrics(tracer, deltas, out, wl) -> dict:
    from common import Totals
    t = Totals(tracer.snapshot())
    crit = Totals(deltas["stage1_s"])
    lyap_steps = sum(d.steps_used + o.steps_used for d, o in out["lyapunov"])
    return {
        "orbits.polish_self_ms_n5": t.self_ms("polish[n=5]") / len(wl.cycle_params),
        "orbits.lyapunov_us_per_step": (t.total_ms("lyapunov_derivative")
                                        + t.total_ms("lyapunov_overlap")) * 1e3 / lyap_steps,
        "sphere.apply_map_calls": crit.calls("apply_map") / crit.calls("critical_orbits"),
        "channel.step_density_batch_ns_per_state": t.total_ms("step_density_batch") * 1e6
        / DENSITY_BATCH,
        "twoqubit.step_batch_ns_per_state": t.total_ms("step_two_qubit_batch") * 1e6 / TWOQ_BATCH,
    }
