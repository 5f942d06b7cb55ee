"""Workload ``basin-capture``: the two capture loops, single-threaded.

One round, in one process, with ``workers=1``:

* stage1 -- ``render_julia`` at p = 1 over [-2,2]^2 and at p = 1.5 over
  [-1.5,1.5]^2 (period-2 targets; most pixels retire within tens of steps);
* stage2 -- ``render_julia`` at p = 0.3+0.3i over [-1.5,1.5]^2 (two
  attracting fixed points with |lambda| ~ 0.96 and 0.70: slow capture);
* stage3 -- ``classify_basin`` on the same three grids;
* stage4 -- ``classify_basin`` at p = 0 on a seeded population of points
  inside, outside and exactly on the unit circle.

The grids are fixed, so the pixels whose capture the raster reports but the
classifier's roundoff certificate refuses -- the one fault this workload
counts as failed operations -- are the same on every seed.  The seed draws
the p = 0 population and the pixels checked against mpmath.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from common import (YARDSTICK, Stage, Totals, install_boundaries, own_peak_rss_mb, rejects,
                    repeat_rounds, run_interleaved, scaled_medians, yardstick_plan)

GRIDS = (  # (p, half-width, resolution, max_iter, stage)
    (1.0 + 0j, 2.0, 400, 200, "stage1_s"),
    (1.5 + 0j, 1.5, 400, 200, "stage1_s"),
    (0.3 + 0.3j, 1.5, 200, 1000, "stage2_s"),
)
N_INSIDE = N_OUTSIDE = 50_000
N_CIRCLE = 1_000
P0_CHUNKS = 4                 # classify_basin calls the p = 0 population is split into
YARDSTICK_ITEMS, YARDSTICK_CALLS = 8, 8   # about 30 ms an item, 10% of a round
BASIN_MAX_ITER = 1000
SAMPLES_PER_GRID = 20


class BasinCapture:
    name = "basin-capture"

    def __init__(self, root: str, seed: int, workdir: str):
        from qubit_chaos import MapParam, Window
        self.seed = seed
        self.grids = [(MapParam(p), Window.from_bounds(-h, h, -h, h, n, n), mi, stage)
                      for p, h, n, mi, stage in GRIDS]
        self.pixels = [w.grid() for _, w, _, _ in self.grids]
        rng = np.random.default_rng(seed)

        def ring(lo, hi, n):
            return rng.uniform(lo, hi, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))

        self.inside = ring(0.01, 0.99, N_INSIDE)
        self.outside = ring(1.01, 100.0, N_OUTSIDE)
        self.circle = np.exp(1j * rng.uniform(0, 2 * np.pi, N_CIRCLE))
        self.population = np.concatenate([self.inside, self.outside, self.circle])
        self.refused = 0
        self.speed_scale = None

    def warm_up(self) -> None:
        from qubit_chaos import MapParam, Window, atlas, orbits
        w = Window.from_bounds(-2, 2, -2, 2, 16, 16)
        atlas.render_julia(MapParam(1.0), w, workers=1)
        orbits.classify_basin(MapParam(1.0), w.grid())

    def measure(self, seconds, between):
        return repeat_rounds(self.round, seconds, between)

    def round(self, tracer=None):
        from qubit_chaos import MapParam, atlas, orbits
        times, deltas = {}, {}
        start = time.perf_counter()

        def julia(grid):
            p, w, mi, _ = grid
            return atlas.render_julia(p, w, max_iter=mi, workers=1)

        def classify(g):
            p, _, mi, _ = self.grids[g]
            return orbits.classify_basin(p, self.pixels[g], max_iter=mi)

        def joined(parts):
            return dataclasses.replace(parts[0], **{
                f: np.concatenate([getattr(r, f) for r in parts])
                for f in ("labels", "steps", "expansion_log_peak")})

        out = run_interleaved({
            "stage1_s": ([g for g in self.grids if g[3] == "stage1_s"], julia),
            "stage2_s": ([g for g in self.grids if g[3] == "stage2_s"], julia),
            "stage3_s": (range(len(self.grids)), classify),
            "stage4_s": (np.array_split(self.population, P0_CHUNKS), lambda pts: orbits.classify_basin(
                MapParam(0j), pts, max_iter=BASIN_MAX_ITER)),
            YARDSTICK: yardstick_plan(YARDSTICK_ITEMS, YARDSTICK_CALLS),
        }, times, deltas, tracer)
        out = {"rasters": out["stage1_s"] + out["stage2_s"], "basins": out["stage3_s"],
               "p0": joined(out["stage4_s"])}
        failed = sum(int((r.converged & (b.labels < 0)).sum())
                     for r, b in zip(out["rasters"], out["basins"]))
        attempted = 2 * sum(px.size for px in self.pixels) + len(self.population)
        stage = Stage(times, attempted=attempted, failed=failed,
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
        d = traced.deltas
        julia = Totals(d["stage1_s"], d["stage2_s"])
        grid_steps = sum(int(r.steps.sum()) for r in out["rasters"])
        crit = Totals(tracer.snapshot())
        layer = {
            "atlas.julia_ns_per_px_step": julia.self_ms("render_julia") * 1e6 / sink["julia_px_steps"],
            "atlas.julia_targets_ms": julia.total_ms("critical_orbits") / len(GRIDS),
            "orbits.classify_basin_ns_per_pt_step":
                Totals(d["stage3_s"]).self_ms("classify_basin") * 1e6 / grid_steps,
            "sphere.apply_map_calls": crit.calls("apply_map") / crit.calls("critical_orbits"),
        }
        stage = Stage({}, attempted=plain.attempted + traced.attempted,
                      failed=plain.failed + traced.failed)
        return out, layer, plain.wall_s, traced.wall_s, stage

    def stage_metrics(self, stages) -> dict:
        values, self.speed_scale = scaled_medians(stages, YARDSTICK_ITEMS * YARDSTICK_CALLS)
        return values

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()

    def named_metrics(self, m) -> dict:
        px = sum(p.size for p in self.pixels)
        return {"julia_px_per_s": px / (m["stage1_s"] + m["stage2_s"]),
                "basin_pts_per_s": (px + len(self.population)) / (m["stage3_s"] + m["stage4_s"])}

    # -- checks ---------------------------------------------------------------

    def check(self, out) -> dict:
        import reference as ref
        rng = np.random.default_rng(self.seed)
        check_p0(out["p0"], len(self.inside), len(self.outside))
        samples = []
        self.refused = 0
        for g, ((p, _, mi, _), r, b) in enumerate(zip(self.grids, out["rasters"], out["basins"])):
            ref.check_julia_symmetry(np.where(r.converged, r.steps, -1), real_p=p.p.imag == 0)
            check_agreement(r, b)
            self.refused += int((r.converged & (b.labels < 0)).sum())
            picked = ref.capture_samples(rng, p.p, self.pixels[g], mi, SAMPLES_PER_GRID)
            check_samples(r, mi, picked)
            samples.append(picked)
        out["samples"] = samples
        return out

    def selftests(self, out) -> dict:
        import reference as ref
        r, b = out["rasters"][2], out["basins"][2]
        i, j, k = next(s for s in out["samples"][2] if s[2] is not None)

        def relabel():
            res = out["p0"]
            labels = res.labels.copy()
            labels[len(self.inside)] = labels[0]
            check_p0(dataclasses.replace(res, labels=labels), len(self.inside), len(self.outside))

        def flip_pixel():
            steps = r.steps.copy()
            ii, jj = np.argwhere((steps > 1) & (steps[::-1, ::-1] > 1))[0]
            steps[ii, jj] += 1
            ref.check_julia_symmetry(np.where(r.converged, steps, -1), real_p=False)

        def shift_capture():
            steps = r.steps.copy()
            steps[i, j] += 1
            check_samples(dataclasses.replace(r, steps=steps), GRIDS[2][3], [(i, j, k)])

        def disagree():
            steps = b.steps.copy()
            steps[i, j] += 1
            check_agreement(r, dataclasses.replace(b, steps=steps))

        return {name: rejects(fn) for name, fn in [
            ("p=0 one exterior point relabelled", relabel),
            ("julia one flipped pixel", flip_pixel),
            ("julia one shifted capture step", shift_capture),
            ("classifier one shifted capture step", disagree)]}

    def record(self) -> dict:
        return {"threads": 1, "refused_captures": self.refused,
                "population": int(self.population.size), "speed_scale": self.speed_scale}


def check_p0(res, n_in, n_out) -> None:
    """At p = 0: inside -> the cycle at 0, outside -> infinity, on the circle unresolved."""
    import reference as ref
    zero = next(i for i, c in enumerate(res.cycles)
                if any(not pt.is_infinity and pt.value == 0 for pt in c.points))
    inf = next(i for i, c in enumerate(res.cycles) if any(pt.is_infinity for pt in c.points))
    lab = res.labels
    ref.require(np.all(lab[:n_in] == zero), "p=0: an interior point is not labelled 0")
    ref.require(np.all(lab[n_in:n_in + n_out] == inf), "p=0: an exterior point is not labelled infinity")
    ref.require(np.all(lab[n_in + n_out:] == -1), "p=0: an on-circle point was resolved")


def check_agreement(raster, basin) -> None:
    """Where both loops resolve a pixel they agree; the classifier never resolves more."""
    import reference as ref
    both = raster.converged & (basin.labels >= 0)
    ref.require(np.array_equal(raster.steps[both], basin.steps[both]),
                "render_julia and classify_basin disagree on a capture step")
    ref.require(not np.any(~raster.converged & (basin.labels >= 0)),
                "classify_basin resolves a pixel render_julia never captured")


def check_samples(raster, max_iter, samples) -> None:
    import reference as ref
    for i, j, k in samples:
        if k is None:
            ref.require(not raster.converged[i, j], f"pixel ({i},{j}) should never be captured")
        else:
            ref.require(bool(raster.converged[i, j]) and int(raster.steps[i, j]) == k,
                        f"pixel ({i},{j}): step {raster.steps[i, j]}, exact capture step {k}")
