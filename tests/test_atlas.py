import json
import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import qubit_chaos.atlas as atlas
import qubit_chaos.kernel as kernel
from qubit_chaos.atlas import (
    BLOCK_PIXELS,
    RETIRE_CHECKPOINTS,
    RETIRE_CONTRACTION,
    RETIRE_MARGIN,
    RETIRE_TIGHT,
    Raster,
    Sweep,
    Window,
    bifurcation_sweep,
    julia_grayscale,
    period_palette,
    period_rgb,
    render_julia,
    render_parameter_space,
    write_pgm,
    write_ppm,
    write_sweep_csv,
    _certified_period,
)
from qubit_chaos.cli import write_sidecar
from qubit_chaos.kernel import (
    _capture,
    _lag_scan,
    _pair_params,
    _pair_rate,
    _pair_rescale,
    _pair_run,
    _pair_scratch,
    _pair_step,
    _rescale_interval,
    _run_capture,
    _start_pairs,
    _target_pairs,
    _value_pairs,
)
from qubit_chaos.orbits import (
    SEED_ROUNDOFF,
    periodic_cycles,
    Cycle,
    _capture_cycles,
    classify_basin,
    critical_orbits,
    make_cycle,
)
from qubit_chaos.sphere import INF, ConfigurationError, MapParam, SpherePoint, as_point

P0 = MapParam(0j)
P1 = MapParam(1 + 0j)


# ---------------------------------------------------------------------------
# windows

def test_window_grid_hits_corners_exactly():
    win = Window.from_bounds(-2.0, 2.0, -1.0, 1.0, 5, 3)
    grid = win.grid()
    assert grid.shape == (3, 5)
    assert grid[0, 0] == -2.0 + 1.0j       # row 0 is the TOP edge
    assert grid[0, 4] == 2.0 + 1.0j
    assert grid[2, 0] == -2.0 - 1.0j
    assert grid[2, 2] == 0.0 - 1.0j
    assert np.all(grid[1, :].imag == 0.0)  # middle row exactly on the axis


def test_window_conjugate_rows_are_exact_mirrors():
    win = Window.from_bounds(0.0, 3.0, -1.5, 1.5, 7, 9)
    grid = win.grid()
    assert np.array_equal(grid, np.conj(grid[::-1, :]))


def test_window_validation():
    with pytest.raises(ValueError):
        Window(0j, -1.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        Window(0j, 1.0, 1.0, 1, 4)
    with pytest.raises(ValueError):
        Window.from_bounds(2.0, -2.0, 0.0, 1.0, 4, 4)


def test_window_refuses_non_finite_geometry():
    for args in ((complex(math.inf, 0.0), 1.0, 1.0), (complex(0.0, math.nan), 1.0, 1.0),
                 (0j, math.inf, 1.0), (0j, 1.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            Window(*args, 4, 4)
    for bounds in ((-math.inf, math.inf, -2.0, 2.0), (0.0, math.inf, 0.0, 3.0),
                   (-1e308, 1e308, -2.0, 2.0),  # the width overflows
                   (1e308, 1.7e308, 0.0, 1.0)):  # so does the center's sum
        with pytest.raises(ValueError):
            Window.from_bounds(*bounds, 4, 4)
    assert Window(1e200, 1e199, 1e199, 8, 8).at(np.arange(64)).real.min() > 9e199


def test_window_refuses_a_non_integral_resolution():
    for nx, ny, bad in ((5.5, 5, "5.5"), (4, 4.0, "4.0"), (4, "4", "'4'")):
        with pytest.raises(ValueError, match=bad):
            Window(0j, 4.0, 4.0, nx, ny)
    win = Window(0j, 4.0, 4.0, np.int64(5), np.int32(4))
    assert (win.nx, win.ny) == (5, 4) and win.grid().shape == (4, 5)
    json.dumps(win.to_json_dict())


def test_window_json_round_trip():
    win = Window(0.5 + 0.25j, 4.0, 2.0, 10, 20)
    assert Window.from_json_dict(win.to_json_dict()) == win


# ---------------------------------------------------------------------------
# basin rasters

def test_julia_raster_squaring_map():
    # |z| < 1 falls to 0, |z| > 1 escapes; the four exact unit-circle
    # pixels (+-1, +-i) stay on the circle forever and never converge
    win = Window.from_bounds(-2.0, 2.0, -2.0, 2.0, 5, 5)
    raster = render_julia(P0, win, max_iter=200)
    grid = win.grid()
    on_circle = np.abs(grid) == 1.0
    assert on_circle.sum() == 4
    assert np.array_equal(raster.converged, ~on_circle)
    assert np.array_equal(raster.period == 1, ~on_circle)
    assert np.all(raster.period[on_circle] == -1)
    assert np.all(raster.steps[on_circle] == 200)
    assert raster.steps[2, 2] == 0  # the pixel at 0 starts on a target


def test_julia_steps_increase_toward_the_boundary():
    win = Window.from_bounds(0.05, 0.95, -0.01, 0.01, 10, 2)
    raster = render_julia(P0, win, max_iter=400)
    assert raster.converged.all()
    row = raster.steps[0]
    assert np.all(np.diff(row) >= 0) and row[-1] > row[0]


def test_julia_real_parameter_raster_is_mirror_symmetric():
    win = Window.from_bounds(-2.0, 2.0, -2.0, 2.0, 33, 33)
    raster = render_julia(P1, win, max_iter=150)
    # conjugation symmetry of the dynamics => exact row reversal
    assert np.array_equal(raster.steps, raster.steps[::-1, :])
    assert np.array_equal(raster.converged, raster.converged[::-1, :])
    assert np.array_equal(raster.period, raster.period[::-1, :])
    # render_julia mirrors the rows at real p, so check the identity where
    # every pixel runs: the full path, here and off 0 on the real axis
    for window in (win, Window(0.4 + 0j, 3.0, 2.5, 28, 27)):
        steps, converged, period = _full_path(P1, window, 150)
        for a in (steps, converged, period):
            assert np.array_equal(a, a[::-1, :])


def test_julia_deterministic_across_worker_counts():
    win = Window.from_bounds(-2.0, 2.0, -2.0, 2.0, 40, 31)
    a = render_julia(P1, win, max_iter=120, workers=1)
    b = render_julia(P1, win, max_iter=120, workers=4)
    c = render_julia(P1, win, max_iter=120, workers=4)
    for x in (b, c):
        assert np.array_equal(a.steps, x.steps)
        assert np.array_equal(a.converged, x.converged)
        assert np.array_equal(a.period, x.period)


def test_julia_requires_an_attracting_cycle():
    win = Window.from_bounds(-1.0, 1.0, -1.0, 1.0, 4, 4)
    with pytest.raises(ConfigurationError):
        render_julia(MapParam(1.2j), win, max_iter=50)


def test_julia_explicit_cycle_override():
    # target the repelling fixed point 1 instead: only pixels whose orbit
    # lands exactly on it are captured
    win = Window.from_bounds(-2.0, 2.0, -2.0, 2.0, 5, 5)
    cyc = make_cycle(P0, [SpherePoint(1.0)])
    raster = render_julia(P0, win, max_iter=50, cycles=[cyc])
    grid = win.grid()
    captured = {
        (r, c): raster.steps[r, c]
        for r, c in zip(*np.nonzero(raster.converged))
    }
    idx = {grid[r, c]: (r, c) for r, c in np.ndindex(5, 5)}
    assert captured == {
        idx[1.0 + 0j]: 0, idx[-1.0 + 0j]: 1, idx[1j]: 2, idx[-1j]: 2,
    }


def test_julia_argument_guards():
    win = Window.from_bounds(-1.0, 1.0, -1.0, 1.0, 4, 4)
    for eps in (float("nan"), 0.0, -1e-6, 1.0, 2.0, float("inf")):
        with pytest.raises(ValueError, match="eps"):
            render_julia(P1, win, eps=eps)
    with pytest.raises(ValueError, match="max_iter"):
        render_julia(P1, win, max_iter=-1)
    assert render_julia(P1, win, max_iter=0).steps.max() == 0


def test_julia_config_records_inputs():
    win = Window.from_bounds(-1.0, 1.0, -1.0, 1.0, 4, 4)
    raster = render_julia(P1, win, max_iter=60, eps=1e-5)
    assert raster.config["p"] == [1.0, 0.0]
    assert raster.config["max_iter"] == 60
    assert raster.config["eps"] == 1e-5
    json.dumps(raster.config)


# ---------------------------------------------------------------------------
# the centred julia raster: half the rows run, the rest mirror

def _full_path(param, window, max_iter, cycles=None, workers=1, eps=1e-6):
    """(steps, converged, period) of every pixel of ``window`` run through
    the capture front end, with no mirror."""
    cycles, targets = _capture_cycles(param, cycles, eps, max_iter)
    step, label, _ = _run_capture(param.p, window.at, window.nx * window.ny, targets, eps,
                                  max_iter, workers=workers)
    period = np.array([c.period for c in cycles] + [-1])[label].reshape(window.ny, window.nx)
    return np.where(period >= 0, step.reshape(period.shape), max_iter), period >= 0, period


def _assert_full_path(param, window, max_iter, cycles=None, workers=1):
    raster = render_julia(param, window, max_iter=max_iter, cycles=cycles, workers=workers)
    steps, converged, period = _full_path(param, window, max_iter, cycles, workers)
    assert np.array_equal(raster.steps, steps)
    assert np.array_equal(raster.converged, converged)
    assert np.array_equal(raster.period, period)
    return raster


def _centred_windows(seed):
    """Seeded windows centred at 0: odd and even nx and ny, non-square,
    built from bounds and from a center of 0j."""
    rng = np.random.default_rng(seed)
    for nx, ny in ((31, 30), (30, 31), (27, 27), (26, 40)):
        hx, hy = rng.uniform(1.0, 2.5, 2)
        yield Window.from_bounds(-hx, hx, -hy, hy, nx, ny)
        yield Window(0j, 2 * hx, 2 * hy, ny, nx)


@pytest.mark.parametrize("p, max_iter, seed", [
    (1.0 + 0j, 150, 1), (1.5 + 0j, 150, 2), (0.3 + 0.3j, 400, 3), (0.5j, 200, 4),
    (-0.2 + 0.7j, 300, 5),
], ids=["p1", "p1.5", "p0.3+0.3i", "p0.5i", "p-0.2+0.7i"])
@pytest.mark.parametrize("workers", [1, 2])
def test_centred_julia_equals_the_full_path(p, max_iter, seed, workers):
    # f(-z) = f(z): the mirrored half is the full path's, bit for bit
    for window in _centred_windows(seed):
        assert window.center == 0
        _assert_full_path(MapParam(p), window, max_iter, workers=workers)


@pytest.mark.parametrize("nx, ny", [(21, 20), (20, 21), (21, 21)])
@pytest.mark.parametrize("workers", [1, 2])
def test_centred_julia_targets_on_pixels_equal_the_full_path(nx, ny, workers):
    # one extra target sits on a pixel of the top half, one on a pixel of
    # the bottom half: the first pixel is captured at step 0 and its mirror
    # is not; the second pixel's own step-0 test captures it and its source
    # is not captured there
    window = Window.from_bounds(-2.0, 2.0, -1.5, 1.5, nx, ny)
    grid = window.grid()
    top, bottom = (2, 5), (ny - 4, 3)
    cycles = [*critical_orbits(P1).attracting_cycles(),
              *(Cycle(1, (SpherePoint(complex(grid[at])),), 0j, "attracting")
                for at in (top, bottom))]
    raster = _assert_full_path(P1, window, 120, cycles, workers)
    for at in (top, bottom):
        mirror = (ny - 1 - at[0], nx - 1 - at[1])
        assert raster.steps[at] == 0 and raster.converged[at]
        assert raster.steps[mirror] > 0


def test_centred_huge_parameter_equals_the_full_path():
    # p = 1e200: every step rescales (r = 1), and -z still steps to z's bits;
    # the targets are real, so the quadrant runs, and off 0 the top rows
    window = Window.from_bounds(-2.0, 2.0, -2.0, 2.0, 25, 24)
    cycles = [Cycle(2, (SpherePoint(-1e-200), INF), 0j, "superattracting")]
    _assert_full_path(MapParam(1e200 + 0j), window, 60, cycles)
    _assert_full_path(MapParam(1e200 + 0j), Window(0.4 + 0j, 4.0, 3.0, 24, 25), 60, cycles)


def test_off_centre_julia_runs_every_pixel():
    for window in (Window.from_bounds(-2.0, 1.9, -2.0, 2.0, 30, 31),
                   Window.from_bounds(-2.0, 2.0, -2.0, 2.1, 31, 30),
                   Window(1e-300j, 4.0, 4.0, 30, 30)):
        _assert_full_path(P1, window, 150, workers=2)


def test_centred_julia_step_zero_pass_under_thread_switching(monkeypatch):
    # the step-0 pass marks the mirrored pixels to run again from every
    # block: at eps = 0.5 step 0 decides 601 of the 820, and more workers
    # than cores with a short switch interval make a lost mark show up as a
    # pixel that keeps its source's outcome
    monkeypatch.setattr(kernel, "JULIA_BLOCK_PIXELS", 64)
    monkeypatch.setattr(atlas, "JULIA_BLOCK_PIXELS", 64)
    param, window = MapParam(0.3 + 0.3j), Window.from_bounds(-1.5, 1.5, -1.5, 1.5, 41, 40)
    steps, converged, period = _full_path(param, window, 100, eps=0.5)
    assert np.count_nonzero((converged & (steps == 0))[20:]) > 300
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = render_julia(param, window, max_iter=100, eps=0.5, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got.steps, steps)
    assert np.array_equal(got.period, period)


def _count_started(monkeypatch, param, window, cycles):
    """(pairs the capture runner starts, pairs the step-0 test of the
    reflected pixels forms) in one render of ``window``: the fundamental
    domain and the fix-ups, then the pixels a negating reflection fills."""
    counts = [0, 0]

    def counting(i, start):
        def spy(z):
            counts[i] += z.size
            return start(z)
        return spy

    monkeypatch.setattr(kernel, "_start_pairs", counting(0, kernel._start_pairs))
    monkeypatch.setattr(atlas, "_start_pairs", counting(1, atlas._start_pairs))
    render_julia(param, window, max_iter=150, cycles=cycles, workers=2)
    monkeypatch.undo()
    # _target_pairs starts one pair per cycle point
    return counts[0] - sum(len(c.points) for c in cycles), counts[1]


def test_centred_julia_starts_half_the_pairs(monkeypatch):
    param = MapParam(0.3 + 0.3j)
    cycles = critical_orbits(param).attracting_cycles()
    nx, ny = 41, 40
    window = Window.from_bounds(-1.5, 1.5, -1.5, 1.5, nx, ny)
    steps, converged, _ = _full_path(param, window, 150, cycles)
    n, total = -(-ny // 2) * nx, nx * ny
    at_zero = (converged & (steps == 0)).ravel()
    # a mirrored pixel runs again where step 0 captures it or its source
    fixups = np.count_nonzero((at_zero | at_zero[::-1])[n:])
    assert _count_started(monkeypatch, param, window, cycles) == (n + fixups, total - n)
    # with a target on a pixel of the bottom half, that pixel runs again
    target = Cycle(1, (SpherePoint(complex(window.grid()[ny - 3, 7])),), 0j, "attracting")
    assert _count_started(monkeypatch, param, window, [*cycles, target]) == (
        n + fixups + 1, total - n)
    shifted = Window.from_bounds(-1.5, 1.6, -1.5, 1.5, nx, ny)
    assert _count_started(monkeypatch, param, shifted, cycles) == (total, 0)


# ---------------------------------------------------------------------------
# real p: the bottom rows conjugate the top ones, and centred at 0 only the
# top-left quadrant runs

def _real_axis_windows(seed):
    """Seeded windows centred at 0 and on the real axis away from 0: odd and
    even nx and ny, non-square."""
    rng = np.random.default_rng(seed)
    for nx, ny in ((31, 30), (30, 31), (27, 27), (26, 40)):
        hx, hy = rng.uniform(1.0, 2.5, 2)
        yield Window.from_bounds(-hx, hx, -hy, hy, nx, ny)
        yield Window(complex(rng.uniform(0.2, 0.6), 0.0), 2 * hx, 2 * hy, ny, nx)
    yield Window(0.4 + 0j, 3.0, 3.0, 25, 24)


@pytest.mark.parametrize("p, seed", [
    (1.0 + 0j, 6), (1.5 + 0j, 7), (-0.7 + 0j, 8), (0.25 + 0j, 9), (complex(1.0, -0.0), 10),
], ids=["p1", "p1.5", "p-0.7", "p0.25", "p1-0i"])
@pytest.mark.parametrize("workers", [1, 2])
def test_real_parameter_julia_equals_the_full_path(p, seed, workers):
    # f(conj z) = conj f(z) at real p: the reflected rows and the quadrant's
    # reflected columns are the full path's, bit for bit
    for window in _real_axis_windows(seed):
        assert window.center.imag == 0
        _assert_full_path(MapParam(p), window, 150, workers=workers)


def _pixel_targets(window, pixels):
    """One attracting cycle per pixel (row, col), holding the pixel and, off
    the real axis, its conjugate pixel (row ny-1-row, col), so that the
    targets stay closed under conjugation."""
    grid = window.grid()
    cycles = []
    for j, i in pixels:
        pts = {j: None, window.ny - 1 - j: None}
        cycles.append(Cycle(len(pts), tuple(SpherePoint(complex(grid[r, i])) for r in pts),
                            0j, "attracting"))
    return cycles


@pytest.mark.parametrize("nx, ny", [(21, 20), (20, 21), (21, 21)])
@pytest.mark.parametrize("workers", [1, 2])
def test_real_targets_on_pixels_in_every_quarter_equal_the_full_path(nx, ny, workers):
    # a target on a pixel of each quarter, each with its conjugate pixel in
    # the same cycle, and on odd ny two on the real axis: the quadrant route
    # runs, a target pixel is captured at step 0, and its z -> -conj z mirror
    # is not
    window = Window.from_bounds(-2.0, 2.0, -1.5, 1.5, nx, ny)
    pixels = [(2, 5), (4, nx - 3), (ny - 4, 3), (ny - 2, nx - 6)]
    if ny % 2:
        pixels += [(ny // 2, 2), (ny // 2, nx - 5)]
    cycles = [*critical_orbits(P1).attracting_cycles(), *_pixel_targets(window, pixels)]
    assert atlas._conjugate_closed(_target_pairs(cycles))
    raster = _assert_full_path(P1, window, 120, cycles, workers)
    for at in pixels:
        assert raster.steps[at] == 0 and raster.converged[at]
        assert raster.steps[at[0], nx - 1 - at[1]] > 0
    shifted = Window(0.4 + 0j, 4.0, 3.0, nx, ny)
    _assert_full_path(P1, shifted, 120, [*cycles, *_pixel_targets(shifted, pixels)], workers)


def test_conjugate_closed_compares_by_value_and_cycle():
    real = Cycle(1, (SpherePoint(-1.0),), 0j, "attracting")
    pair = Cycle(2, (SpherePoint(0.5 + 0.5j), SpherePoint(0.5 - 0.5j)), 0j, "attracting")
    assert atlas._conjugate_closed(_target_pairs([real, pair]))
    # +0 and -0 imaginary parts are the same point
    signed = Cycle(1, (SpherePoint(complex(0.3, -0.0)),), 0j, "attracting")
    assert atlas._conjugate_closed(_target_pairs([signed]))
    # conjugates in two cycles, or a point without its conjugate, do not close
    split = [Cycle(1, (pt,), 0j, "attracting") for pt in pair.points]
    assert not atlas._conjugate_closed(_target_pairs(split))
    assert not atlas._conjugate_closed(_target_pairs([real, split[0]]))


def test_window_block_equals_the_window_pixels():
    window = Window(0.4 + 0.1j, 3.0, 2.0, 9, 8)
    grid = window.grid()
    for row0, col0, cols in ((0, 0, 9), (0, 0, 5), (0, 5, 4), (4, 0, 9), (3, 2, 6)):
        rows = window.ny - row0
        got = window.block(row0, col0, cols)(np.arange(rows * cols))
        assert np.array_equal(got, grid[row0:, col0:col0 + cols].ravel())


def test_real_parameter_julia_starts_a_quarter_of_the_pairs(monkeypatch):
    cycles = critical_orbits(P1).attracting_cycles()
    for nx, ny in ((41, 41), (40, 39), (41, 40)):
        # on odd nx and ny the pixel -1 lies on a target: its mirror, +1, runs again
        window = Window.from_bounds(-2.0, 2.0, -2.0, 2.0, nx, ny)
        steps, converged, _ = _full_path(P1, window, 150, cycles)
        rows, cols, m = -(-ny // 2), -(-nx // 2), nx // 2
        at_zero = converged & (steps == 0)
        # a pixel of the top-right quarter runs again where step 0 captures
        # it or its z -> -conj z source
        fixups = np.count_nonzero(at_zero[:rows, cols:] | at_zero[:rows, :m][:, ::-1])
        assert fixups == (nx % 2 and ny % 2)
        assert _count_started(monkeypatch, P1, window, cycles) == (
            rows * cols + fixups, rows * m)
        # on the real axis away from 0 the top rows run, and step 0 needs no pass
        shifted = Window(0.4 + 0j, 4.0, 4.0, nx, ny)
        assert _count_started(monkeypatch, P1, shifted, cycles) == (rows * nx, 0)


def test_real_parameter_targets_not_closed_take_the_earlier_routes(monkeypatch):
    # one extra target cycle with a non-real point: its conjugate is no
    # target, so a centred window runs the top rows with the -z mirror and
    # an off-centre one every pixel; both equal the full path
    nx, ny = 41, 40
    window = Window.from_bounds(-2.0, 2.0, -2.0, 2.0, nx, ny)
    shifted = Window(0.4 + 0j, 4.0, 4.0, nx, ny)
    extra = Cycle(1, (SpherePoint(complex(window.grid()[5, 7])),), 0j, "attracting")
    cycles = [*critical_orbits(P1).attracting_cycles(), extra]
    assert not atlas._conjugate_closed(_target_pairs(cycles))
    raster = _assert_full_path(P1, window, 150, cycles, 2)
    at_zero = (raster.converged & (raster.steps == 0)).ravel()
    n, total = -(-ny // 2) * nx, nx * ny
    fixups = np.count_nonzero((at_zero | at_zero[::-1])[n:])
    assert fixups == 1  # the extra target's -z mirror
    assert _count_started(monkeypatch, P1, window, cycles) == (n + fixups, total - n)
    _assert_full_path(P1, shifted, 150, cycles, 2)
    assert _count_started(monkeypatch, P1, shifted, cycles) == (total, 0)


def test_non_real_parameter_with_closed_targets_runs_every_pixel(monkeypatch):
    # targets closed under conjugation do not make f commute with it: off
    # the real p a real-axis window away from 0 still runs every pixel
    param = MapParam(0.3 + 0.3j)
    nx, ny = 41, 40
    shifted = Window(0.4 + 0j, 3.0, 3.0, nx, ny)
    cycles = _pixel_targets(shifted, [(5, 7)])
    assert atlas._conjugate_closed(_target_pairs(cycles))
    _assert_full_path(param, shifted, 150, cycles, 2)
    assert _count_started(monkeypatch, param, shifted, cycles) == (nx * ny, 0)


@pytest.mark.parametrize("nx, ny", [(7, 6), (6, 7), (7, 7), (8, 6)])
def test_centred_window_pixels_are_negated_in_reverse_flat_order(nx, ny):
    # bit for bit, but for the sign of a zero part (the centre row or
    # column), which no test on a pair reads
    for window in (Window.from_bounds(-1.3, 1.3, -0.7, 0.7, nx, ny),
                   Window(0j, 2.6, 1.4, nx, ny), Window(complex(-0.0, -0.0), 3.1, 5.9, nx, ny)):
        f = np.arange(nx * ny)
        got, want = window.at(f[::-1]), -window.at(f)
        assert np.array_equal((got + 0j).view(np.uint64), (want + 0j).view(np.uint64))


def _seeded_points(seed, n=4000):
    """Seeded points with moduli from 1e-8 to 1e8 and no zero part."""
    rng = np.random.default_rng(seed)
    return 10.0 ** rng.uniform(-8, 8, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))


def test_start_pairs_of_negated_points_negate_z():
    z = _seeded_points(11)
    S, neg = _start_pairs(z), _start_pairs(-z)
    assert np.array_equal(neg[0].view(np.uint64), (-S[0]).view(np.uint64))
    assert np.array_equal(neg[1].view(np.uint64), S[1].view(np.uint64))


@pytest.mark.parametrize("p", [1.0 + 0j, 0.3 + 0.3j, -0.2 + 0.7j, 1e200 + 0j])
def test_one_step_of_a_negated_pair_gives_identical_bits(p):
    # (-Z)(-Z) rounds as Z Z does, and the rescale before the step reads
    # moduli only
    z = _seeded_points(12)
    S = _start_pairs(z)
    negated = S * np.array([[-1.0], [1.0]])
    P, scratch = _pair_params(np.array([p])), _pair_scratch(z.size)
    r = _rescale_interval(abs(p))
    a = _pair_run(P, S.copy() * 8.0, scratch, 1, r)
    b = _pair_run(P, negated * 8.0, scratch, 1, r)
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


_CROSS_CLASS = textwrap.dedent("""
    import numpy as np
    from qubit_chaos import MapParam
    from qubit_chaos.atlas import Window, render_julia
    from qubit_chaos.kernel import _run_capture
    from qubit_chaos.orbits import _capture_cycles

    umath = np._core._multiarray_umath
    assert not [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    # p = 1 and 1.5 take the quadrant, 0.3+0.3i the -z mirror, and the
    # off-zero real-axis window the conjugate rows
    for p, centre, half, nx, ny, max_iter in (
            (1.0, 0.0, 2.0, 61, 60, 200), (1.5, 0.0, 1.5, 60, 61, 200),
            (0.3 + 0.3j, 0.0, 1.5, 41, 41, 600), (1.5, 0.4, 1.5, 51, 50, 200)):
        param = MapParam(p)
        window = Window.from_bounds(centre - half, centre + half, -half, half, nx, ny)
        raster = render_julia(param, window, max_iter=max_iter, workers=2)
        cycles, targets = _capture_cycles(param, None, 1e-6, max_iter)
        step, label, _ = _run_capture(param.p, window.at, nx * ny, targets, 1e-6, max_iter,
                                      workers=2)
        period = np.array([c.period for c in cycles] + [-1])[label].reshape(ny, nx)
        assert np.array_equal(raster.period, period), p
        assert np.array_equal(raster.steps,
                              np.where(period >= 0, step.reshape(ny, nx), max_iter)), p
    print("mirror holds")
""")


def test_centred_julia_equals_the_full_path_on_the_baseline_loops():
    # sign symmetry does not rest on fused multiply-add: numpy's baseline
    # loops, with every dispatch target above them disabled, mirror too
    umath = getattr(getattr(np, "_core", None), "_multiarray_umath", None)
    targets = getattr(umath, "__cpu_dispatch__", None)
    if not targets:
        pytest.skip("this numpy names no dispatch targets above its baseline")
    src = os.path.dirname(os.path.dirname(atlas.__file__))
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
               PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", _CROSS_CLASS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "mirror holds"


def _reference_capture(p, S, targets, eps2, max_iter, limit=None, live=False):
    """The capture loop before the two-stage raster: one run from step 0 over
    the whole set, a step normalized every time (:func:`_pow2_step`), and a
    target test that folds each target into hit and label as it goes, in
    fresh arrays every step.  The live columns are kept in input order by a
    boolean compress, and with ``live`` they are returned too, with their
    pairs and certificate state."""
    n = S.shape[1]
    step, label = np.full((2, n), -1, dtype=np.int32)
    alive = np.arange(n)
    A = np.empty(3 * n)
    scratch = None, A.reshape(3, n)
    tests = [(tz, tw, eps2 * tn, i) for tz, tw, tn, i in targets]
    certify = limit is not None
    peak = np.zeros(n) if certify else None
    L = np.zeros((2, n)) if certify else None
    for k in range(max_iter + 1):
        if alive.size == 0:
            break
        if k:
            S = np.stack(_pow2_step(p, np.conj(p), *S))
        Z, W = S
        aZ, aW = np.abs(S, out=scratch[1][:2])
        norm = aZ ** 2 + aW ** 2
        hit = np.zeros(alive.size, dtype=bool)
        per = np.full(alive.size, -1, dtype=np.int32)
        for tz, tw, thr, i in tests:
            cross = np.abs(Z * tw - tz * W) ** 2
            new = (cross < thr * norm) & ~hit
            per[new] = i
            hit |= new
        if certify:
            peak[alive[hit]] = L[1][hit]
            if k < max_iter:
                log_e, log_peak = L
                rate = _pair_rate(aZ, aW)
                with np.errstate(divide="ignore"):
                    log_e += np.log(rate, out=rate)
                np.maximum(log_peak, log_e, out=log_peak)
        if hit.any():
            sel, got = alive[hit], per[hit]
            if certify:
                ok = peak[sel] <= limit
                sel, got = sel[ok], got[ok]
            step[sel] = k
            label[sel] = got
            keep = ~hit
            alive = alive[keep]
            S = np.compress(keep, S, axis=1)
            if certify:
                L = np.compress(keep, L, axis=1)
            scratch = None, A[:3 * alive.size].reshape(3, -1)
    if certify:
        peak[alive] = L[1]
    return (step, label, peak, alive, S, L) if live else (step, label, peak)


# Steps by which roundoff cannot refuse a capture at eps = 1e-6: the raster's
# first stage runs to here and pools the pixels left live.
_K = math.floor(math.log2(1e-6 / SEED_ROUNDOFF))
_OMEGA = np.exp(2j * np.pi / 3)  # the repelling 2-cycle of p = 0 is {omega, omega**2}


def _p0_targets(order):
    cycles = {"0": make_cycle(P0, [0j]), "inf": make_cycle(P0, [INF]),
              "omega": make_cycle(P0, [_OMEGA, _OMEGA ** 2])}
    return [cycles[name] for name in order]


def _far_targets(param):
    # p = 1.5: the three fixed points, the first at |t| > 1 (tw != 1), the
    # others with tw == 1, then the attracting 2-cycle
    return [*periodic_cycles(param, 1), *critical_orbits(param).attracting_cycles()]


@pytest.mark.parametrize("p, half, n, max_iter, eps, cycles", [
    (1.0 + 0j, 2.0, 64, 200, 1e-6, None),
    (1.5 + 0j, 1.5, 64, 200, 1e-6, None),
    (0.3 + 0.3j, 1.5, 48, 400, 1e-6, None),
    (0.5j, 2.0, 48, 200, 1e-6, None),
    (-0.2 + 0.7j, 2.0, 40, 600, 1e-6, None),        # the slow 3-cycle
    (0j, 2.0, 40, 60, 1e-6, ("0", "inf")),          # targets (0, 1) and (1, 0)
    (0j, 2.0, 40, 60, 0.8, ("0", "omega")),         # overlapping targets
    (0j, 2.0, 40, 60, 0.8, ("omega", "0")),         # ... listed the other way
    (0j, 2.0, 40, 60, 0.8, ("omega", "inf", "0")),
    (1.5 + 0j, 1.5, 40, 200, 1e-2, "far"),          # tw != 1
    (1.0 + 0j, 2.0, 48, 0, 1e-6, None),
    (1.0 + 0j, 2.0, 48, 1, 1e-6, None),
    (1.0 + 0j, 2.0, 48, _K - 1, 1e-6, None),
    (1.0 + 0j, 2.0, 48, _K, 1e-6, None),
    (1.0 + 0j, 2.0, 48, _K + 1, 1e-6, None),
    (1.5 + 0j, 1.5, 48, 200, 1e-3, None),           # K = 42
    (1.5 + 0j, 1.5, 48, 200, 1e-12, None),          # K = 12
], ids=["p1", "p1.5", "p0.3+0.3i", "p0.5i", "p-0.2+0.7i", "zero-inf", "overlap",
        "overlap-reversed", "overlap-three", "far-target", "max_iter=0", "max_iter=1",
        "max_iter=K-1", "max_iter=K", "max_iter=K+1", "eps=1e-3", "eps=1e-12"])
def test_staged_raster_and_classifier_equal_reference_capture(
        monkeypatch, p, half, n, max_iter, eps, cycles):
    # small blocks, so that the pixels live after step K come from several
    # blocks and pool into several
    monkeypatch.setattr(kernel, "JULIA_BLOCK_PIXELS", 256)
    assert _K == 32
    param = MapParam(p)
    explicit = cycles is not None
    if cycles == "far":
        cycles = _far_targets(param)
    elif explicit:
        cycles = _p0_targets(cycles)
    else:
        cycles = critical_orbits(param).attracting_cycles()
    window = Window.from_bounds(-half, half, -half, half, n, n)
    pts = window.grid().ravel()
    targets = _target_pairs(cycles)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step, label, _ = _reference_capture(param.p, _start_pairs(pts), targets,
                                            eps * eps, max_iter)
        limit = math.log(eps / SEED_ROUNDOFF)
        want = _reference_capture(param.p, _start_pairs(pts), targets, eps * eps,
                                  max_iter, limit)
        res = classify_basin(param, pts, cycles=cycles, max_iter=max_iter, eps=eps)
        rasters = [render_julia(param, window, max_iter=max_iter, eps=eps, cycles=cycles,
                                workers=w) for w in (1, 2)]
    period = np.array([c.period for c in cycles] + [-1])[label].reshape(n, n)
    for raster in rasters:
        assert np.array_equal(raster.period, period)
        assert np.array_equal(raster.steps, np.where(label < 0, max_iter, step).reshape(n, n))
    assert np.array_equal(res.labels, want[1])
    assert np.array_equal(res.steps, want[0])
    assert np.array_equal(res.expansion_log_peak, want[2])
    if explicit:  # more than one listed cycle captures pixels
        assert np.unique(label[label >= 0]).size >= 2


_HUGE_CYCLE = [Cycle(2, (SpherePoint(-1e-200), INF), 0j, "superattracting")]


@pytest.mark.parametrize("p, half, max_iter", [
    (1.0 + 0j, 2.0, 200), (1.5 + 0j, 1.5, 200), (0.3 + 0.3j, 1.5, 400), (1e200 + 0j, 2.0, 60),
], ids=["p1", "p1.5", "p0.3+0.3i", "p1e200"])
def test_blocked_classifier_equals_one_block_reference(monkeypatch, p, half, max_iter):
    # 182**2 = 33 124 points: two blocks at the default size, 130 at 256.
    # The pooled second stage takes the pairs and the certificate sums from
    # several blocks, and must give the labels, steps and peaks of one run
    # over the whole set from step 0
    param = MapParam(p)
    cycles = _HUGE_CYCLE if p == 1e200 else critical_orbits(param).attracting_cycles()
    pts = Window.from_bounds(-half, half, -half, half, 182, 182).grid().ravel()
    limit = math.log(1e-6 / SEED_ROUNDOFF)
    want = _reference_capture(param.p, _start_pairs(pts), _target_pairs(cycles), 1e-12,
                              max_iter, limit)
    if p != 1e200:  # 1e200 captures every point by step K
        assert (want[0] == _K).any() and (want[0] == _K + 1).any()
    run_blocks = kernel._run_blocks
    for block in (256, kernel.JULIA_BLOCK_PIXELS):
        assert pts.size > block
        kept = {}  # per stage, the points each block leaves live

        def spy(n, size, workers, stages, fn, *args):
            def counted(stage, idx, state, buf):
                out = fn(stage, idx, state, buf)
                kept.setdefault(stage, []).append(idx[out[0]])
                return out
            return run_blocks(n, size, workers, stages, counted, *args)

        monkeypatch.setattr(kernel, "JULIA_BLOCK_PIXELS", block)
        monkeypatch.setattr(kernel, "_run_blocks", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = classify_basin(param, pts, cycles=cycles, max_iter=max_iter)
        assert np.array_equal(res.labels, want[1]), block
        assert np.array_equal(res.steps, want[0]), block
        assert np.array_equal(res.expansion_log_peak, want[2]), block
        pooled = [np.concatenate(parts) for parts in kept.values()]
        left = pooled[0]  # live after step K
        if p != 1e200:
            assert len(pooled) == 2
            if block == 256:  # several blocks pool into several
                assert np.unique(left // block).size >= 2 and left.size > block
        else:
            assert len(pooled) == 1 and left.size == 0


def _normalized(S):
    """The pairs S scaled by powers of two to a larger modulus in [1/2, 1),
    which is exact: pairs that differ only in how often they were rescaled
    come out bit-identical."""
    T = S.copy()
    _pair_rescale(T, np.abs(T), np.empty(T.shape), np.empty(T.shape[1], dtype=np.int32))
    return T


_CAPTURED_AT_STEP_2 = {
    "last": lambda cols: cols >= 32, "first": lambda cols: cols < 8,
    "alternate": lambda cols: cols % 2 == 0, "all": lambda cols: cols >= 0,
    "none": lambda cols: cols < 0,
}


@pytest.mark.parametrize("certify", [False, True], ids=["plain", "certified"])
@pytest.mark.parametrize("pattern", list(_CAPTURED_AT_STEP_2))
def test_capture_compaction_edge_cases(pattern, certify):
    # p = 0, targets 0 and infinity, eps = 1e-3: the pattern's columns of 40
    # are captured together at step 2, by 0 (|z| = 0.1) and by infinity
    # (|z| = 10) in turn.  Where the pattern leaves columns and captures any,
    # every third column left is captured at step 4 (|z| = 0.6), after the
    # first compaction has moved columns; the rest sit on |z| = 1 and stay
    # live.  The live prefix refills its holes from its end, so the live set
    # comes back in another order than the reference's and is compared as a set
    cols = np.arange(40)
    first = _CAPTURED_AT_STEP_2[pattern](cols)
    later = ~first & (cols % 3 == 1) & first.any()
    z = np.exp(1j * (0.3 + 0.7 * cols))
    z[first] *= np.where(cols[first] % 4 < 2, 0.1, 10.0)
    z[later] *= 0.6
    targets = _target_pairs(_p0_targets(("0", "inf")))
    limit = math.log(1e-3 / SEED_ROUNDOFF) if certify else None
    S = _start_pairs(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step, label, peak, alive, S_live, L_live = _reference_capture(
            0j, S.copy(), targets, 1e-6, 6, limit, live=True)
        got = _capture(0j, S.copy(), targets, 1e-6, 0, 6, limit=limit)
    assert np.array_equal(step, np.select([first, later], [2, 4], -1))
    assert np.array_equal(label[first], (cols[first] % 4 >= 2).astype(np.int32))
    assert np.array_equal(got[0], step)
    assert np.array_equal(got[1], label)
    if certify:
        assert np.array_equal(got[2], peak)
    else:
        assert got[2] is None and got[5] is None
    order = np.argsort(got[3])
    assert np.array_equal(got[3][order], alive)
    assert np.array_equal(_normalized(got[4][:, order]), _normalized(S_live))
    if certify:
        assert np.array_equal(got[5][:, order], L_live)
    if pattern in ("first", "alternate"):  # holes below the end were refilled
        assert not np.array_equal(got[3], alive)


@pytest.mark.parametrize("shape", [(0,), (3, 0), ()])
def test_classifier_keeps_the_shape_of_empty_and_0d_inputs(shape):
    pts = np.full(shape, 0.25 + 0j)
    res = classify_basin(P0, pts)
    for a in (res.labels, res.steps, res.expansion_log_peak):
        assert a.shape == shape
    if shape == ():
        assert res.labels == 0 and res.steps > 0


class _Unpooled:
    """Stands in for a state array that the runner must not pool: it adds
    itself to ``read`` on any attribute read or conversion to an array."""

    def __init__(self, a, read):
        self.a, self.read = a, read

    def __getattr__(self, name):
        self.read.add(self)
        return getattr(self.a, name)

    def __array__(self, dtype=None, copy=None):
        self.read.add(self)
        return np.asarray(self.a, dtype)


def _run_blocks_probed(run_blocks, live_sizes):
    """A spy on kernel._run_blocks that appends to ``live_sizes``, per stage
    run, the points and state columns the runner pools after it: those the
    next stage receives, and after the last stage those of the state it
    returns (as :class:`_Unpooled` probes) that the runner reads."""

    def spy(n, block, workers, stages, fn, *args):
        received, read = {}, set()

        def probed(stage, idx, state, buf):
            got = received.setdefault(stage, [0, 0])
            got[0] += idx.size
            got[1] += sum(a.shape[-1] for a in state[:1])
            keep, *out = fn(stage, idx, state, buf)
            if stage == stages[-1]:
                out = [_Unpooled(a, read) for a in out]
            return keep, *out

        run_blocks(n, block, workers, stages, probed, *args)
        live_sizes.extend(tuple(got) for got in list(received.values())[1:])
        cols = sum(probe.a.shape[-1] for probe in read)
        live_sizes.append((cols, cols))

    return spy


def test_julia_last_stage_pools_nothing(monkeypatch):
    # the pixels the last stage never captured are done: the runner pools
    # nothing after it, as after the parameter raster's last stage
    live_sizes = []
    monkeypatch.setattr(kernel, "_run_blocks", _run_blocks_probed(kernel._run_blocks, live_sizes))
    monkeypatch.setattr(kernel, "JULIA_BLOCK_PIXELS", 256)
    win = Window.from_bounds(-2.0, 2.0, -2.0, 2.0, 48, 48)
    for max_iter in (_K, 200):
        live_sizes.clear()
        raster = render_julia(MapParam(-0.2 + 0.7j), win, max_iter=max_iter, workers=2)
        assert not raster.converged.all()
        assert live_sizes[-1] == (0, 0)
    assert len(live_sizes) == 2 and live_sizes[0][0] > 0


def test_parameter_raster_last_stage_returns_no_columns(monkeypatch):
    # the last stage decides every pixel it runs, so it hands the runner no
    # live columns (it gathered the last state of each unsettled pixel,
    # which the runner then dropped)
    returned = []
    run_blocks = atlas._run_blocks

    def spy(n, block, workers, stages, fn, *args):
        def recorded(stage, idx, state, buf):
            keep, *out = fn(stage, idx, state, buf)
            returned.append((stage == stages[-1], idx.size, keep.size,
                             *(a.shape[-1] for a in out)))
            return keep, *out

        run_blocks(n, block, workers, stages, recorded, *args)

    monkeypatch.setattr(atlas, "_run_blocks", spy)
    monkeypatch.setattr(atlas, "BLOCK_PIXELS", 128)
    win = Window.from_bounds(0.0, 3.0, 0.0, 3.0, 24, 24)
    raster = render_parameter_space(win, transient=300, max_period=16, workers=2)
    assert not raster.converged.all()
    last = [r[1:] for r in returned if r[0]]
    assert sum(size for size, *_ in last) > 0
    assert all(cols == [0, 0] for _, *cols in last)
    assert any(keep > 0 for last_stage, _, keep, _ in returned if not last_stage)


_TOY_STAGES = ("a", "b", "c")


def _toy_keeps(n, empty_stage=None):
    """Per stage of _TOY_STAGES, a seeded mask of the points it leaves live
    (none at ``empty_stage``)."""
    rng = np.random.default_rng(21)
    return {s: rng.random(n) < 0.6 if s != empty_stage else np.zeros(n, bool)
            for s in _TOY_STAGES}


def _toy_block(keeps, stage, idx, state):
    """One toy block: the masked points, in reverse order, and their state
    plus the stage's index."""
    keep = np.flatnonzero(keeps[stage][idx])[::-1]
    return keep, state[0][:, keep] + _TOY_STAGES.index(stage)


def _toy_reference(n, block, keeps):
    """Per stage run, the blocks (indices, state) a serial loop gives it."""
    live, x = np.arange(n), np.stack([np.arange(n), -np.arange(n)]) * 1.0
    runs = {}
    for stage in _TOY_STAGES:
        if live.size == 0:
            break
        blocks = [(live[s:s + block], x[:, s:s + block]) for s in range(0, live.size, block)]
        runs[stage] = blocks
        left = []
        for idx, xb in blocks:
            keep, out = _toy_block(keeps, stage, idx, (xb,))
            left.append((idx[keep], out))
        live = np.concatenate([idx for idx, _ in left])
        x = np.concatenate([out for _, out in left], axis=-1)
    return runs


def _block_bytes(blocks):
    return sorted((idx.tobytes(), x.tobytes()) for idx, x in blocks)


@pytest.mark.parametrize("n, block", [(50, 7), (50, 16), (50, 64), (1, 4), (0, 4)])
@pytest.mark.parametrize("empty_stage", [None, "b"], ids=["seeded", "b-keeps-none"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_blocks_equals_serial_pooling(n, block, empty_stage, workers):
    # every stage gets the blocks that a serial loop pooling each block's
    # survivors in block order gives it, whatever the worker count; each
    # worker makes one buffer for the whole run, and the last stage's state
    # is never read
    keeps = _toy_keeps(n, empty_stage)
    want = _toy_reference(n, block, keeps)
    runs, made, read = {}, [], set()

    def fn(stage, idx, state, buf):
        assert buf in made
        runs.setdefault(stage, []).append((idx.copy(), state[0].copy()))
        keep, out = _toy_block(keeps, stage, idx, state)
        return keep, (_Unpooled(out, read) if stage == _TOY_STAGES[-1] else out)

    def make_buffer():
        buf = object()
        made.append(buf)
        return buf

    x0 = np.stack([np.arange(n), -np.arange(n)]) * 1.0
    kernel._run_blocks(n, block, workers, _TOY_STAGES, fn, (x0,), make_buffer)
    assert list(runs) == list(want)
    for stage in want:
        assert _block_bytes(runs[stage]) == _block_bytes(want[stage]), stage
    assert len(made) <= min(workers, -(-n // block)) and bool(made) == (n > 0)
    assert not read
    if n == 50:  # stage b keeps nothing, or some points reach the last stage
        assert list(runs) == (["a", "b"] if empty_stage else list(_TOY_STAGES))


# ---------------------------------------------------------------------------
# parameter-plane rasters

def test_parameter_raster_known_periods():
    win = Window.from_bounds(0.0, 2.0, -1.0, 1.0, 3, 3)
    raster = render_parameter_space(win, transient=300, max_period=16)
    mid = raster.period[1]   # p = 0, 1, 2 on the real axis
    assert raster.converged[1].all()
    assert list(mid) == [1, 2, 2]


def test_parameter_raster_conjugation_mirror():
    win = Window.from_bounds(0.0, 3.0, -1.5, 1.5, 9, 9)
    raster = render_parameter_space(win, transient=200, max_period=8)
    assert np.array_equal(raster.period, raster.period[::-1, :])
    assert np.array_equal(raster.converged, raster.converged[::-1, :])


def test_parameter_raster_deterministic_across_workers():
    win = Window.from_bounds(0.0, 3.0, 0.0, 3.0, 12, 7)
    a = render_parameter_space(win, transient=150, max_period=8, workers=1)
    b = render_parameter_space(win, transient=150, max_period=8, workers=3)
    assert np.array_equal(a.period, b.period)
    assert np.array_equal(a.converged, b.converged)


def test_parameter_raster_pooling_deterministic_across_workers(monkeypatch):
    # three blocks retire at step 32 and pool their survivors into two,
    # which retire at step 256 and pool theirs into one
    win = Window.from_bounds(0.0, 3.0, 0.0, 3.0, 120, 150)
    kw = dict(transient=300, max_period=8)
    at = _check_retiring_kernel(win, **kw)
    assert np.count_nonzero(at != RETIRE_CHECKPOINTS[0]) > BLOCK_PIXELS
    assert np.count_nonzero(at == RETIRE_CHECKPOINTS[1]) > 0
    assert np.array_equal(_stepped_parameters(monkeypatch, win, **kw),
                          _staged_order(win.grid().ravel(), at, **kw))
    a, b, c = (render_parameter_space(win, workers=n, **kw) for n in (1, 2, 3))
    assert np.array_equal(a.period, b.period)
    assert np.array_equal(a.period, c.period)


def test_parameter_raster_shared_buffers_under_thread_switching():
    # blocks share per-worker window buffers: more workers than cores and
    # a short switch interval make any two blocks writing one buffer at
    # once show up as changed periods
    win = Window.from_bounds(0.0, 3.0, 0.0, 3.0, 120, 150)
    kw = dict(transient=300, max_period=8)
    want = render_parameter_space(win, workers=1, **kw).period
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = render_parameter_space(win, workers=4, **kw).period
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, want)


def test_julia_pooled_pairs_under_thread_switching(monkeypatch):
    # the second stage steps each block's columns of the pooled pairs in
    # place: more workers than cores and a short switch interval make any
    # two blocks writing one column show up as changed steps
    monkeypatch.setattr(kernel, "JULIA_BLOCK_PIXELS", 256)
    win = Window.from_bounds(-2.0, 2.0, -2.0, 2.0, 60, 60)
    param = MapParam(0.5j)  # every pixel runs on past step K, and all are captured
    want = render_julia(param, win, max_iter=300, workers=1)
    assert (want.steps > _K).all() and want.converged.all()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = render_julia(param, win, max_iter=300, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got.steps, want.steps)
    assert np.array_equal(got.period, want.period)


def test_parameter_raster_transient_guard():
    win = Window.from_bounds(0.0, 1.0, 0.0, 1.0, 3, 3)
    with pytest.raises(ValueError):
        render_parameter_space(win, transient=10, max_period=64)


def test_parameter_raster_argument_guards():
    win = Window.from_bounds(0.0, 1.0, 0.0, 1.0, 3, 3)
    for eps in (float("nan"), 0.0, -1e-6, 1.0, 2.0, float("inf")):
        with pytest.raises(ValueError, match="eps"):
            render_parameter_space(win, transient=300, eps=eps)
    for max_period in (0, -3):
        with pytest.raises(ValueError, match="max_period"):
            render_parameter_space(win, transient=300, max_period=max_period)


# ---------------------------------------------------------------------------
# the pair kernel and early retirement against straight iteration

def _division_step(p, pc, Z, W):
    """Reference map step on separate Z, W arrays, normalized by division."""
    Z2 = Z * Z
    W2 = W * W
    Zn = Z2 + p * W2
    Wn = W2 - pc * Z2
    m = np.maximum(np.abs(Zn), np.abs(Wn))
    return Zn / m, Wn / m


def _pow2_step(p, pc, Z, W):
    """Reference map step on separate Z, W arrays, normalized by the power of
    two 2**-e, e the exponent of max(|Zn|, |Wn|): the pair kernel's step and
    rescale as one division form, with the larger modulus in [1/2, 1)."""
    Z2 = Z * Z
    W2 = W * W
    Zn = Z2 + p * W2
    Wn = W2 - pc * Z2
    scale = np.ldexp(1.0, -np.frexp(np.maximum(np.abs(Zn), np.abs(Wn)))[1])
    return Zn * scale, Wn * scale


def _orbit_start(p, z0):
    z, w = _value_pairs([as_point(z0)._value])[:, 0]
    return np.full(p.shape, z, dtype=complex), np.full(p.shape, w, dtype=complex)


def _reference_tail(p, Z, W, length):
    """``length`` consecutive states from (Z, W) by the power-of-two step."""
    pc = np.conj(p)
    Zs, Ws = [Z], [W]
    for _ in range(length - 1):
        Z, W = _pow2_step(p, pc, Z, W)
        Zs.append(Z)
        Ws.append(W)
    return np.array(Zs), np.array(Ws)


def _straight_periods(p, z0, transient, max_period, eps):
    """Every pixel iterated the full transient, then the tail-lag scan."""
    pc = np.conj(p)
    Z, W = _orbit_start(p, z0)
    for _ in range(transient):
        Z, W = _pow2_step(p, pc, Z, W)
    tail_len = 2 * max_period + 1
    Zs, Ws = _reference_tail(p, Z, W, tail_len)
    tails = [(za, wa, np.abs(za) ** 2 + np.abs(wa) ** 2) for za, wa in zip(Zs, Ws)]
    eps2 = eps * eps
    period = np.full(p.shape, -1, dtype=np.int32)
    for q in range(1, max_period + 1):
        ok = period < 0
        for k in range(q):
            za, wa, na = tails[tail_len - 1 - k]
            zb, wb, nb = tails[tail_len - 1 - k - q]
            ok = ok & (np.abs(za * wb - zb * wa) ** 2 < eps2 * na * nb)
        period[ok] = q
    return period


def _checkpoint_tail(p, z0, checkpoint, lags):
    """The tail window the raster scans at a checkpoint, as (Zs, Ws): the
    2*lags+1 states from step ``checkpoint`` on."""
    pc = np.conj(p)
    Z, W = _orbit_start(p, z0)
    for _ in range(checkpoint):
        Z, W = _pow2_step(p, pc, Z, W)
    return _reference_tail(p, Z, W, 2 * lags + 1)


def _retirement_step(p, z0, transient, max_period, eps):
    """Per pixel, the checkpoint of RETIRE_CHECKPOINTS at which the raster
    retires it, or 0 where it runs the whole transient: the first checkpoint
    c whose window of 2*min(c, max_period)+1 states ends inside the
    transient and certifies a period."""
    at = np.zeros(p.shape, dtype=int)
    for c in RETIRE_CHECKPOINTS:
        lags = min(c, max_period)
        if c + 2 * lags <= transient:
            T = np.stack(_checkpoint_tail(p, z0, c, lags), axis=1)
            at[(at == 0) & (_certified_period(T, lags, eps * eps) > 0)] = c
    return at


def _image_rate(p, pc, Z, W):
    """Reference spherical expansion rate of one step at the pair (Z, W),
    from the moduli of its image (Zn, Wn) and the Wronskian gain
    2(1+|p|**2): 2(1+|p|**2)|Z||W|(|Z|**2+|W|**2) / (|Zn|**2+|Wn|**2)."""
    aZ, aW, Z2, W2 = np.abs(Z), np.abs(W), Z * Z, W * W
    return (2.0 * (1.0 + np.abs(p) ** 2)) * aZ * aW * (aZ ** 2 + aW ** 2) / (
        np.abs(Z2 + p * W2) ** 2 + np.abs(W2 - pc * Z2) ** 2)


def _two_radius_certificate(p, pc, Zs, Ws, max_period, eps2):
    """Reference for _certified_period: the RETIRE_* rule as one scan that
    tracks the wide and the tight radius at every offset."""
    tail_len = len(Zs)
    tight2 = eps2 * RETIRE_TIGHT ** 2
    wide2 = eps2 * RETIRE_MARGIN ** 2
    q0 = np.full(p.shape, -1, dtype=np.int32)
    # pixels whose every lag so far failed by the wide margin
    open_ = np.arange(p.size)
    for q in range(1, max_period + 1):
        if open_.size == 0:
            break
        pos = np.arange(open_.size)  # open pixels with no wide pair at lag q yet
        tight = np.ones(open_.size, dtype=bool)
        for k in range(q):
            if pos.size == 0:
                break
            idx = open_[pos]
            a, b = tail_len - 1 - k, tail_len - 1 - k - q
            za, wa, zb, wb = Zs[a, idx], Ws[a, idx], Zs[b, idx], Ws[b, idx]
            cross = np.abs(za * wb - zb * wa) ** 2
            scale = (np.abs(za) ** 2 + np.abs(wa) ** 2) * (np.abs(zb) ** 2 + np.abs(wb) ** 2)
            near = cross <= wide2 * scale
            tight = tight[near] & (cross[near] < tight2 * scale[near])
            pos = pos[near]
        # no pair at lag q is wide apart: certify q if every pair is tight,
        # otherwise the pixel sits too close to a match to call either way
        q0[open_[pos[tight]]] = q
        still = np.ones(open_.size, dtype=bool)
        still[pos] = False
        open_ = open_[still]
    cand = np.flatnonzero(q0 > 0)
    if cand.size:
        qc = q0[cand]
        log_lam = np.zeros(cand.size)
        for j in range(int(qc.max())):
            sel = np.flatnonzero(qc > j)
            idx = cand[sel]
            rate = _image_rate(p[idx], pc[idx], Zs[tail_len - 1 - j, idx],
                               Ws[tail_len - 1 - j, idx])
            with np.errstate(divide="ignore"):  # a critical hit: log 0 = -inf
                log_lam[sel] += np.log(rate)
        q0[cand[log_lam > math.log1p(-RETIRE_CONTRACTION)]] = -1
    return q0


def _check_retiring_kernel(window, z0=0j, transient=2000, max_period=64, eps=1e-6):
    """Assert render_parameter_space equals straight iteration pixel for
    pixel, with every numpy warning raised; returns the per-pixel
    _retirement_step."""
    p = window.grid().ravel()
    at = np.zeros(p.shape, dtype=int)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = render_parameter_space(window, z0=z0, transient=transient,
                                     max_period=max_period, eps=eps, workers=2)
        got = got.period.ravel()
        for s in range(0, p.size, BLOCK_PIXELS):
            block = p[s:s + BLOCK_PIXELS]
            want = _straight_periods(block, z0, transient, max_period, eps)
            assert np.array_equal(got[s:s + BLOCK_PIXELS], want), (
                f"{np.count_nonzero(got[s:s + BLOCK_PIXELS] != want)} pixels "
                "differ from straight iteration")
            at[s:s + BLOCK_PIXELS] = _retirement_step(block, z0, transient, max_period, eps)
    return at


def _stepped_parameters(monkeypatch, window, transient, max_period):
    """The parameters of every block render_parameter_space steps on one
    worker, concatenated in the order it steps them."""
    seen = []

    def spy(p):
        seen.append(p.copy())
        return _pair_params(p)

    with monkeypatch.context() as m:
        m.setattr(atlas, "_pair_params", spy)
        render_parameter_space(window, transient=transient, max_period=max_period, workers=1)
    return np.concatenate(seen)


def _staged_order(p, at, transient, max_period):
    """What _stepped_parameters must see: every pixel, then at each
    checkpoint that fits the pixels it leaves, in pixel order."""
    stages = [p]
    for c in RETIRE_CHECKPOINTS:
        if c + 2 * min(c, max_period) <= transient:
            stages.append(p[(at == 0) | (at > c)])
    return np.concatenate(stages)


def _normalized(S):
    """A copy of the stacked pairs S rescaled as the kernel rescales them."""
    S = S.copy()
    _pair_rescale(S, np.abs(S), np.empty(S.shape), np.empty(S.shape[1], dtype=np.int32))
    return S


def _chordal(Z, W, Zd, Wd):
    """Chordal distance between the points Z/W and Zd/Wd."""
    return np.abs(Z * Wd - Zd * W) / np.sqrt(
        (np.abs(Z) ** 2 + np.abs(W) ** 2) * (np.abs(Zd) ** 2 + np.abs(Wd) ** 2))


def _assert_kernel_tracks_division(p, Z, W, steps):
    """Step the pairs (Z, W) with the kernel, rescaled every r steps as the
    pipelines do, and require that, once normalized, they equal the
    power-of-two division form bit for bit after every step.  Returns the
    chordal distance of every final point from the one the 1/m division
    form reaches, the kernel's form before the power-of-two rescale."""
    P = _pair_params(np.atleast_1d(p))  # (2, 1) for one parameter, as in julia
    S = np.stack((Z, W))
    scratch = _pair_scratch(Z.size)
    _, A, E = scratch
    out = np.empty_like(S)
    pc = np.conj(p)
    r = _rescale_interval(np.abs(p).max())
    Zd, Wd = Z, W
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(steps):
            Z, W = _pow2_step(p, pc, Z, W)
            Zd, Wd = _division_step(p, pc, Zd, Wd)
            if k % r == 0:
                _pair_rescale(S, np.abs(S, out=A), A, E)
            _pair_step(P, S, scratch, out=out)   # the tail form leaves S alone
            _pair_step(P, S, scratch)
            assert np.array_equal(S, out), k
            N = _normalized(S)
            assert np.array_equal(N[0], Z) and np.array_equal(N[1], W), k
        return _chordal(Z, W, Zd, Wd)


def _run_in_place(P, S, scratch, steps, r):
    """The in-place pair run as one loop: rescale before steps 0, r, 2r, ..."""
    _, A, E = scratch
    for k in range(steps):
        if k % r == 0:
            _pair_rescale(S, np.abs(S, out=A), A, E)
        _pair_step(P, S, scratch)
    return S


def test_pair_run_rows_equal_the_in_place_run():
    rng = np.random.default_rng(71)
    z = np.concatenate([[np.inf, 0j, 1.0, -1j], rng.normal(size=20) + 1j * rng.normal(size=20)])
    p = np.concatenate([[1.0, 0.5j, -0.2 + 0.7j, 0.3 + 0.3j], rng.uniform(-3, 3, 20) + 0.5j])
    steps = 13
    # (1, 0) and (0, 1) are the pairs of infinity and 0; p = 1e200 needs r = 1
    cases = [(p, z, r) for r in (1, 3, 4)]
    cases.append((np.full(4, 1e200 + 0j), np.array([np.inf, 0j, 1.0, 2j]), 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, z, r in cases:
            assert r <= _rescale_interval(np.abs(p).max())
            P, S0 = _pair_params(p), _start_pairs(z)
            S, scratch = S0 * 8.0, _pair_scratch(z.size)  # no start pair is rescaled yet
            rows = np.empty((steps, 2, z.size), dtype=complex)
            last = kernel._pair_run(P, S, scratch, steps, r, rows=rows)
            assert np.shares_memory(last, rows[-1])
            assert np.array_equal(S, _normalized(S0))  # S takes the first rescale only
            for k in range(steps):
                want = kernel._pair_run(P, S0.copy(), scratch, k + 1, r)
                assert np.array_equal(_normalized(rows[k]), _normalized(want)), (r, k)
                if (k + 1) % r == 0 or k == steps - 1:
                    m = np.max(np.abs(rows[k]), axis=0)
                    assert np.all((0.5 <= m) & (m < 1.0)), (r, k)
                # the in-place run is the loop it always was, bit for bit
                S = S0.copy()
                assert kernel._pair_run(P, S, scratch, k + 1, r) is S
                assert np.array_equal(S, _run_in_place(P, S0.copy(), scratch, k + 1, r))


def test_pair_kernel_equals_division_form_on_julia_orbits():
    grid = Window.from_bounds(-2.0, 2.0, -2.0, 2.0, 40, 40).grid().ravel()
    m0 = np.maximum(np.abs(grid), 1.0)
    for p in (1.0 + 0j, 0.3 + 0.3j, -0.2 + 0.7j):
        drift = _assert_kernel_tracks_division(p, grid / m0, (1.0 / m0).astype(complex), 300)
        # the superattracting and the fast 2-cycle hold the 1/m form to
        # roundoff; the slow 3-cycle's orbits are still near the Julia set
        # at step 300, where the two roundings part
        assert drift.max() < 1e-15 or p == -0.2 + 0.7j, p


def test_pair_kernel_equals_division_form_on_sweep_orbits():
    p = np.linspace(0.0, 2.0, 200) * 1j
    drift = _assert_kernel_tracks_division(p, *_orbit_start(p, 0j), 2000)
    # the declared sweep.csv change: chaotic stretches part from the 1/m form
    assert np.count_nonzero(drift > 1e-9) > 0


@pytest.mark.parametrize("z0", [0j, INF])
def test_pair_kernel_equals_division_form_on_params_orbits(z0):
    p = Window.from_bounds(0.0, 3.0, 0.0, 3.0, 50, 50).grid().ravel()
    _assert_kernel_tracks_division(p, *_orbit_start(p, z0), 500)


def test_pair_rate_equals_image_rate():
    # the p-free rate against the rate read off the step's image, which
    # carries p; both are exactly 0 at the critical points 0 and infinity
    rng = np.random.default_rng(53)
    n = 200_000
    z = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.uniform(-4, 4, n)
    Z, W = _start_pairs(np.concatenate([z, [0j, np.inf]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rate = _pair_rate(np.abs(Z), np.abs(W))
        for p in (1.0 + 0j, 0.3 + 0.3j, 2.0 + 0.7j, 1000j):
            pa = np.full(Z.shape, p)
            want = _image_rate(pa, np.conj(pa), Z, W)
            assert np.all(np.abs(rate[:n] - want[:n]) <= 4e-15 * want[:n]), p
            assert np.array_equal(want[n:], [0.0, 0.0])
    assert np.array_equal(rate[n:], [0.0, 0.0])
    assert rate.max() <= 2.0
    Z, W = _start_pairs(np.exp(2j * np.pi * rng.uniform(size=n)))
    np.testing.assert_allclose(_pair_rate(np.abs(Z), np.abs(W)), 2.0, rtol=1e-15, atol=0)


def test_capture_rate_in_place_equals_pair_rate():
    # the in-place rate of the capture loop, formed in the rows the target
    # test is done with, against the allocating form, on random pairs, the
    # critical points 0 and infinity (rate 0) and points on |z| = 1 (rate 2)
    rng = np.random.default_rng(59)
    n = 50_000
    z = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.uniform(-4, 4, n)
    circle = np.exp(2j * np.pi * rng.uniform(size=n))
    S = _start_pairs(np.concatenate([z, [0j, np.inf], circle]))
    aZ, aW = np.abs(S)
    want = _pair_rate(aZ, aW)
    R = np.empty((5, aZ.size))
    R[:2] = aZ, aW
    np.multiply(R[:2], R[:2], out=R[2:4])
    np.add(R[2], R[3], out=R[4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _pair_rate(*R)
    assert np.shares_memory(got, R[4])
    assert np.array_equal(got, want)
    assert np.array_equal(want[n:n + 2], [0.0, 0.0])
    # through _capture: with eps = 0 nothing is captured, and the peak over
    # steps 0..1 is the log rate of step 0, read off the rescaled moduli
    for p in (1.0 + 0j, -0.2 + 0.7j, 1e200 + 0j):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            step, _, peak, _, _, _ = _capture(p, S.copy(), _target_pairs([make_cycle(P0, [0j])]),
                                           0.0, 0, 1, limit=math.inf)
            with np.errstate(divide="ignore"):
                log_rate = np.log(want)
        assert np.all(step == -1)
        assert np.array_equal(peak, np.maximum(log_rate, 0.0)), p


# start points within 1e-150 of 0 and of infinity, a few ordinary ones and
# two on the unit circle
_EXTREME_POINTS = np.array([1e-150, -1e-150j, 3e-151 + 4e-151j, 1e150, -1e150j,
                            3e150 - 4e150j, 0.5, 1.7j, 1.0, np.exp(1j)])


def _pipeline_bytes():
    """The outputs of every vector pipeline on small inputs, as bytes: julia
    rasters and the classifier with its peaks, through both stages (small
    blocks, so the second pools), parameter rasters (one on a window centered
    on the real axis) and sweeps, at ordinary parameters and at p = 1e200."""
    out = {}

    def add(name, *arrays):
        out[name] = b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)

    huge = MapParam(1e200 + 0j)
    huge_cycle = [Cycle(2, (SpherePoint(-1e-200), INF), 0j, "superattracting")]
    square = Window.from_bounds(-2.0, 2.0, -2.0, 2.0, 24, 24)
    for param, max_iter, cycles in ((P1, 60, None), (MapParam(0.3 + 0.3j), 300, None),
                                    (MapParam(-0.2 + 0.7j), 600, None),
                                    (huge, 60, huge_cycle)):
        raster = render_julia(param, square, max_iter=max_iter, cycles=cycles, workers=2)
        add(f"julia {param.p}", raster.steps, raster.period)
        pts = np.concatenate([square.grid().ravel(), _EXTREME_POINTS])
        res = classify_basin(param, pts, cycles=cycles, max_iter=max_iter)
        add(f"classify {param.p}", res.labels, res.steps, res.expansion_log_peak)
    res = classify_basin(P0, _EXTREME_POINTS, max_iter=200)
    add("classify 0", res.labels, res.steps, res.expansion_log_peak)
    # most of these points are live after step K and pool from every block
    res = classify_basin(MapParam(1.5 + 0j), square.grid(), max_iter=200)
    add("classify 1.5", res.labels, res.steps, res.expansion_log_peak)
    for name, window, z0 in (
            ("params", Window.from_bounds(0.0, 3.0, 0.0, 3.0, 30, 30), 0j),
            ("params real axis", Window.from_bounds(0.0, 3.0, -1.5, 1.5, 21, 21), 0j),
            ("params z0 near 0", Window.from_bounds(0.0, 3.0, 0.0, 3.0, 16, 16), 1e-150),
            ("params z0 near inf", Window.from_bounds(0.0, 3.0, 0.0, 3.0, 16, 16), 1e150),
            ("params p near 1e200", Window(1e200, 1e199, 1e199, 8, 8), 0j)):
        raster = render_parameter_space(window, z0=z0, transient=300, max_period=8)
        add(name, raster.period)
    for start, end, z0 in ((0j, 2j, 0j), (-1.0 + 0j, 2.0 + 1j, 1e-150),
                           (0j, 2j, 1e150), (1e200 + 0j, 2e200 + 0j, 0j)):
        sweep = bifurcation_sweep(start, end, samples=60, transient=400, record=12, z0=z0)
        add(f"sweep {start} {end} {z0}", sweep.abs_z, sweep.is_infinity)
    return out


@pytest.mark.parametrize("every", [1, 3])
def test_outputs_do_not_depend_on_the_rescale_interval(monkeypatch, every):
    # a rescale multiplies by a power of two, which every test on the pairs
    # passes through exactly, so the pipelines give the same bytes whether
    # they rescale every step or every r steps
    monkeypatch.setattr(kernel, "JULIA_BLOCK_PIXELS", 128)
    assert kernel._rescale_interval(3.0 * math.sqrt(2.0)) == kernel.RESCALE_EVERY == 4
    assert kernel._rescale_interval(1e200) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = _pipeline_bytes()
        monkeypatch.setattr(kernel, "RESCALE_EVERY", every)
        got = _pipeline_bytes()
    assert got.keys() == want.keys()
    for name in want:
        assert got[name] == want[name], name
    # the real-axis window is mirror symmetric at either interval
    period = np.frombuffer(got["params real axis"], dtype=np.int32).reshape(21, 21)
    assert np.array_equal(period, period[::-1])


def test_huge_parameter_without_overflow():
    # near p = 1e200 the map is close to z -> -1/z**2, and the 2-cycle
    # {-1/conj(p), inf} through the critical point inf captures everything;
    # no rate may compute 1+|p|**2, which overflows above |p| = 1.3e154
    p = 1e200 + 0j
    param = MapParam(p)
    cycle = Cycle(2, (SpherePoint(-1 / p.conjugate()), INF), 0j, "superattracting")
    win = Window.from_bounds(-2.0, 2.0, -2.0, 2.0, 16, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        raster = render_julia(param, win, cycles=[cycle], workers=1)
        basin = classify_basin(param, win.grid(), cycles=[cycle])
        periods = render_parameter_space(Window(1e200, 1e199, 1e199, 8, 8),
                                         transient=400, max_period=8)
    assert np.all(raster.period == 2)
    assert np.all(basin.labels == 0)
    assert np.all(periods.period == 2)


def test_retirement_exact_on_period_doubling_arc():
    # period-2 parameters beside the arc where the 2-cycle doubles: a loose
    # certificate (tight radius eps/2) retires 100 of these pixels with
    # period 6, which straight iteration settles to 2
    retired = _check_retiring_kernel(Window.from_bounds(0.63, 0.73, 1.54, 1.64, 48, 48)) > 0
    assert 0 < retired.sum() < retired.size


@pytest.mark.parametrize("z0", [0j, INF])
def test_retirement_exact_around_superattracting_p1(z0):
    win = Window.from_bounds(0.9, 1.1, -0.1, 0.1, 25, 25)
    at = _check_retiring_kernel(win, z0=z0)
    # the 2-cycle {-1, inf} passes through the critical point inf, so the
    # multiplier is exactly 0 (log -inf) and must certify, not become NaN
    assert win.grid().ravel()[312] == 1.0 and at[312] > 0


def test_retirement_exact_on_default_window_rows():
    # the default window at 150 of its 500 rows: more pixels than one block
    # holds are left at each checkpoint, so both poolings fill more than one
    at = _check_retiring_kernel(Window.from_bounds(0.0, 3.0, 0.0, 3.0, 500, 150))
    assert np.mean(at == RETIRE_CHECKPOINTS[0]) > 0.6
    assert np.mean(at > 0) > 0.8
    assert np.count_nonzero(at == 0) > BLOCK_PIXELS


def test_retirement_at_the_first_checkpoint_only(monkeypatch):
    # the window of the second checkpoint ends past a 200-step transient, so
    # pixels retire at step 32 or run the whole transient
    win = Window.from_bounds(0.0, 3.0, 0.0, 3.0, 60, 60)
    kw = dict(transient=200, max_period=64)
    at = _check_retiring_kernel(win, **kw)
    assert set(np.unique(at).tolist()) == {0, RETIRE_CHECKPOINTS[0]}
    assert np.array_equal(_stepped_parameters(monkeypatch, win, **kw),
                          _staged_order(win.grid().ravel(), at, **kw))


def test_retirement_of_every_pixel_at_the_first_checkpoint(monkeypatch):
    # near p = 0 the orbit of 0 falls onto a strongly attracting fixed
    # point: every pixel certifies at step 32, and no later stage steps any
    win = Window.from_bounds(-0.1, 0.1, -0.1, 0.1, 16, 16)
    at = _check_retiring_kernel(win)
    assert np.all(at == RETIRE_CHECKPOINTS[0])
    stepped = _stepped_parameters(monkeypatch, win, transient=2000, max_period=64)
    assert np.array_equal(stepped, win.grid().ravel())


def test_certified_period_equals_two_radius_scan():
    max_period, eps2 = 64, 1e-12
    default = Window.from_bounds(0.0, 3.0, 0.0, 3.0, 500, 500).grid()
    cases = [(default[r:r + 100:20].ravel(), 0j) for r in range(0, 500, 100)]  # rows 0, 20, ..., 480
    cases.append((Window.from_bounds(0.63, 0.73, 1.54, 1.64, 48, 48).grid().ravel(), 0j))
    cases.append((Window.from_bounds(0.9, 1.1, -0.1, 0.1, 25, 25).grid().ravel(), INF))
    vetoed = 0
    for p, z0 in cases:
        for c in RETIRE_CHECKPOINTS:
            lags = min(c, max_period)
            Zs, Ws = _checkpoint_tail(p, z0, c, lags)
            T = np.stack((Zs, Ws), axis=1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                want = _two_radius_certificate(p, np.conj(p), Zs, Ws, lags, eps2)
                got = _certified_period(T, lags, eps2)
                wide = _lag_scan(T, lags, eps2 * RETIRE_MARGIN ** 2)
            assert got.dtype == want.dtype and np.array_equal(got, want), (
                f"{np.count_nonzero(got != want)} pixels differ near p = {p[0]} at step {c}")
            vetoed += np.count_nonzero((wide > 0) & (want < 0))
    # the check after the wide scan refuses some of the lags it found
    assert vetoed > 0


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_fixed_point_segment():
    sweep = bifurcation_sweep(start=0j, end=0j, samples=1, transient=100,
                              record=5)
    assert sweep.p.shape == (1,)
    assert sweep.start_step == 101
    assert not sweep.is_infinity.any()
    assert np.all(sweep.abs_z == 0.0)  # orbit of 0 is pinned at 0


def test_sweep_alternating_tail():
    # at p = 1 the orbit of 0 settles into the 2-cycle {-1, infinity}
    sweep = bifurcation_sweep(start=1 + 0j, end=1 + 0j, samples=1,
                              transient=50, record=6)
    flags = sweep.is_infinity[0]
    assert np.array_equal(flags, np.tile([True, False], 3)) or \
        np.array_equal(flags, np.tile([False, True], 3))
    finite = sweep.abs_z[0][~flags]
    assert np.all(finite == 1.0)


def test_sweep_shapes_and_segment_endpoints():
    sweep = bifurcation_sweep(start=0j, end=2j, samples=5, transient=30,
                              record=4)
    assert sweep.abs_z.shape == (5, 4)
    assert sweep.is_infinity.shape == (5, 4)
    assert sweep.p[0] == 0j and sweep.p[-1] == 2j
    assert np.allclose(np.diff(sweep.p), 0.5j)


def test_sweep_tail_period_matches_critical_report():
    # the recorded block at an attracting parameter repeats with the
    # cycle period found by the scalar analysis
    p = 0.55 + 0.0j
    report = critical_orbits(MapParam(p))
    periods = {c.period for c in report.attracting_cycles()}
    assert periods  # parameter chosen inside a stable region
    k = min(periods)
    sweep = bifurcation_sweep(start=p, end=p, samples=1, transient=5000,
                              record=4 * k)
    tail = sweep.abs_z[0]
    assert np.allclose(tail[k:], tail[:-k], atol=1e-9)


def test_sweep_argument_guards():
    with pytest.raises(ValueError):
        bifurcation_sweep(samples=0)
    with pytest.raises(ValueError):
        bifurcation_sweep(record=0)
    with pytest.raises(ValueError, match="transient"):
        bifurcation_sweep(samples=4, transient=-5)


@pytest.mark.parametrize("start, end", [
    (-1e308 + 0j, 1e308 + 0j),  # end - start overflows
    (complex(math.inf, 0.0), 0j),
    (0j, complex(0.0, math.nan)),
])
def test_sweep_refuses_a_non_finite_segment(start, end):
    for samples in (1, 2, 3, 4):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                bifurcation_sweep(start, end, samples=samples, transient=5, record=2)


def test_sweep_runs_a_finite_segment_at_either_parity():
    # every sampled parameter is finite, though numpy flags an overflow in
    # t * (end - start) for some element counts: each runs, with no warning
    for samples in (1, 2, 3, 4):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = bifurcation_sweep(0j, complex(1e308, 1e308), samples=samples,
                                      transient=5, record=2)
        assert np.isfinite(sweep.p).all() and sweep.p.size == samples
        assert np.isfinite(sweep.abs_z).all()


# ---------------------------------------------------------------------------
# image transfer functions

def _tiny_raster(steps, converged, period, max_iter, **config):
    win = Window.from_bounds(0.0, 1.0, 0.0, 1.0, 2, 2)
    return Raster(win, np.asarray(converged), np.asarray(steps),
                  np.asarray(period), {"max_iter": max_iter, **config})


def test_grayscale_transfer():
    raster = _tiny_raster(
        steps=[[0, 50, 100], [199, 200, 200]],
        converged=[[True, True, True], [True, False, False]],
        period=[[1, 1, 1], [1, -1, -1]],
        max_iter=200,
    )
    gray = julia_grayscale(raster)
    assert gray.dtype == np.uint8
    # floor(255 * steps / max_iter), capped at 254; 255 reserved for
    # pixels that never converged
    assert gray[0, 0] == 0
    assert gray[0, 1] == 63       # floor(255*50/200)
    assert gray[0, 2] == 127
    assert gray[1, 0] == 253
    assert gray[1, 1] == 255 and gray[1, 2] == 255


def test_grayscale_cap_below_white():
    raster = _tiny_raster([[200, 200]], [[True, False]], [[1, -1]], 200)
    gray = julia_grayscale(raster)
    assert gray[0, 0] == 254  # converged at the last moment stays off white
    assert gray[0, 1] == 255


def test_grayscale_zero_max_iter():
    raster = _tiny_raster([[0, 0]], [[True, False]], [[1, -1]], 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gray = julia_grayscale(raster)
    assert gray.tolist() == [[0, 255]]


def test_period_palette_shape_and_anchor():
    pal = period_palette(16)
    assert pal.shape == (17, 3) and pal.dtype == np.uint8
    assert list(pal[0]) == [255, 255, 255]
    assert len({tuple(row) for row in pal}) == 17  # distinct hues


def test_period_rgb_marks_unsettled_white():
    raster = _tiny_raster([[3, 7]], [[True, False]], [[2, -1]], 10, max_period=8)
    rgb = period_rgb(raster)
    assert rgb.shape == (1, 2, 3)
    assert list(rgb[0, 1]) == [255, 255, 255]
    assert list(rgb[0, 0]) != [255, 255, 255]


# ---------------------------------------------------------------------------
# file formats

def test_pgm_layout(tmp_path):
    gray = np.arange(6, dtype=np.uint8).reshape(2, 3)
    path = tmp_path / "img.pgm"
    write_pgm(path, gray)
    data = path.read_bytes()
    assert data == b"P5\n3 2\n255\n" + bytes(range(6))


def test_ppm_layout(tmp_path):
    rgb = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    path = tmp_path / "img.ppm"
    write_ppm(path, rgb)
    data = path.read_bytes()
    assert data == b"P6\n2 2\n255\n" + bytes(range(12))


def test_sweep_csv_layout(tmp_path):
    sweep = Sweep(
        p=np.array([1 + 0j]),
        start_step=51,
        abs_z=np.array([[1.0, 0.0]]),
        is_infinity=np.array([[False, True]]),
        config={},
    )
    path = tmp_path / "tail.csv"
    write_sweep_csv(path, sweep)
    lines = path.read_text().splitlines()
    assert lines[0] == "p_re,p_im,step,abs_z,is_infinity"
    assert lines[1] == "1.0,0.0,51,1.0,0"
    assert lines[2] == "1.0,0.0,52,,1"


def test_sidecar_round_trip(tmp_path):
    artifact = tmp_path / "img.pgm"
    config = {"kind": "julia", "p": [0.0, 1.0], "max_iter": 80}
    sidecar = write_sidecar(artifact, config)
    assert sidecar == str(artifact) + ".json"
    assert json.loads(open(sidecar).read()) == config
