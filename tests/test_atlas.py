import json
import sys
import warnings

import numpy as np
import pytest

from qubit_chaos.atlas import (
    BLOCK_PIXELS,
    RETIRE_CHECKPOINT,
    ConfigurationError,
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
    write_sidecar,
    write_sweep_csv,
    _certified_period,
)
from qubit_chaos.kernel import _pair_from_point, _pair_params, _pair_scratch, _pair_step
from qubit_chaos.orbits import critical_orbits, make_cycle
from qubit_chaos.sphere import INF, MapParam, SpherePoint, as_point

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


def test_parameter_raster_pooling_deterministic_across_workers():
    # more than one block, a transient past the checkpoint window, and
    # uncertified pixels in every block, so survivors from several blocks
    # are pooled together
    win = Window.from_bounds(0.0, 3.0, 0.0, 3.0, 100, 100)
    transient, max_period = 300, 8
    assert win.nx * win.ny > BLOCK_PIXELS
    assert transient >= RETIRE_CHECKPOINT + 2 * max_period
    left = ~_retired_at_checkpoint(win.grid().ravel(), 0j, max_period, 1e-6)
    assert left[:BLOCK_PIXELS].any() and left[BLOCK_PIXELS:].any()
    a, b, c = (render_parameter_space(win, transient=transient, max_period=max_period,
                                      workers=n) for n in (1, 2, 3))
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


def _orbit_start(p, z0):
    z, w = _pair_from_point(as_point(z0))
    return np.full(p.shape, z, dtype=complex), np.full(p.shape, w, dtype=complex)


def _reference_tail(p, Z, W, length):
    """``length`` consecutive states from (Z, W) by the division step."""
    pc = np.conj(p)
    Zs, Ws = [Z], [W]
    for _ in range(length - 1):
        Z, W = _division_step(p, pc, Z, W)
        Zs.append(Z)
        Ws.append(W)
    return np.array(Zs), np.array(Ws)


def _straight_periods(p, z0, transient, max_period, eps):
    """Every pixel iterated the full transient, then the tail-lag scan."""
    pc = np.conj(p)
    Z, W = _orbit_start(p, z0)
    for _ in range(transient):
        Z, W = _division_step(p, pc, Z, W)
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


def _retired_at_checkpoint(p, z0, max_period, eps):
    pc = np.conj(p)
    Z, W = _orbit_start(p, z0)
    for _ in range(RETIRE_CHECKPOINT):
        Z, W = _division_step(p, pc, Z, W)
    Zs, Ws = _reference_tail(p, Z, W, 2 * max_period + 1)
    return _certified_period(p, pc, Zs, Ws, max_period, eps * eps) > 0


def _check_retiring_kernel(window, z0=0j, transient=2000, max_period=64, eps=1e-6):
    """Assert render_parameter_space equals straight iteration pixel for
    pixel, with every numpy warning raised; returns the per-pixel mask of
    pixels retired at the checkpoint."""
    p = window.grid().ravel()
    retired = np.zeros(p.shape, dtype=bool)
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
            retired[s:s + BLOCK_PIXELS] = _retired_at_checkpoint(block, z0, max_period, eps)
    return retired


def _assert_kernel_tracks_division(p, Z, W, steps):
    P = _pair_params(np.atleast_1d(p))  # (2, 1) for one parameter, as in julia
    S = np.stack((Z, W))
    scratch = _pair_scratch(Z.size)
    out = np.empty_like(S)
    pc = np.conj(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(steps):
            Z, W = _division_step(p, pc, Z, W)
            _pair_step(P, S, scratch, out=out)   # the tail form leaves S alone
            _pair_step(P, S, scratch)
            assert np.array_equal(S, out), k
            assert np.array_equal(S[0], Z) and np.array_equal(S[1], W), k


def test_pair_kernel_equals_division_form_on_julia_orbits():
    grid = Window.from_bounds(-2.0, 2.0, -2.0, 2.0, 40, 40).grid().ravel()
    m0 = np.maximum(np.abs(grid), 1.0)
    for p in (1.0 + 0j, 0.3 + 0.3j, -0.2 + 0.7j):
        _assert_kernel_tracks_division(p, grid / m0, (1.0 / m0).astype(complex), 300)


def test_pair_kernel_equals_division_form_on_sweep_orbits():
    p = np.linspace(0.0, 2.0, 200) * 1j
    _assert_kernel_tracks_division(p, *_orbit_start(p, 0j), 2000)


@pytest.mark.parametrize("z0", [0j, INF])
def test_pair_kernel_equals_division_form_on_params_orbits(z0):
    p = Window.from_bounds(0.0, 3.0, 0.0, 3.0, 50, 50).grid().ravel()
    _assert_kernel_tracks_division(p, *_orbit_start(p, z0), 500)


def test_retirement_exact_on_period_doubling_arc():
    # period-2 parameters beside the arc where the 2-cycle doubles: a loose
    # certificate (tight radius eps/2) retires 100 of these pixels with
    # period 6, which straight iteration settles to 2
    retired = _check_retiring_kernel(Window.from_bounds(0.63, 0.73, 1.54, 1.64, 48, 48))
    assert 0 < retired.sum() < retired.size


@pytest.mark.parametrize("z0", [0j, INF])
def test_retirement_exact_around_superattracting_p1(z0):
    win = Window.from_bounds(0.9, 1.1, -0.1, 0.1, 25, 25)
    retired = _check_retiring_kernel(win, z0=z0)
    # the 2-cycle {-1, inf} passes through the critical point inf, so the
    # multiplier is exactly 0 (log -inf) and must certify, not become NaN
    assert win.grid().ravel()[312] == 1.0 and retired[312]


def test_retirement_exact_on_default_window_rows():
    # the default window at 150 of its 500 rows: more survivors than one
    # block holds, so they are pooled into two
    retired = _check_retiring_kernel(Window.from_bounds(0.0, 3.0, 0.0, 3.0, 500, 150))
    assert retired.mean() > 0.8
    assert (~retired).sum() > BLOCK_PIXELS


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


# ---------------------------------------------------------------------------
# image transfer functions

def _tiny_raster(steps, converged, period, max_iter):
    win = Window.from_bounds(0.0, 1.0, 0.0, 1.0, 2, 2)
    return Raster(win, np.asarray(converged), np.asarray(steps),
                  np.asarray(period), {"max_iter": max_iter})


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
    raster = _tiny_raster([[3, 7]], [[True, False]], [[2, -1]], 10)
    rgb = period_rgb(raster, max_period=8)
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
