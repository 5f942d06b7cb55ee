"""Raster and sweep pipelines over the map's dynamical and parameter planes.

Three instruments:

* :func:`render_julia` -- per-pixel convergence of initial conditions toward
  the known attracting cycles of a fixed parameter (steps-to-capture raster,
  written as a grayscale PGM: dark = fast capture, white = never captured).
  The map squares before it rotates, so f(-z) = f(z), and at real p it
  commutes with conjugation: the window says which of these symmetries
  its grid has, and the kernel runs only their fundamental domain (the top
  rows, or the top-left quadrant at real p on a window centred at 0) and
  mirrors the rest, as it does for ``classify_basin``.
* :func:`render_parameter_space` -- per-pixel period of the cycle the
  critical orbit settles into as the parameter varies (period raster,
  written as a color PPM keyed by period; white = no settling).
* :func:`bifurcation_sweep` -- |z| samples recorded after a long transient
  along a line segment of parameters (CSV).

Every pipeline steps projective pairs through :mod:`qubit_chaos.kernel`:
``_pair_run`` runs the parameter raster's transient and fills its tail
window, and runs the sweep's transient and fills its record; the julia
raster runs the blocked capture runner and its symmetry routes
(``_run_grid``), the ones ``classify_basin`` runs with the roundoff
certificate on.

Both rasters run in stages through the kernel's block runner
``_run_blocks``, which pools the pixels a stage leaves live into full
blocks for the next.  The julia raster's stages split at the step K of the
kernel docstring; the parameter raster retires a pixel at a checkpoint by
the RETIRE_* rule below, and 13% of the default window is left after step
384 to run out the transient and the lag scan at eps.

Blocks and pooled pixels never depend on the worker count, and arithmetic
is elementwise within a block, so output is bit-identical however many
threads run (``workers`` only caps the pool); an identical config
reproduces the payload bit-for-bit.
"""

from __future__ import annotations

import colorsys
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .kernel import (
    _lag_scan,
    _pair_params,
    _pair_rate,
    _pair_run,
    _pair_scratch,
    _rescale_interval,
    _run_blocks,
    _run_grid,
    _value_pairs,
)
from .orbits import (
    Cycle,
    _capture_cycles,
    _check_cycle_args,
    critical_orbits,  # no caller here: the benchmark's trace hooks patch this name
)
from .sphere import MapParam, _json_complex, _json_point, as_point

# Fixed split unit of the parameter raster, independent of worker count (the
# julia raster's is kernel.JULIA_BLOCK_PIXELS).
BLOCK_PIXELS = 8192

PALETTE_VERSION = "period-hue-v1"

# Early retirement in the parameter raster.  At checkpoint c the next 2*Q+1
# states, Q = min(c, max_period), are scanned at the wide radius for lags up
# to Q (lag q reads only the last 2q+1 states), and a pixel stops iterating
# with period q0 only when all three hold:
#   (a) q0 is the smallest lag whose matches all lie within RETIRE_MARGIN*eps,
#       so every lag below q0 has a pair at least that far apart;
#   (b) every match at lag q0 lies within RETIRE_TIGHT*eps;
#   (c) the chart-free multiplier over the last q0 states has modulus at most
#       1 - RETIRE_CONTRACTION (a critical hit gives 0 and certifies).
# A cycle that attracts this strongly holds an orbit this close to it
# (Milnor, Dynamics in One Complex Variable, 3rd ed., Sec. 8), so the lag
# scan after the full transient finds the same q0: retirement never changes
# a period (the tests check it pixel for pixel against straight iteration),
# it only skips iterations.  (a) and (b) take one lag scan at both radii.
# The tight radius keeps slow period doublings near |multiplier| = 1
# iterating: with RETIRE_TIGHT = 0.5 and no contraction margin, 205 pixels
# of the default window on the arc through p = 0.68+1.59i retire with
# period 6 where the full run settles to 2.
RETIRE_CHECKPOINTS = (32, 256)
RETIRE_TIGHT = 1e-3
RETIRE_MARGIN = 2.0
RETIRE_CONTRACTION = 0.01


@dataclass(frozen=True)
class Window:
    """An axis-aligned complex-plane rectangle sampled on a pixel grid.

    Pixel centers span the rectangle inclusively: column 0 / column nx-1
    sit exactly on the left/right edges, row 0 is the TOP edge (maximum
    imaginary part).  The grid formulas are sign-symmetric, so a window
    centered on the real axis samples exactly conjugate pixel pairs, and on
    a window centered at 0 flat pixel N-1-f is exactly pixel f negated
    (N = nx*ny; a zero part may differ in sign).
    """

    center: complex
    width: float
    height: float
    nx: int
    ny: int

    def __post_init__(self):
        for name in ("nx", "ny"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"resolution {name} must be an integer, got {value!r}") from None
        c = complex(self.center)
        if not all(map(math.isfinite, (c.real, c.imag, self.width, self.height))):
            raise ValueError("window center and extents must be finite")
        if not (self.width > 0 and self.height > 0):
            raise ValueError("window extents must be positive")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("resolution must be at least 2x2")

    @classmethod
    def from_bounds(cls, re_min: float, re_max: float, im_min: float,
                    im_max: float, nx: int, ny: int) -> "Window":
        if not (re_max > re_min and im_max > im_min):
            raise ValueError("window bounds must satisfy re_min < re_max, im_min < im_max")
        return cls(
            complex((re_min + re_max) / 2.0, (im_min + im_max) / 2.0),
            re_max - re_min, im_max - im_min, nx, ny,
        )

    def real_axis(self) -> np.ndarray:
        i = np.arange(self.nx, dtype=float)
        return self.center.real + (self.width / 2.0) * ((2.0 * i - (self.nx - 1)) / (self.nx - 1))

    def imag_axis(self) -> np.ndarray:
        j = np.arange(self.ny, dtype=float)
        return self.center.imag + (self.height / 2.0) * (((self.ny - 1) - 2.0 * j) / (self.ny - 1))

    def grid(self) -> np.ndarray:
        """Complex pixel centers, shape (ny, nx), row 0 on top."""
        return self.real_axis()[None, :] + 1j * self.imag_axis()[:, None]

    def at(self, idx: np.ndarray) -> np.ndarray:
        """Pixel centers of the flat indices idx, as grid().ravel() has them:
        the capture runner's lookup, which forms one block's pixels at a
        time (the whole grid would raise the peak memory)."""
        row, col = np.divmod(idx, self.nx)
        return self.real_axis()[col] + 1j * self.imag_axis()[row]

    def to_json_dict(self) -> dict:
        return {
            "center": _json_complex(self.center),
            "width": self.width, "height": self.height,
            "nx": self.nx, "ny": self.ny,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Window":
        return cls(complex(d["center"][0], d["center"][1]),
                   d["width"], d["height"], d["nx"], d["ny"])


@dataclass
class Raster:
    """Per-pixel outcome arrays plus the config that produced them.

    ``steps`` is the iteration count actually run for the pixel,
    ``period`` the cycle period it resolved to (-1 where none), and
    ``converged`` whether it resolved at all.
    """

    window: Window
    converged: np.ndarray
    steps: np.ndarray
    period: np.ndarray
    config: dict


@dataclass
class Sweep:
    """Recorded |z| tail blocks along a parameter segment."""

    p: np.ndarray           # (samples,) complex parameters
    start_step: int         # global index of the first recorded step
    abs_z: np.ndarray       # (samples, record) float, junk where is_infinity
    is_infinity: np.ndarray  # (samples, record) bool
    config: dict


# ---------------------------------------------------------------------------
# parameter-raster kernel

def _certified_period(T, max_period: int, eps2: float) -> np.ndarray:
    """Period each pixel of the tail window T is certified to settle into
    by the RETIRE_* rule, or -1."""
    q0 = _lag_scan(T, max_period, eps2 * RETIRE_MARGIN ** 2, eps2 * RETIRE_TIGHT ** 2)
    last = len(T) - 1
    cand = np.flatnonzero(q0 > 0)
    q = q0[cand]
    log_lam = np.zeros(cand.size)
    for k in range(q.max(initial=0)):
        sel = np.flatnonzero(q > k)
        with np.errstate(divide="ignore"):  # a critical hit: log 0 = -inf
            log_lam[sel] += np.log(_pair_rate(*np.abs(T[last - k].take(cand[sel], axis=1))))
    q0[cand[log_lam > math.log1p(-RETIRE_CONTRACTION)]] = -1
    return q0


# ---------------------------------------------------------------------------
# renderers

def render_julia(param: MapParam, window: Window, max_iter: int = 200,
                 eps: float = 1e-6, cycles: Optional[Sequence[Cycle]] = None,
                 workers: Optional[int] = None) -> Raster:
    """Steps until each pixel's orbit is captured by an attracting cycle.

    ``cycles`` defaults to the attracting cycles the critical orbits land
    on; :class:`ConfigurationError` if there are none and none are supplied.
    ``eps`` is the capture radius in sqrt-overlap units.  A pixel's
    ``steps`` entry is the first iteration count at which it came within
    eps of a target point (0 = already there); unconverged pixels carry
    steps = max_iter and period = -1.  Requires 1e-30 < eps < 1 and
    max_iter >= 0; ValueError otherwise.  The targets come from
    :func:`qubit_chaos.orbits._capture_cycles` and the pixels run through
    :func:`qubit_chaos.kernel._run_grid`, as in ``classify_basin``, which
    adds the roundoff certificate.  The window decides the route: its grid
    is negated when it is centred at 0 and conjugated when it is centred on
    the real axis (:class:`Window`), and only one pixel per symmetry class
    runs, with the same output bits on every route.
    """
    cycles, targets = _capture_cycles(param, cycles, eps, max_iter)
    steps, label, _ = _run_grid(param.p, window.at, (window.ny, window.nx),
                                window.center == 0, window.center.imag == 0, targets, eps,
                                max_iter, workers=workers)
    # label -1 (never captured) picks the trailing -1
    period = np.array([c.period for c in cycles] + [-1], np.int32)[label]
    converged = period >= 0
    steps[~converged] = max_iter
    config = {
        "kind": "julia", "p": _json_complex(param.p),
        "window": window.to_json_dict(), "max_iter": max_iter, "eps": eps,
        "targets": [[_json_complex(tz), _json_complex(tw), cycles[i].period]
                    for tz, tw, _, i in targets],
    }
    return Raster(window, converged, steps, period, config)


def render_parameter_space(window: Window, z0=0j, transient: int = 2000,
                           max_period: int = 64, eps: float = 1e-6,
                           workers: Optional[int] = None) -> Raster:
    """Settled cycle period of the orbit of z0 as the parameter varies.

    Each pixel is its own map parameter.  After ``transient`` iterations the
    next 2*max_period+1 points are scanned for the smallest lag q whose
    matches are sustained over a full extra period (the same rule the scalar
    detector uses), with eps in sqrt-overlap units.  Pixels with no settled
    lag are marked unconverged.  Requires 1e-30 < eps < 1, max_period >= 1 and
    transient >= 2*max_period, and a window whose corner pixels, where the
    largest modulus lies, have a finite modulus; ValueError otherwise.

    The raster runs in stages over fixed blocks of BLOCK_PIXELS pixels
    (:func:`qubit_chaos.kernel._run_blocks`).  At each checkpoint c of
    RETIRE_CHECKPOINTS whose window of 2*min(c, max_period)+1 states ends
    inside the transient (steps 96 and 384 at the defaults), a pixel whose
    period the RETIRE_* rule certifies stops early; the others carry their
    last window state into the next stage, so their orbit is the
    uninterrupted one, and the last stage runs the rest of the transient
    and the lag scan.  A retired pixel keeps the period the full run
    reports, so ``steps`` records transient + 2*max_period for every pixel,
    the depth the period stands for.

    A block runs its transient in place on one state at the full block
    width.  Its tail window then runs over chunks of columns: each worker
    holds one window of the first stage's 2*lags+1 states over a block (65
    x 8192 pair-states, 17 MB, at the defaults), so a stage of more lags
    fills and scans it over budget // (2*lags+1) columns at a time (two
    chunks of 4 127 at 64 lags) and hands each chunk's last state back to
    the block state.  The window does not grow with ``max_period`` beyond
    one column's 2*max_period+1 states, and since the arithmetic is
    elementwise per column, no output bit depends on the chunks.
    """
    _check_cycle_args(eps, max_period, transient, "transient")
    z0 = as_point(z0)
    eps2 = eps * eps
    total = window.nx * window.ny
    with np.errstate(over="ignore"):
        corners = np.abs(window.at(np.array([0, window.nx - 1, total - window.nx, total - 1])))
    if not np.isfinite(corners).all():
        raise ValueError("the window reaches a parameter of non-finite modulus")
    # (steps done, window start, lags scanned) per stage: each checkpoint whose
    # window ends inside the transient, then the transient itself
    starts = [c for c in RETIRE_CHECKPOINTS if c + 2 * min(c, max_period) <= transient]
    starts.append(transient)
    ends = [c + 2 * min(c, max_period) for c in starts]
    stages = [(done, c, min(c, max_period)) for done, c in zip([0] + ends, starts)]
    # one block state, a window of the first stage's states over a block (or
    # one column's longest window, if larger) and step scratch per worker,
    # kept through every stage: a fresh window per block inflates peak RSS
    # through heap retention
    cols = min(BLOCK_PIXELS, total)
    budget = max((2 * stages[0][2] + 1) * cols, 2 * max_period + 1)

    def make_buffer():
        return (np.empty((2, cols), dtype=complex), np.empty(2 * budget, dtype=complex),
                _pair_scratch(cols))

    def run(stage, idx, state, buf):
        done, start_step, lags = stage
        p = window.at(idx)
        P = _pair_params(p)
        S, win, scratch = buf
        S, scratch = S[:, :p.size], [a[..., :p.size] for a in scratch]
        r = _rescale_interval(np.abs(p).max())
        S[...] = state[0]
        _pair_run(P, S, scratch, start_step - done, r)
        # the last stage, at the end of the transient, scans at eps and keeps nothing
        last = start_step == transient
        scan = _lag_scan if last else _certified_period
        # the window runs over chunks of columns that fit the budget, and
        # hands each chunk's last state back to S
        rows = 2 * lags + 1
        chunk = budget // rows
        for c in range(0, p.size, chunk):
            n = min(chunk, p.size - c)
            T = win[:rows * 2 * n].reshape(rows, 2, n)
            T[0] = S[:, c:c + n]
            _pair_run(P[:, c:c + n], T[0], [a[..., :n] for a in scratch], 2 * lags, r,
                      rows=T[1:])
            period[idx[c:c + n]] = scan(T, lags, eps2)
            S[:, c:c + n] = T[-1]
        keep = np.flatnonzero(period[idx] < 0) if not last else np.empty(0, np.intp)
        return keep, S[:, keep]

    period = np.full(total, -1, dtype=np.int32)
    S0 = _value_pairs([z0._value])
    _run_blocks(total, BLOCK_PIXELS, workers, stages, run,
                (np.broadcast_to(S0, (2, total)),), make_buffer)
    shape = (window.ny, window.nx)
    period = period.reshape(shape)
    steps = np.full(shape, transient + 2 * max_period, dtype=np.int32)
    config = {
        "kind": "parameter-space", "z0": _json_point(z0),
        "window": window.to_json_dict(), "transient": transient,
        "max_period": max_period, "eps": eps,
    }
    return Raster(window, period >= 0, steps, period, config)


def bifurcation_sweep(start: complex = 0j, end: complex = 2j, samples: int = 800,
                      transient: int = 10_000, record: int = 50, z0=0j) -> Sweep:
    """|z| tail blocks along the parameter segment from start to end.

    Runs the orbit of z0 for ``transient`` iterations at every sampled
    parameter, then records |z| for the next ``record`` iterations.  Visits
    to the point at infinity are flagged rather than given a magnitude.
    ValueError if a sampled parameter has no finite modulus.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if record < 1:
        raise ValueError("need at least one recorded step")
    if transient < 0:
        raise ValueError(f"transient must be at least 0, got {transient}")
    t = np.arange(samples) / (samples - 1) if samples > 1 else np.zeros(1)
    # decided by the sampled values: numpy's overflow flag for this product
    # depends on its SIMD loop, not on the segment
    with np.errstate(over="ignore", invalid="ignore"):
        p = (np.asarray(start) + t * (np.asarray(end) - np.asarray(start))).astype(complex)
        size = np.abs(p)
    if not np.isfinite(size).all():
        raise ValueError(f"the segment from {start} to {end} samples a parameter "
                         "of non-finite modulus")
    z0 = as_point(z0)
    P, S = _pair_params(p), np.repeat(_value_pairs([z0._value]), samples, axis=1)
    scratch = _pair_scratch(samples)
    r = _rescale_interval(size.max())
    _pair_run(P, S, scratch, transient, r)
    tail = np.empty((record, 2, samples), dtype=complex)
    _pair_run(P, S, scratch, record, r, rows=tail)
    # a pair never vanishes, so |W| = 0 gives a ratio of inf
    with np.errstate(divide="ignore", over="ignore"):
        ratio = np.divide(*np.abs(tail).transpose(1, 2, 0))
    is_inf = ~np.isfinite(ratio)
    abs_z = np.where(is_inf, 0.0, ratio)
    config = {
        "kind": "sweep", "start": _json_complex(complex(start)), "end": _json_complex(complex(end)),
        "samples": samples, "transient": transient, "record": record,
        "z0": _json_point(z0),
    }
    return Sweep(p, transient + 1, abs_z, is_inf, config)


# ---------------------------------------------------------------------------
# artifact writers

def julia_grayscale(raster: Raster) -> np.ndarray:
    """Steps-to-capture as 8-bit grayscale: dark = fast, 255 = never captured.

    Captured pixels map monotonically dark-to-light as
    floor(255 * steps / max_iter), with max_iter from ``raster.config``,
    clipped to 254 so the white level stays reserved for non-convergence.
    With max_iter = 0 every captured pixel started on a target and is black.
    """
    gray = np.floor(255.0 * raster.steps / max(raster.config["max_iter"], 1)).astype(np.int64)
    gray = np.minimum(gray, 254)
    return np.where(raster.converged, gray, 255).astype(np.uint8)


def period_palette(max_period: int) -> np.ndarray:
    """RGB rows for periods 0..max_period (row 0, unused, is white)."""
    pal = np.empty((max_period + 1, 3), dtype=np.uint8)
    pal[0] = 255
    for q in range(1, max_period + 1):
        r, g, b = colorsys.hsv_to_rgb(q / (max_period + 1), 1.0, 1.0)
        pal[q] = (round(r * 255), round(g * 255), round(b * 255))
    return pal


def period_rgb(raster: Raster) -> np.ndarray:
    """Period raster as RGB: hue keyed to period over 1..max_period of
    ``raster.config``, white where unresolved."""
    max_period = raster.config["max_period"]
    pal = period_palette(max_period)
    idx = np.clip(raster.period, 0, max_period)
    rgb = pal[idx]
    rgb[raster.period <= 0] = 255
    return rgb


def write_pgm(path, gray: np.ndarray) -> None:
    """Binary (P5) PGM, maxval 255."""
    gray = np.ascontiguousarray(gray, dtype=np.uint8)
    ny, nx = gray.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (nx, ny))
        fh.write(gray.tobytes())


def write_ppm(path, rgb: np.ndarray) -> None:
    """Binary (P6) PPM, maxval 255."""
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    ny, nx, _ = rgb.shape
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (nx, ny))
        fh.write(rgb.tobytes())


def write_sweep_csv(path, sweep: Sweep) -> None:
    """CSV rows (p_re,p_im,step,abs_z,is_infinity); abs_z empty at infinity."""
    steps = [f",{int(sweep.start_step) + k}," for k in range(sweep.abs_z.shape[1])]
    rows = ["p_re,p_im,step,abs_z,is_infinity\n"]
    for p, zs, flags in zip(sweep.p.tolist(), sweep.abs_z.tolist(), sweep.is_infinity.tolist()):
        head = f"{p.real!r},{p.imag!r}"
        rows += [f"{head}{step},1\n" if flag else f"{head}{step}{z!r},0\n"
                 for step, z, flag in zip(steps, zs, flags)]
    with open(path, "w", newline="") as fh:
        fh.write("".join(rows))
