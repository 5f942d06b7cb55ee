"""Raster and sweep pipelines over the map's dynamical and parameter planes.

Three instruments:

* :func:`render_julia` -- per-pixel convergence of initial conditions toward
  the known attracting cycles of a fixed parameter (steps-to-capture raster,
  written as a grayscale PGM: dark = fast capture, white = never captured).
* :func:`render_parameter_space` -- per-pixel period of the cycle the
  critical orbit settles into as the parameter varies (period raster,
  written as a color PPM keyed by period; white = no settling).
* :func:`bifurcation_sweep` -- |z| samples recorded after a long transient
  along a line segment of parameters (CSV).

Every pipeline steps projective pairs through the in-place kernel of
:mod:`qubit_chaos.kernel`; the julia raster runs its blocked capture
runner, the one ``classify_basin`` runs with the roundoff certificate on.

Both rasters run in stages over fixed-size pixel blocks and pool the pixels
a stage leaves live, in pixel order, into full blocks for the next, so late
steps do not run on a few live pixels per block.  The julia raster runs
every pixel to step K = floor(log2(eps/SEED_ROUNDOFF)), 32 at eps = 1e-6,
up to which the roundoff certificate refuses no capture.  The parameter
raster retires a pixel at a checkpoint (RETIRE_CHECKPOINTS) if its period
is certified there: the kernel's lag scan runs at a wide radius, then the
lag it finds must pass a tight radius and a contracting multiplier (the
RETIRE_* constants below); 13% of the default window is left after step
384 to run out the transient and the lag scan at eps.  Retirement never
changes a period -- the tests check it pixel for pixel against straight
iteration -- it only skips iterations.

Blocks and pooled pixels never depend on the worker count, and arithmetic
is elementwise within a block, so output is bit-identical however many
threads run (``workers`` only caps the pool); an identical config
reproduces the payload bit-for-bit.
"""

from __future__ import annotations

import colorsys
import json
import math
import queue
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .kernel import (
    _check_capture_args,
    _lag_scan,
    _pair_params,
    _pair_rate,
    _pair_rescale,
    _pair_run,
    _pair_scratch,
    _pair_step,
    _pairs_within,
    _point_values,
    _rescale_interval,
    _run_capture,
    _run_stage,
    _start_pairs,
    _target_pairs,
)
from .orbits import (
    ConfigurationError,
    Cycle,
    _check_cycle_args,
    _fmt_point,
    _target_cycles,
    critical_orbits,  # no caller here: the benchmark's trace hooks patch this name
)
from .sphere import MapParam, as_point

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
# scan after the full transient finds the same q0.  The tight radius keeps
# slow period doublings near |multiplier| = 1 iterating: with RETIRE_TIGHT =
# 0.5 and no contraction margin, 205 pixels of the default window on the arc
# through p = 0.68+1.59i retire with period 6 where the full run settles to 2.
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
    centered on the real axis samples exactly conjugate pixel pairs.
    """

    center: complex
    width: float
    height: float
    nx: int
    ny: int

    def __post_init__(self):
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
        """Pixel centers of the flat indices idx, as grid().ravel() has them
        (formed per block: the whole grid would raise the peak memory)."""
        return self.real_axis()[idx % self.nx] + 1j * self.imag_axis()[idx // self.nx]

    def to_json_dict(self) -> dict:
        return {
            "center": [self.center.real, self.center.imag],
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
    config: dict = field(default_factory=dict)


@dataclass
class Sweep:
    """Recorded |z| tail blocks along a parameter segment."""

    p: np.ndarray           # (samples,) complex parameters
    start_step: int         # global index of the first recorded step
    abs_z: np.ndarray       # (samples, record) float, junk where is_infinity
    is_infinity: np.ndarray  # (samples, record) bool
    config: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# parameter-raster kernel

def _pair_tail(P, S, scratch, window: np.ndarray, r: int) -> None:
    """Fill ``window`` (rows of stacked pairs) with consecutive states from S,
    rescaling rows 0, r, 2r, ..., so that no row is read more than r - 1
    steps past a rescale (:func:`qubit_chaos.kernel._rescale_interval`)."""
    _, A, E = scratch
    window[0] = S
    for i, row in enumerate(window):
        if i:
            _pair_step(P, window[i - 1], scratch, out=row)
        if i % r == 0:
            _pair_rescale(row, np.abs(row, out=A), A, E)


def _certified_period(T, max_period: int, eps2: float) -> np.ndarray:
    """Period each pixel of the tail window T is certified to settle into,
    or -1 (the RETIRE_* rule).

    Scan at the wide radius, then check the tight radius and the
    contraction: the lag scan at RETIRE_MARGIN*eps gives each pixel the
    smallest lag q0 with no pair wide apart, and q0 stands only if all of
    its q0 pairs match within RETIRE_TIGHT*eps and the multiplier over the
    last q0 states has modulus at most 1 - RETIRE_CONTRACTION.  Offset k
    checks, in one pass, every candidate with q0 > k still tight.
    """
    q0 = _lag_scan(T, max_period, eps2 * RETIRE_MARGIN ** 2)
    last = len(T) - 1
    tight2 = eps2 * RETIRE_TIGHT ** 2
    cand = np.flatnonzero(q0 > 0)
    q = q0[cand]
    tight = np.ones(cand.size, dtype=bool)
    log_lam = np.zeros(cand.size)
    for k in range(q.max(initial=0)):
        sel = np.flatnonzero(tight & (q > k))
        cols = cand[sel]
        A = T[last - k].take(cols, axis=1)
        tight[sel] = _pairs_within(A, T[last - k - q[sel], :, cols].T, tight2)
        with np.errstate(divide="ignore"):  # a critical hit: log 0 = -inf
            log_lam[sel] += np.log(_pair_rate(*np.abs(A)))
    q0[cand[~tight | (log_lam > math.log1p(-RETIRE_CONTRACTION))]] = -1
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
    steps = max_iter and period = -1.  Requires 0 < eps < 1 and
    max_iter >= 0; ValueError otherwise.  The pixels run through the
    blocked capture runner :func:`qubit_chaos.kernel._run_capture`, which
    ``classify_basin`` runs with the roundoff certificate on.
    """
    _check_capture_args(eps, max_iter)
    cycles = _target_cycles(param, cycles)
    targets = _target_pairs(cycles)
    steps, label, _ = _run_capture(param.p, lambda start, stop: window.at(np.arange(start, stop)),
                                   window.nx * window.ny, targets, eps, max_iter, workers=workers)
    shape = (window.ny, window.nx)
    # label -1 (never captured) picks the trailing -1
    period = np.array([c.period for c in cycles] + [-1], np.int32)[label].reshape(shape)
    converged = period >= 0
    steps = np.where(converged, steps.reshape(shape), max_iter)
    config = {
        "kind": "julia", "p": [param.p.real, param.p.imag],
        "window": window.to_json_dict(), "max_iter": max_iter, "eps": eps,
        "targets": [[_fmt(tz), _fmt(tw), cycles[i].period] for tz, tw, _, i in targets],
    }
    return Raster(window, converged, steps, period, config)


def _fmt(c: complex) -> list[float]:
    return [c.real, c.imag]


def render_parameter_space(window: Window, z0=0j, transient: int = 2000,
                           max_period: int = 64, eps: float = 1e-6,
                           workers: Optional[int] = None) -> Raster:
    """Settled cycle period of the orbit of z0 as the parameter varies.

    Each pixel is its own map parameter.  After ``transient`` iterations the
    next 2*max_period+1 points are scanned for the smallest lag q whose
    matches are sustained over a full extra period (the same rule the scalar
    detector uses), with eps in sqrt-overlap units.  Pixels with no settled
    lag are marked unconverged.  Requires 0 < eps < 1, max_period >= 1 and
    transient >= 2*max_period; ValueError otherwise.

    The raster runs in stages, each over fixed blocks of BLOCK_PIXELS
    pixels.  At each checkpoint c of RETIRE_CHECKPOINTS whose window of
    2*min(c, max_period)+1 states ends inside the transient (steps 96 and
    384 at the defaults), a pixel whose orbit is already certified to have
    settled stops early: it retires with period q0 if q0 is the smallest lag
    matching within RETIRE_MARGIN*eps, all of its matches lie within
    RETIRE_TIGHT*eps, and the multiplier over those q0 states has modulus
    at most 1 - RETIRE_CONTRACTION.  The pixels left over from every block
    are pooled in pixel order, with their last window state, into fresh
    full blocks for the next stage, so their orbit is the uninterrupted
    one; the last stage runs the rest of the transient and the lag scan.
    Retirement never changes a period: it is the one the full transient and
    scan report.  So ``steps`` still records transient + 2*max_period for
    every pixel, the depth the period stands for.
    """
    _check_cycle_args(eps, max_period)
    if transient < 2 * max_period:
        raise ValueError("transient must be at least 2*max_period")
    z0 = as_point(z0)
    S0 = _start_pairs(_point_values([z0]))
    eps2 = eps * eps
    total = window.nx * window.ny
    # one window of tail states plus step scratch per worker, kept through
    # every stage: a fresh window per block inflates peak RSS through heap
    # retention
    buffers = queue.SimpleQueue()
    cols = min(BLOCK_PIXELS, total)

    def make_buffer():
        return np.empty((2 * max_period + 1, 2, cols), dtype=complex), _pair_scratch(cols)

    # (window start, lags scanned) per stage: each checkpoint whose window
    # ends inside the transient, then the transient itself
    stages = [(c, min(c, max_period)) for c in RETIRE_CHECKPOINTS
              if c + 2 * min(c, max_period) <= transient]
    stages.append((transient, max_period))
    period = np.full(total, -1, dtype=np.int32)
    live = np.arange(total)  # pixels still iterating, in pixel order
    S_live = np.broadcast_to(S0, (2, total))  # their states after `done` steps
    done = 0
    for i, (start_step, lags) in enumerate(stages):
        if live.size == 0:
            break
        final = i == len(stages) - 1

        def stage(start, stop, buf):
            idx = live[start:stop]
            p = window.at(idx)
            P, S = _pair_params(p), S_live[:, start:stop].copy()
            win, scratch = buf
            win, scratch = win[:2 * lags + 1, :, :p.size], [a[..., :p.size] for a in scratch]
            r = _rescale_interval(np.abs(p).max())
            _pair_run(P, S, scratch, start_step - done, r)
            _pair_tail(P, S, scratch, win, r)
            # the last stage scans at eps and leaves no pixel live
            period[idx] = q0 = (_lag_scan if final else _certified_period)(win, lags, eps2)
            keep = np.flatnonzero((q0 < 0) & (not final))
            return idx[keep], win[-1][:, keep]

        live, S_live = _run_stage(live, BLOCK_PIXELS, workers, stage, buffers, make_buffer)
        done = start_step + 2 * lags
    shape = (window.ny, window.nx)
    period = period.reshape(shape)
    steps = np.full(shape, transient + 2 * max_period, dtype=np.int32)
    config = {
        "kind": "parameter-space", "z0": _fmt_point(z0),
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
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if record < 1:
        raise ValueError("need at least one recorded step")
    if transient < 0:
        raise ValueError(f"transient must be at least 0, got {transient}")
    t = np.arange(samples) / (samples - 1) if samples > 1 else np.zeros(1)
    p = np.asarray(start) + t * (np.asarray(end) - np.asarray(start))
    p = p.astype(complex)
    z0 = as_point(z0)
    P, S = _pair_params(p), np.repeat(_start_pairs(_point_values([z0])), samples, axis=1)
    scratch = _pair_scratch(samples)
    r = _rescale_interval(np.abs(p).max())
    _pair_run(P, S, scratch, transient, r)
    abs_z = np.empty((samples, record), dtype=float)
    is_inf = np.empty((samples, record), dtype=bool)
    for k in range(record):
        Z, W = _pair_run(P, S, scratch, 1, r)
        aw = np.abs(W)
        flag = aw == 0.0
        with np.errstate(divide="ignore", over="ignore"):
            ratio = np.abs(Z) / aw
        flag |= ~np.isfinite(ratio)
        abs_z[:, k] = np.where(flag, 0.0, ratio)
        is_inf[:, k] = flag
    config = {
        "kind": "sweep", "start": _fmt(complex(start)), "end": _fmt(complex(end)),
        "samples": samples, "transient": transient, "record": record,
        "z0": _fmt_point(z0),
    }
    return Sweep(p, transient + 1, abs_z, is_inf, config)


# ---------------------------------------------------------------------------
# artifact writers

def julia_grayscale(raster: Raster, max_iter: Optional[int] = None) -> np.ndarray:
    """Steps-to-capture as 8-bit grayscale: dark = fast, 255 = never captured.

    Captured pixels map monotonically dark-to-light as
    floor(255 * steps / max_iter), clipped to 254 so the white level stays
    reserved for non-convergence.  With max_iter = 0 every captured pixel
    started on a target and is black.
    """
    if max_iter is None:
        max_iter = int(raster.config.get("max_iter", raster.steps.max() or 1))
    gray = np.floor(255.0 * raster.steps / max(max_iter, 1)).astype(np.int64)
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


def period_rgb(raster: Raster, max_period: Optional[int] = None) -> np.ndarray:
    """Period raster as RGB: hue keyed to period, white where unresolved."""
    if max_period is None:
        max_period = int(raster.config.get("max_period", max(1, raster.period.max())))
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
    with open(path, "w", newline="") as fh:
        fh.write("p_re,p_im,step,abs_z,is_infinity\n")
        samples, record = sweep.abs_z.shape
        for i in range(samples):
            pre, pim = float(sweep.p[i].real), float(sweep.p[i].imag)
            for k in range(record):
                step = int(sweep.start_step) + k
                if sweep.is_infinity[i, k]:
                    fh.write(f"{pre!r},{pim!r},{step},,1\n")
                else:
                    fh.write(f"{pre!r},{pim!r},{step},{float(sweep.abs_z[i, k])!r},0\n")


def write_sidecar(artifact_path, config: dict) -> str:
    """Write ``<artifact>.json`` recording the full job config; returns its path."""
    sidecar = f"{artifact_path}.json"
    with open(sidecar, "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar
