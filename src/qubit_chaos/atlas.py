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
:mod:`qubit_chaos.kernel`; the julia raster runs its capture loop, the one
``classify_basin`` runs with the roundoff certificate on.

The parameter raster runs in two phases.  First every block iterates to a
checkpoint inside the transient and retires each pixel whose period is
certified there: a tight lag match, a wide miss at every smaller lag and a
contracting multiplier (the RETIRE_* constants below).  Then the survivors
of all blocks, ~13% of the default window, are pooled in pixel order into
fresh full blocks that run the rest of the transient and the lag scan.
Retirement never changes a period -- the tests check it pixel for pixel
against straight iteration -- it only skips iterations.

Rasters are computed in fixed-size pixel blocks.  The block decomposition
never depends on the worker count (the pooled survivors are the pixels that
did not certify, whoever ran their block), and arithmetic is elementwise
within a block, so output is bit-identical no matter how many threads run
(``workers`` only caps the pool).  Rerunning any pipeline with an identical
config reproduces the payload bit-for-bit.
"""

from __future__ import annotations

import colorsys
import json
import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .kernel import (
    _capture,
    _check_capture_args,
    _pair_params,
    _pair_rate,
    _pair_scratch,
    _pair_start,
    _pair_step,
    _start_pairs,
    _target_pairs,
)
from .orbits import ConfigurationError, Cycle, critical_orbits
from .sphere import MapParam, SpherePoint, as_point

BLOCK_PIXELS = 8192  # fixed split unit; independent of worker count

PALETTE_VERSION = "period-hue-v1"

# Early retirement in the parameter raster.  After RETIRE_CHECKPOINT steps
# the next 2*max_period+1 states are scanned, and a pixel stops iterating
# with period q0 only when all three hold:
#   (a) q0 is the smallest lag whose matches all lie within RETIRE_TIGHT*eps;
#   (b) every lag below q0 has a pair more than RETIRE_MARGIN*eps apart;
#   (c) the chart-free multiplier over the last q0 states has modulus at most
#       1 - RETIRE_CONTRACTION (a critical hit gives 0 and certifies).
# A cycle that attracts this strongly holds an orbit this close to it
# (Milnor, Dynamics in One Complex Variable, 3rd ed., Sec. 8), so the lag
# scan after the full transient finds the same q0.  The tight radius keeps
# slow period doublings near |multiplier| = 1 iterating: with RETIRE_TIGHT =
# 0.5 and no contraction margin, 205 pixels of the default window on the arc
# through p = 0.68+1.59i retire with period 6 where the full run settles to 2.
RETIRE_CHECKPOINT = 256
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

def _pair_tail(P, S, scratch, window: np.ndarray) -> None:
    """Fill ``window`` (rows of stacked pairs) with consecutive states from S."""
    window[0] = S
    for i in range(1, len(window)):
        _pair_step(P, window[i - 1], scratch, out=window[i])


def _lag_scan(Zs, Ws, max_period: int, eps2: float) -> np.ndarray:
    """Smallest lag whose last q pairs all match within eps, or -1."""
    tail_len = len(Zs)
    period = np.full(Zs.shape[1:], -1, dtype=np.int32)
    open_ = np.arange(period.size)  # pixels with no matching lag yet
    for q in range(1, max_period + 1):
        idx = open_
        for k in range(q):
            a, b = tail_len - 1 - k, tail_len - 1 - k - q
            za, wa, zb, wb = Zs[a, idx], Ws[a, idx], Zs[b, idx], Ws[b, idx]
            cross = np.abs(za * wb - zb * wa) ** 2
            na = np.abs(za) ** 2 + np.abs(wa) ** 2
            nb = np.abs(zb) ** 2 + np.abs(wb) ** 2
            idx = idx[cross < eps2 * na * nb]
            if idx.size == 0:
                break
        if idx.size:
            period[idx] = q
            open_ = open_[period[open_] < 0]
            if open_.size == 0:
                break
    return period


def _certified_period(p, pc, Zs, Ws, max_period: int, eps2: float) -> np.ndarray:
    """Period each pixel is certified to settle into, or -1 (RETIRE_* rule)."""
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
            rate = _pair_rate(p[idx], pc[idx], Zs[tail_len - 1 - j, idx],
                              Ws[tail_len - 1 - j, idx])
            with np.errstate(divide="ignore"):  # a critical hit: log 0 = -inf
                log_lam[sel] += np.log(rate)
        q0[cand[log_lam > math.log1p(-RETIRE_CONTRACTION)]] = -1
    return q0


def _run_blocks(total: int, workers: Optional[int], fn, out_arrays,
                buffers: Optional[queue.SimpleQueue] = None, make_buffer=lambda: None):
    """Apply fn(start, stop, buffer) over fixed-size blocks, assembling the
    results into out_arrays along their last axis.

    A block takes a buffer from ``buffers`` or, when none is free, a new one
    from ``make_buffer()``, and puts it back once its results are copied out.
    At most one buffer per worker is ever made, and runs passing the same
    ``buffers`` queue reuse them.
    """
    if buffers is None:
        buffers = queue.SimpleQueue()
    blocks = [(s, min(s + BLOCK_PIXELS, total)) for s in range(0, total, BLOCK_PIXELS)]

    def run(block):
        start, stop = block
        try:
            buf = buffers.get_nowait()
        except queue.Empty:
            buf = make_buffer()
        for out, res in zip(out_arrays, fn(start, stop, buf)):
            out[..., start:stop] = res
        buffers.put(buf)

    nworkers = workers if workers else min(8, os.cpu_count() or 1)
    if nworkers <= 1 or len(blocks) <= 1:
        for b in blocks:
            run(b)
    else:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            list(pool.map(run, blocks))


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
    max_iter >= 0; ValueError otherwise.
    """
    _check_capture_args(eps, max_iter)
    if cycles is None:
        report = critical_orbits(param)
        cycles = report.attracting_cycles()
        if not cycles:
            raise ConfigurationError(
                f"no attracting cycle found for p={param.p}; supply target "
                "cycles explicitly to render anyway"
            )
    targets = _target_pairs(cycles)
    eps2 = eps * eps
    S0 = _start_pairs(window.grid().ravel())
    total = S0.shape[1]
    steps, label = np.empty((2, total), dtype=np.int32)

    def block(start, stop, _):
        return _capture(param.p, S0[:, start:stop].copy(), targets, eps2, max_iter)[:2]

    _run_blocks(total, workers, block, (steps, label))
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

    The raster runs in two phases, each over fixed blocks of BLOCK_PIXELS
    pixels.  In the first, a pixel whose orbit is already certified to have
    settled stops early: at step RETIRE_CHECKPOINT it retires with period
    q0 if q0 is the smallest lag matching within RETIRE_TIGHT*eps, every
    smaller lag misses by more than RETIRE_MARGIN*eps, and the multiplier
    over those q0 states has modulus at most 1 - RETIRE_CONTRACTION.  In the
    second, the pixels left over from every block are pooled in pixel order,
    with their last checkpoint-window state, into fresh full blocks that run
    the rest of the transient and the lag scan, so their orbit is the
    uninterrupted one.  (With a transient too short for the checkpoint
    window, every pixel runs the second phase from z0.)  Retirement never
    changes a period: it is the one the full transient and scan report.  So
    ``steps`` still records transient + 2*max_period for every pixel, the
    depth the period stands for.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be finite and in (0, 1), got {eps!r}")
    if max_period < 1:
        raise ValueError(f"max_period must be at least 1, got {max_period}")
    if transient < 2 * max_period:
        raise ValueError("transient must be at least 2*max_period")
    z0 = as_point(z0)
    eps2 = eps * eps
    total = window.nx * window.ny
    re, im = window.real_axis(), window.imag_axis()

    def params_at(idx):
        """Parameters of the flat pixel indices idx, as window.grid() has them
        (formed per block: the whole grid would raise the peak memory)."""
        return re[idx % window.nx] + 1j * im[idx // window.nx]

    tail_len = 2 * max_period + 1
    # one window of tail states plus step scratch per worker, kept through
    # both phases: a fresh window per block inflates peak RSS through heap
    # retention
    buffers = queue.SimpleQueue()
    cols = min(BLOCK_PIXELS, total)

    def make_buffer():
        return np.empty((tail_len, 2, cols), dtype=complex), _pair_scratch(cols)

    def fit(buf, n):
        win, (S2, A) = buf
        return win[:, :, :n], (S2[:, :n], A[:, :n])

    period = np.full(total, -1, dtype=np.int32)
    done = 0
    if RETIRE_CHECKPOINT + tail_len - 1 <= transient:
        # per block: the pixels left uncertified and their last window state
        left = [None] * -(-total // BLOCK_PIXELS)

        def checkpoint(start, stop, buf):
            p = params_at(np.arange(start, stop))
            P, S = _pair_params(p), _pair_start(z0, p.size)
            win, scratch = fit(buf, p.size)
            for _ in range(RETIRE_CHECKPOINT):
                _pair_step(P, S, scratch)
            _pair_tail(P, S, scratch, win)
            q0 = _certified_period(p, np.conj(p), win[:, 0], win[:, 1], max_period, eps2)
            live = np.flatnonzero(q0 < 0)
            left[start // BLOCK_PIXELS] = start + live, win[-1][:, live]
            return (q0,)

        _run_blocks(total, workers, checkpoint, (period,), buffers, make_buffer)
        live = np.concatenate([idx for idx, _ in left])
        S_live = np.concatenate([S for _, S in left], axis=1)
        del left
        done = RETIRE_CHECKPOINT + tail_len - 1
    else:
        live = np.arange(total)
        S_live = _pair_start(z0, total)

    def survivors(start, stop, buf):
        p = params_at(live[start:stop])
        P, S = _pair_params(p), S_live[:, start:stop].copy()
        win, scratch = fit(buf, p.size)
        for _ in range(transient - done):
            _pair_step(P, S, scratch)
        _pair_tail(P, S, scratch, win)
        return (_lag_scan(win[:, 0], win[:, 1], max_period, eps2),)

    settled = np.empty(live.size, dtype=np.int32)
    _run_blocks(live.size, workers, survivors, (settled,), buffers, make_buffer)
    period[live] = settled
    shape = (window.ny, window.nx)
    period = period.reshape(shape)
    steps = np.full(shape, transient + 2 * max_period, dtype=np.int32)
    config = {
        "kind": "parameter-space", "z0": _point_json(z0),
        "window": window.to_json_dict(), "transient": transient,
        "max_period": max_period, "eps": eps,
    }
    return Raster(window, period >= 0, steps, period, config)


def _point_json(pt: SpherePoint):
    return "inf" if pt.is_infinity else [pt.value.real, pt.value.imag]


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
    P, S = _pair_params(p), _pair_start(z0, samples)
    scratch = _pair_scratch(samples)
    for _ in range(transient):
        _pair_step(P, S, scratch)
    abs_z = np.empty((samples, record), dtype=float)
    is_inf = np.empty((samples, record), dtype=bool)
    for k in range(record):
        Z, W = _pair_step(P, S, scratch)
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
        "z0": _point_json(z0),
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
