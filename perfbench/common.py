"""Pieces shared by the workloads: round results, the host-speed yardstick
and the traced boundaries."""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("cli", "atlas", "orbits", "roots", "sphere", "channel", "twoqubit")


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# host-speed yardstick
#
# The machine is shared, and a neighbour's load slows the in-process
# workloads alike, by up to 1.6 times for minutes at a time: their raw times
# of one commit spread between runs nearly as wide as any useful bound.  So
# each round also times a yardstick, fixed pure-Python work that runs no
# package code, interleaved with the round's own items, and a stage time is
# the raw time times YARDSTICK_REF_S / (the round's yardstick time): seconds
# at the speed the reference machine has when it is quiet.  A change to the
# package moves the raw time and not the yardstick, so it shows in full.

YARDSTICK_ITERS = 60_000
YARDSTICK_REF_S = 0.0040   # about the yardstick's fastest call on the reference machine (README)
YARDSTICK = "yardstick"    # the stage name of the interleaved yardstick calls


def yardstick(_=None) -> int:
    """The yardstick: a fixed loop of integer arithmetic, about 4 ms."""
    s = 0
    for i in range(YARDSTICK_ITERS):
        s += i * i % 7
    return s


def yardstick_times(calls: int) -> list[float]:
    """Wall times of ``calls`` yardstick calls made now."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        yardstick()
        times.append(time.perf_counter() - start)
    return times


def yardstick_plan(items: int, calls: int) -> tuple:
    """A ``run_interleaved`` stage of ``items`` items of ``calls`` yardstick calls.

    Interleaved with the workload's items, the yardstick samples the
    machine's speed through the whole round.
    """
    return [calls] * items, lambda n: [yardstick() for _ in range(n)]


def scaled_medians(stages, calls: int) -> tuple[dict, float]:
    """Each stage's median over the run's rounds, scaled round by round.

    ``calls`` is the number of yardstick calls in a round.  A round's scale
    is YARDSTICK_REF_S * calls over that round's yardstick time, so each
    round is scaled by the machine's speed while it ran; ``round_s`` is the
    same median of every stage but the yardstick summed.  Returns the
    values and the median scale.
    """
    scales = [YARDSTICK_REF_S * calls / sum(s.samples[YARDSTICK]) for s in stages]
    keys = [k for k in stages[0].samples if k != YARDSTICK]
    values = {k: median([sum(s.samples[k]) * c for s, c in zip(stages, scales)]) for k in keys}
    values["round_s"] = median([sum(sum(s.samples[k]) for k in keys) * c
                                for s, c in zip(stages, scales)])
    return values, median(scales)


@dataclass
class Stage:
    """Timing samples of one round, keyed by stage, plus its operation counts.

    ``deltas`` holds each stage's trace deltas when the round was traced.
    """

    samples: dict
    attempted: int
    failed: int
    wall_s: float = 0.0
    deltas: dict = field(default_factory=dict)


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_interleaved(plan: dict, times: dict, deltas: dict, tracer=None) -> dict:
    """Run every stage's items, interleaved so each stage spans the round.

    ``plan`` maps a stage name to (items, fn).  Item k of a stage with n
    items runs at position (k + 1/2)/n of the round, so a slow spell of the
    shared machine lands on every stage alike instead of on whichever stage
    happened to be running.  Each item's wall time goes to ``times[stage]``
    (in item order); with a tracer, ``deltas[stage]`` sums the trace deltas
    of the stage's items.  Returns each stage's results in item order.
    """
    order = sorted(((k + 0.5) / len(items), s, k)
                   for s, (items, _) in plan.items() for k in range(len(items)))
    out = {s: [None] * len(items) for s, (items, _) in plan.items()}
    for s, (items, _) in plan.items():
        times[s] = [0.0] * len(items)
        deltas[s] = {"calls": {}, "total_ns": {}, "self_ns": {}}
    clock = time.perf_counter
    for _, s, k in order:
        items, fn = plan[s]
        before = tracer.snapshot() if tracer else None
        start = clock()
        out[s][k] = fn(items[k])
        times[s][k] = clock() - start
        if tracer:
            for field, d in tracer.delta(before, tracer.snapshot()).items():
                acc = deltas[s][field]
                for key, v in d.items():
                    acc[key] = acc.get(key, 0) + v
    return out


def repeat_rounds(round_fn, seconds: float, between) -> tuple[list, dict]:
    """Whole rounds until about ``seconds`` have passed (at least one).

    ``between(elapsed)`` runs before each round, so the set-up probes that
    are due by then run between rounds.  A further round starts only when
    the mean round so far still fits in the time left.  Returns every
    round's :class:`Stage` and the last round's outputs.
    """
    stages, start = [], time.perf_counter()
    while True:
        between(time.perf_counter() - start)
        stage, outputs = round_fn()
        stages.append(stage)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(stages) > seconds:
            return stages, outputs


def rejects(fn) -> bool:
    """Whether a check raised CheckFailed on the corrupted input fn feeds it."""
    from reference import CheckFailed
    try:
        fn()
    except CheckFailed:
        return True
    return False


class Totals:
    """Per-name sums over layers from tracer snapshots or deltas, added up."""

    def __init__(self, *ds: dict):
        self.ds = ds

    def _sum(self, field, name):
        return sum(v for d in self.ds for (_, n), v in d[field].items() if n == name)

    def calls(self, name) -> int:
        return self._sum("calls", name)

    def total_ms(self, name) -> float:
        return self._sum("total_ns", name) / 1e6

    def self_ms(self, name) -> float:
        return self._sum("self_ns", name) / 1e6

    def mean_ms(self, name) -> float:
        calls = self.calls(name)
        return self.total_ms(name) / calls if calls else 0.0


def generic_layer_metrics(tracer) -> dict:
    """Per-layer numbers every traced round yields, whatever the workload.

    A metric whose boundary the workload never crosses reads 0.
    """
    t = Totals(tracer.snapshot())
    crit = tracer.span_durations_ms("orbits", "critical_orbits")
    out = {
        "orbits.critical_orbits_ms_p50": float(np.percentile(crit, 50)) if crit else 0.0,
        "orbits.critical_orbits_ms_p95": float(np.percentile(crit, 95)) if crit else 0.0,
        "orbits.detect_cycle_calls": t.calls("detect_cycle"),
        "orbits.detect_cycle_self_ms": t.self_ms("detect_cycle"),
        "roots.coeffs_ms_n5": t.mean_ms("fixed_point_polynomial[n=5]"),
        "sphere.apply_map_us": t.mean_ms("apply_map") * 1e3,
        "sphere.spherical_derivative_us": t.mean_ms("spherical_derivative") * 1e3,
        "channel.step_density_us": t.mean_ms("step_density") * 1e3,
        "twoqubit.step_us": t.mean_ms("step_two_qubit") * 1e3,
    }
    for n in range(1, 6):
        out[f"orbits.periodic_cycles_ms_n{n}"] = t.mean_ms(f"periodic_cycles[n={n}]")
    for n in range(3, 7):
        out[f"roots.aberth_ms_deg{2 ** n + 1}"] = t.mean_ms(f"aberth_roots[deg={2 ** n + 1}]")
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = tracer.layer_self_ns.get(layer, 0) / 1e6
    return out


def _degree_name(coeffs, *args, **kwargs) -> str:
    # a degree-(2**n + 1) solve may lose its top coefficient when infinity is
    # periodic, so name it by the n it belongs to
    n = max(1, (len(coeffs) - 3).bit_length())
    return f"aberth_roots[deg={2 ** n + 1}]"


def _by_ndim(name):
    return lambda rho, *a, **k: name if getattr(rho, "ndim", 2) == 2 else name + "_batch"


def install_boundaries(tracer, sink: dict) -> None:
    """Wrap the public functions at each module boundary of the package.

    Spanned: the atlas functions the CLI imports, the orbits functions the
    benchmark and the CLI call, the roots functions orbits imports, and the
    channel/twoqubit steps.  Counted only: the sphere calls orbits makes
    (apply_map, spherical_derivative), detect_cycle and the Newton polish.
    ``sink`` collects the pixel-steps of every julia raster.
    """
    from qubit_chaos import atlas, channel, cli, orbits, twoqubit

    def count_steps(raster):
        sink["julia_px_steps"] = sink.get("julia_px_steps", 0) + int(raster.steps.sum())

    for mod in (cli, atlas):
        tracer.patch(mod, "render_julia", "atlas", observe=count_steps)
    for name in ("render_parameter_space", "bifurcation_sweep",
                 "julia_grayscale", "period_rgb", "write_pgm", "write_ppm",
                 "write_sweep_csv", "write_sidecar"):
        tracer.patch(cli, name, "atlas")
    for name in ("periodic_cycles", "iterate_orbit", "lyapunov_derivative", "lyapunov_overlap"):
        tracer.patch(cli, name, "orbits")
    for name in ("purification_trace", "write_trace_csv"):
        tracer.patch(cli, name, "twoqubit")
    tracer.patch(atlas, "critical_orbits", "orbits")
    for name in ("critical_orbits", "classify_basin", "lyapunov_derivative", "lyapunov_overlap"):
        tracer.patch(orbits, name, "orbits")
    tracer.patch(orbits, "periodic_cycles", "orbits", lambda p, n, **k: f"periodic_cycles[n={n}]")
    tracer.patch(orbits, "find_periodic_points", "orbits",
                 lambda p, n, **k: f"find_periodic_points[n={n}]")
    tracer.patch(orbits, "detect_cycle", "orbits", spanned=False)
    tracer.patch(orbits, "_polish_periodic_point", "orbits",
                 lambda p, pt, q, *a, **k: f"polish[n={q}]", spanned=False)
    tracer.patch(orbits, "fixed_point_polynomial", "roots",
                 lambda p, n: f"fixed_point_polynomial[n={n}]")
    tracer.patch(orbits, "aberth_roots", "roots", _degree_name)
    tracer.patch(orbits, "apply_map", "sphere", spanned=False)
    tracer.patch(orbits, "spherical_derivative", "sphere", spanned=False)
    tracer.patch(channel, "step_density", "channel", _by_ndim("step_density"))
    tracer.patch(twoqubit, "step_two_qubit", "twoqubit", _by_ndim("step_two_qubit"))
