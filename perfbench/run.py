"""Benchmark of the qubit_chaos package: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  The run builds the workload's
inputs from the seed, measures whole rounds for about T seconds (at least
one round), checks every output against a reference computed apart from the
package, checks that every check rejects a corrupted copy of its input, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, ``setup_s`` being the median of several fresh interpreters
that set the workload up (``probe.py``), spread through the run, and the
in-process workloads' stage times being scaled by a host-speed yardstick
timed beside them (``common``); with ``--trace 1`` a traced round runs
instead and the metrics are the per-layer ones.  The line before it is the per-run record
(machine, versions, thread count, operation counts, artifact hashes), also
written with the spans to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

from common import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# name -> unit; every metric here is better when lower
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "round_s": "s",
              "stage1_s": "s", "stage2_s": "s", "stage3_s": "s", "stage4_s": "s"}
PER_LAYER = {
    "atlas.params_ns_per_px_step": "ns", "atlas.julia_ns_per_px_step": "ns",
    "atlas.julia_targets_ms": "ms", "atlas.sweep_ns_per_sample_step": "ns",
    "atlas.write_csv_ms": "ms", "atlas.write_image_ms": "ms",
    "orbits.critical_orbits_ms_p50": "ms", "orbits.critical_orbits_ms_p95": "ms",
    "orbits.detect_cycle_calls": "count", "orbits.detect_cycle_self_ms": "ms",
    **{f"orbits.periodic_cycles_ms_n{n}": "ms" for n in range(1, 6)},
    "orbits.polish_self_ms_n5": "ms", "orbits.classify_basin_ns_per_pt_step": "ns",
    "orbits.lyapunov_us_per_step": "us",
    "roots.coeffs_ms_n5": "ms", **{f"roots.aberth_ms_deg{2 ** n + 1}": "ms" for n in range(3, 7)},
    "sphere.apply_map_us": "us", "sphere.apply_map_calls": "count",
    "sphere.spherical_derivative_us": "us",
    "channel.step_density_us": "us", "channel.step_density_batch_ns_per_state": "ns",
    "twoqubit.step_us": "us", "twoqubit.step_batch_ns_per_state": "ns",
    "cli.startup_s": "s", "cli.julia_rss_mb": "MB", "cli.params_rss_mb": "MB",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.overhead_s": "s", "trace.spans": "count",
}
SETUP_PROBES = 5


def load_workloads():
    from wl_basin import BasinCapture
    from wl_cli import CliDefaults
    from wl_scalar import ScalarAnalysis
    return {w.name: w for w in (CliDefaults, ScalarAnalysis, BasinCapture)}


def import_package():
    """Import qubit_chaos from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "qubit_chaos", "__init__.py")):
        sys.exit(f"error: no package source at {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import qubit_chaos
    if os.path.dirname(os.path.dirname(os.path.abspath(qubit_chaos.__file__))) != SRC:
        sys.exit(f"error: qubit_chaos was imported from {qubit_chaos.__file__}, not {SRC}")
    return qubit_chaos


class SetupProbes:
    """Wall times of fresh interpreters that import, build inputs and warm up.

    Probe k runs at the first pause in the measured work after (k + 1/2)/n
    of the run's seconds, so that a slow spell of the shared machine falls
    on one probe rather than on all of them; a probe not yet run when the
    measuring ends runs then (:meth:`finish`).
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.argv = [sys.executable, os.path.join(HERE, "probe.py"),
                     "--workload", workload, "--seed", str(seed)]
        self.due = [(k + 0.5) * seconds / SETUP_PROBES for k in range(SETUP_PROBES)]
        self.times: list[float] = []

    def __call__(self, elapsed: float) -> None:
        while self.due and elapsed >= self.due[0]:
            self._probe()

    def finish(self) -> list[float]:
        while self.due:
            self._probe()
        return self.times

    def _probe(self) -> None:
        self.due.pop(0)
        start = time.perf_counter()
        subprocess.run(self.argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        self.times.append(time.perf_counter() - start)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    qc = import_package()
    workloads = load_workloads()
    if args.workload not in workloads:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    workdir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    import numpy as np
    from common import median
    from reference import CheckFailed
    from tracer import Tracer

    setup_times = []
    wl = workloads[args.workload](ROOT, args.seed, workdir)
    wl.warm_up()

    metrics, named, problems = {}, {}, []
    if args.trace:
        tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        outputs, layer, plain_s, traced_s, stage = wl.traced(tracer)
        from common import generic_layer_metrics
        layer_values = generic_layer_metrics(tracer)
        layer_values.update(layer)
        layer_values["trace.overhead_s"] = traced_s - plain_s
        layer_values["trace.spans"] = len(tracer.spans)
        tracer.write_spans(os.path.join(workdir, "spans.jsonl"))
        metrics = {name: {"value": float(layer_values.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        attempted, failed, rounds = stage.attempted, stage.failed, 2
        named = {"untraced_round_s": plain_s, "traced_round_s": traced_s}
    else:
        probes = SetupProbes(args.workload, args.seed, args.seconds)
        stages, outputs = wl.measure(args.seconds, probes)
        setup_times = probes.finish()
        values = wl.stage_metrics(stages)
        values["setup_s"] = median(setup_times)
        values["peak_rss_mb"] = wl.peak_rss_mb()
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
        named = wl.named_metrics(values)
        named["round_samples"] = [{"wall_s": s.wall_s, **{k: sum(v) for k, v in s.samples.items()}}
                                  for s in stages]
        attempted = sum(s.attempted for s in stages)
        failed = sum(s.failed for s in stages)
        rounds = len(stages)

    selftests = {}
    try:
        checked = wl.check(outputs)
        selftests = wl.selftests(checked)
        problems += [f"self-test accepted a corrupted output: {k}" for k, ok in selftests.items() if not ok]
    except CheckFailed as exc:
        problems.append(f"check failed: {exc}")
    shutil.rmtree(os.path.join(workdir, "artifacts"), ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "rounds": rounds,
        "nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "package": qc.__version__, "attempted": attempted, "failed": failed,
        "setup_samples_s": setup_times, "named_metrics": named, "selftests": selftests,
        "problems": problems, **wl.record(),
    }
    with open(os.path.join(workdir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    for line in problems:
        print(line, file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
