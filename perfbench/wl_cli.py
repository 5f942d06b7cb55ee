"""Workload ``cli-defaults``: the README command lines, one process each.

A run starts every command line once as written in the README and replays
them from the argv stored in their sidecars (see
:meth:`CliDefaults.measure`), so the sidecar replay contract is checked on
the way.  Each process runs through
``child.py``, which only adds a report of its peak memory.
``julia`` and ``params`` get ``--threads=N``, where N is the CLI's own
default (min(8, os.cpu_count())) capped at the cores this process may run
on; the sidecar does not store the thread count, so the replay gets the
same flag appended.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from child import TAG
from common import YARDSTICK_REF_S, Stage, Totals, install_boundaries, median, rejects, yardstick_times

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")

COMMANDS = [
    ("julia", ["julia", "--p=1.0", "--out=figs/p1"]),
    ("params", ["params", "--res=500x500"]),
    ("sweep", ["sweep", "--start=0+0i", "--end=0+2i", "--samples=800"]),
    ("cycles", ["cycles", "--p=0+1i", "--n=2"]),
    ("lyapunov", ["lyapunov", "--p=0+0i", "--z0=1+0i", "--method=both"]),
    ("orbit", ["orbit", "--p=1+0i", "--z0=0+0i", "--n=20"]),
    ("twoqubit", ["twoqubit", "--steps=60", "--target-basis=0"]),
]
THREADED = ("julia", "params")
LIGHT = ("cycles", "lyapunov", "orbit", "twoqubit")
# replayed from their sidecars in cycles, light and heavier commands alternating
REPLAYED = ("julia", "cycles", "sweep", "lyapunov", "orbit", "twoqubit")
YARDSTICK_CALLS = 5           # made before each process, about 20 ms

JULIA_SAMPLES = 20
PARAMS_SAMPLES = 8
SWEEP_SAMPLES = 4


def default_threads() -> int:
    """The CLI's default worker count, capped at the usable cores."""
    return min(min(8, os.cpu_count() or 1), len(os.sched_getaffinity(0)))


class CliDefaults:
    name = "cli-defaults"

    def __init__(self, root: str, seed: int, workdir: str):
        self.root = root
        self.seed = seed
        self.threads = default_threads()
        self.artifacts = os.path.join(workdir, "artifacts")
        os.makedirs(self.artifacts, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        QUBIT_CHAOS_OUTDIR=self.artifacts)
        self.argv = {name: argv + ([f"--threads={self.threads}"] if name in THREADED else [])
                     for name, argv in COMMANDS}
        self.max_child_rss_mb = 0.0
        self.errors = []
        self.samples = {}
        self.yardstick = []
        self.speed_scale = None
        self.hashes = {}

    # -- running the CLI ------------------------------------------------------

    def warm_up(self) -> None:
        """Start the CLI once (interpreter, imports, argument parsing)."""
        if self._run_child(["--version"])[2] is None:
            raise RuntimeError(f"qubit-chaos --version failed: {self.errors[-1]}")

    def _run_child(self, argv):
        """(seconds, peak RSS in MB, last stdout line or None) of one CLI process.

        The last field is None when the process exits non-zero.
        """
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, CHILD, *argv], cwd=self.artifacts, env=self.env,
                              capture_output=True)
        seconds = time.perf_counter() - start
        err = proc.stderr.decode().strip().splitlines()
        reported = bool(err) and err[-1].startswith(TAG)
        rss_mb = int(err[-1].split()[1]) / 1024.0 if reported else 0.0
        self.max_child_rss_mb = max(self.max_child_rss_mb, rss_mb)
        if proc.returncode != 0 or not reported:
            self.errors.append(f"{argv} exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
            return seconds, rss_mb, None
        return seconds, rss_mb, proc.stdout.decode().strip().splitlines()[-1]

    def _read(self, path):
        with open(path, "rb") as fh:
            art = fh.read()
        with open(path + ".json", "rb") as fh:
            side = fh.read()
        return art, side

    def _sidecar_argv(self, name, sidecar_bytes):
        from qubit_chaos.cli import JobConfig, config_to_argv
        job = JobConfig.from_json_dict(json.loads(sidecar_bytes)["job"])
        argv = config_to_argv(job)
        return argv + ([f"--threads={self.threads}"] if name in THREADED else [])

    def measure(self, seconds, between):
        """Every command as written, then sidecar replays of all but ``params``.

        After one pass of the seven command lines as written, the six
        commands other than ``params`` replay from the argv stored in their
        sidecars in whole cycles: at least one, and more while the time left
        holds another.  ``params`` (7 to 12 s a process) runs once, so that
        the other commands get three to seven processes each in a 30-second
        run; its sidecar replay is checked by the traced run, whose traced
        pass runs every command from the untraced pass's sidecar.
        ``between(elapsed)`` runs before every process, so the set-up probes
        fall between processes, and so do YARDSTICK_CALLS yardstick calls,
        which sample the machine's speed through the run (``stage_metrics``).
        A process that exits non-zero counts as a failed operation and its
        command is left out of the artifact checks; its time still counts.
        """
        start = time.perf_counter()
        samples = self.samples = {name: [] for name, _ in COMMANDS}
        self.yardstick = []
        outputs = {}
        attempted = failed = 0

        def run(name, argv):
            nonlocal attempted, failed
            between(time.perf_counter() - start)
            self.yardstick += yardstick_times(YARDSTICK_CALLS)
            secs, _, path = self._run_child(argv)
            samples[name].append(secs)
            attempted += 1
            if path is None:
                failed += 1
                outputs[name] = None
                return None
            return self._read(path) + (path,)

        for name, _ in COMMANDS:
            got = run(name, self.argv[name])
            if got is not None:
                art, side, path = got
                outputs[name] = {"path": path, "bytes": art, "sidecar": side,
                                 "replay_bytes": art, "replay_sidecar": side}

        def replay(name):
            out = outputs[name]
            if out is None:
                run(name, self.argv[name])
                return
            got = run(name, self._sidecar_argv(name, out["sidecar"]))
            if got is not None and got[:2] != (out["bytes"], out["sidecar"]):
                out["replay_bytes"], out["replay_sidecar"] = got[:2]

        while True:
            for name in REPLAYED:
                replay(name)
            cycle = sum(samples[name][-1] for name in REPLAYED)
            if time.perf_counter() - start + cycle > seconds:
                break
        stage = Stage(samples, attempted=attempted, failed=failed,
                      wall_s=time.perf_counter() - start)
        return [stage], {k: v for k, v in outputs.items() if v is not None}

    def stage_metrics(self, stages) -> dict:
        """Each command's median process wall time, scaled; the light ones summed.

        The scale is YARDSTICK_REF_S over the median of the run's yardstick
        calls, one scale for the whole run: a slow spell of the shared
        machine lasting the whole run moved every command's processes alike
        by up to a third, which the scale cancels.  A scale per process,
        from calls just around it, was tried and was noisier.  The median,
        not the fastest: the fastest of a command's three to seven processes
        spread wider between runs.
        """
        self.speed_scale = YARDSTICK_REF_S / median(self.yardstick)
        best = {name: median([t for s in stages for t in s.samples[name]]) * self.speed_scale
                for name, _ in COMMANDS}
        return {"round_s": sum(best.values()),
                "stage1_s": best["julia"], "stage2_s": best["params"],
                "stage3_s": best["sweep"], "stage4_s": sum(best[name] for name in LIGHT)}

    def peak_rss_mb(self) -> float:
        """The largest peak RSS of the CLI processes this run started."""
        return self.max_child_rss_mb

    def named_metrics(self, m) -> dict:
        return {"cli_julia_s": m["stage1_s"], "cli_params_s": m["stage2_s"],
                "cli_sweep_s": m["stage3_s"], "cli_light_s": m["stage4_s"]}

    # -- in-process runs for the traced mode ------------------------------------

    def _inprocess(self, argvs, tracer=None):
        """Run each argv through ``cli.run`` in this process.

        Returns each command's time, trace delta (with a tracer) and
        (artifact, sidecar, path), None where the command failed.
        """
        from qubit_chaos import cli
        run = cli.run if tracer is None else tracer.wrap("cli", "run", cli.run)
        old = os.environ.get("QUBIT_CHAOS_OUTDIR")
        os.environ["QUBIT_CHAOS_OUTDIR"] = self.artifacts
        results, times, deltas = {}, {}, {}
        try:
            for name, argv in argvs.items():
                buf = io.StringIO()
                before = tracer.snapshot() if tracer else None
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(buf):
                        code = run(argv)
                except Exception as exc:  # a failed command, counted as such
                    code = repr(exc)
                times[name] = time.perf_counter() - start
                if tracer:
                    deltas[name] = tracer.delta(before, tracer.snapshot())
                if code != 0:
                    self.errors.append(f"{argv} returned {code}")
                    results[name] = None
                    continue
                path = os.path.join(self.artifacts, buf.getvalue().strip().splitlines()[-1])
                results[name] = self._read(path) + (path,)
        finally:
            if old is None:
                os.environ.pop("QUBIT_CHAOS_OUTDIR", None)
            else:
                os.environ["QUBIT_CHAOS_OUTDIR"] = old
        return times, results, deltas

    def traced(self, tracer):
        """An untraced in-process pass, then a traced one from its sidecars.

        The traced pass runs each command from the argv stored in the
        untraced pass's sidecar, so its artifacts take the place of the
        replays in the checks.  Returns outputs and layer numbers.
        """
        plain_times, plain, _ = self._inprocess(self.argv)
        argvs = {name: self.argv[name] if plain[name] is None
                 else self._sidecar_argv(name, plain[name][1]) for name in self.argv}
        sink = {}
        install_boundaries(tracer, sink)
        try:
            trace_times, traced, deltas = self._inprocess(argvs, tracer)
        finally:
            tracer.restore()
        outputs = {name: {"path": plain[name][2], "bytes": plain[name][0], "sidecar": plain[name][1],
                          "replay_bytes": traced[name][0], "replay_sidecar": traced[name][1]}
                   for name in plain if plain[name] is not None and traced[name] is not None}
        failed = sum(r is None for r in (*plain.values(), *traced.values()))
        startup = [self._run_child(["--version"]) for _ in range(3)]
        rss = {name: self._run_child(self.argv[name]) for name in THREADED}
        failed += sum(r[2] is None for r in (*startup, *rss.values()))
        layer = cli_layer_metrics(deltas, outputs, sink.get("julia_px_steps", 0))
        layer.update({"cli.startup_s": median([r[0] for r in startup]),
                      "cli.julia_rss_mb": rss["julia"][1], "cli.params_rss_mb": rss["params"][1]})
        return (outputs, layer, sum(plain_times.values()), sum(trace_times.values()),
                Stage({}, attempted=2 * len(COMMANDS) + 5, failed=failed))

    # -- checks --------------------------------------------------------------

    def check(self, outputs) -> dict:
        """Check every artifact; a command that failed has none and is skipped."""
        import reference as ref
        rng = np.random.default_rng(self.seed)
        for name, out in outputs.items():
            check_replay(name, out)
            self.hashes[os.path.relpath(out["path"], self.artifacts)] = hashlib.sha256(out["bytes"]).hexdigest()
        checked = {"outputs": outputs}
        if "julia" in outputs:
            gray = read_pnm(outputs["julia"]["bytes"])
            ref.check_julia_symmetry(gray, real_p=True)
            jsamples = ref.capture_samples(rng, JULIA_P, julia_grid(gray.shape[0]), JULIA_MAX_ITER,
                                           JULIA_SAMPLES)
            check_julia_samples(gray, jsamples)
            checked["julia"] = gray, jsamples
        if "params" in outputs:
            rgb = read_pnm(outputs["params"]["bytes"])
            psamples = params_samples(rng, rgb)
            check_params_samples(rgb, psamples)
            checked["params"] = rgb, psamples
        if "sweep" in outputs:
            sweep = read_sweep(outputs["sweep"]["bytes"])
            ssamples = sweep_samples(rng, sweep)
            check_sweep_samples(sweep, ssamples)
            checked["sweep"] = sweep, ssamples
        readers = {"orbit": (read_csv, check_orbit), "cycles": (json.loads, check_cycles),
                   "lyapunov": (json.loads, check_lyapunov), "twoqubit": (read_csv, check_twoqubit)}
        for name, (read, check) in readers.items():
            if name in outputs:
                checked[name] = read(outputs[name]["bytes"])
                check(checked[name])
        return checked

    def selftests(self, checked) -> dict:
        """Each check must reject a deliberately corrupted copy of its input.

        A command that failed has no artifact, so its cases are skipped.
        """
        import reference as ref
        gray, js = checked.get("julia", (None, None))
        rgb, ps = checked.get("params", (None, None))
        sweep, ss = checked.get("sweep", (None, None))

        def flip_pixel():
            g = gray.copy()
            i, j = next((i, j) for i in range(10, 490) for j in range(10, 490)
                        if 0 < g[i, j] < 250 and g[i, j] == g[-1 - i, -1 - j])
            g[i, j] += 1
            ref.check_julia_symmetry(g, real_p=True)

        def flipped_byte():
            out = dict(checked["outputs"]["julia"])
            body = bytearray(out["replay_bytes"])
            body[-1] ^= 1
            out["replay_bytes"] = bytes(body)
            check_replay("julia", out)

        def shift_capture():
            g = gray.copy()
            i, j, k = js[0]
            g[i, j] = 0 if k is None else julia_grey(k + 1)
            check_julia_samples(g, js[:1])

        def recolour():
            # the colour of another period, so that the period comparison rejects it
            c = rgb.copy()
            i, j, q = ps[0]
            c[i, j] = ref.palette_rgb(q % PARAMS_MAX_PERIOD + 1, PARAMS_MAX_PERIOD)
            check_params_samples(c, ps[:1])

        def nudge_sweep():
            s = {k: v.copy() for k, v in sweep.items()}
            i = ss[0][0]
            s["abs_z"][i, -1] *= 1 + 1e-6
            s["is_inf"][i, -1] = False
            check_sweep_samples(s, ss[:1])

        def bad_orbit():
            rows = [dict(r) for r in checked["orbit"]]
            rows[5]["z_re"] = "-0.9999999999"
            check_orbit(rows)

        def bad_multiplier():
            doc = json.loads(json.dumps(checked["cycles"]))
            doc["cycles"][0]["multiplier"][0] *= 1 + 1e-7
            doc["cycles"][0]["multiplier"][0] += 1e-12
            check_cycles(doc)

        def bad_lyapunov():
            doc = json.loads(json.dumps(checked["lyapunov"]))
            doc["estimates"][0]["value"] += 2e-3
            check_lyapunov(doc)

        def bad_trace():
            rows = [dict(r) for r in checked["twoqubit"]]
            rows[30]["purity"] = repr(float(rows[30]["purity"]) + 1e-9)
            check_twoqubit(rows)

        return {case: rejects(fn) for case, command, fn in [
            ("julia replay one flipped byte", "julia", flipped_byte),
            ("julia one flipped pixel", "julia", flip_pixel),
            ("julia one shifted capture step", "julia", shift_capture),
            ("params one recoloured pixel", "params", recolour),
            ("sweep one nudged |z|", "sweep", nudge_sweep),
            ("orbit one altered row", "orbit", bad_orbit),
            ("cycles one perturbed multiplier", "cycles", bad_multiplier),
            ("lyapunov estimate off by 2e-3", "lyapunov", bad_lyapunov),
            ("twoqubit purity off by 1e-9", "twoqubit", bad_trace)] if command in checked}

    def record(self) -> dict:
        return {"threads": self.threads, "artifact_sha256": self.hashes, "errors": self.errors,
                "process_s": self.samples, "speed_scale": self.speed_scale}


# ---------------------------------------------------------------------------
# artifact readers

def read_pnm(data: bytes) -> np.ndarray:
    magic, dims, maxval, body = data.split(b"\n", 3)
    nx, ny = (int(v) for v in dims.split())
    chans = {b"P5": 1, b"P6": 3}[magic]
    arr = np.frombuffer(body, dtype=np.uint8).reshape(ny, nx, chans)
    return (arr[:, :, 0] if chans == 1 else arr).copy()


def read_csv(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def read_sweep(data: bytes) -> dict:
    rows = read_csv(data)
    record = sum(1 for r in rows if r["p_re"] == rows[0]["p_re"] and r["p_im"] == rows[0]["p_im"])
    n = len(rows) // record
    p = np.array([complex(float(rows[i * record]["p_re"]), float(rows[i * record]["p_im"]))
                  for i in range(n)])
    abs_z = np.array([float(r["abs_z"]) if r["abs_z"] else 0.0 for r in rows]).reshape(n, record)
    is_inf = np.array([r["is_infinity"] == "1" for r in rows]).reshape(n, record)
    step0 = int(rows[0]["step"])
    return {"p": p, "abs_z": abs_z, "is_inf": is_inf, "step0": np.array(step0)}


# ---------------------------------------------------------------------------
# checks (all raise reference.CheckFailed)

JULIA_P, JULIA_HALF, JULIA_MAX_ITER, EPS = 1.0, 2.0, 200, 1e-6


def check_replay(name, out) -> None:
    import reference as ref
    ref.require(out["bytes"] == out["replay_bytes"] and out["sidecar"] == out["replay_sidecar"],
                f"{name}: sidecar replay changed the artifact bytes")


def julia_grey(steps) -> int:
    """The grey level the PGM writer documents: floor(255 steps / max_iter), at most 254."""
    return min(254, math.floor(255 * steps / JULIA_MAX_ITER))


def julia_grid(n: int) -> np.ndarray:
    """Pixel centres of the default julia window, row 0 on top."""
    x = -JULIA_HALF + 2 * JULIA_HALF * np.arange(n) / (n - 1)
    return x[None, :] + 1j * x[::-1, None]


def check_julia_samples(gray, samples) -> None:
    import reference as ref
    for i, j, k in samples:
        want = 255 if k is None else julia_grey(k)
        ref.require(int(gray[i, j]) == want,
                    f"julia pixel ({i},{j}): grey {gray[i, j]}, exact capture step {k} gives {want}")


PARAMS_MAX_PERIOD, PARAMS_TRANSIENT = 64, 2000


def params_samples(rng, rgb):
    import reference as ref
    n = rgb.shape[0]
    out = []
    for _ in range(3 * PARAMS_SAMPLES):
        i, j = (int(v) for v in rng.integers(0, n, 2))
        p = complex(3.0 * j / (n - 1), 3.0 - 3.0 * i / (n - 1))
        q, clear = ref.settled_period(p, 0j, PARAMS_TRANSIENT, PARAMS_MAX_PERIOD, EPS)
        if clear:
            out.append((i, j, q))
        if len(out) == PARAMS_SAMPLES:
            break
    ref.require(len(out) >= PARAMS_SAMPLES // 2, "too few params pixels have a clear reference")
    return out


def check_params_samples(rgb, samples) -> None:
    import reference as ref
    for i, j, q in samples:
        got = ref.palette_period(rgb[i, j], PARAMS_MAX_PERIOD)
        ref.require(got == q, f"params pixel ({i},{j}): colour of period {got}, exact period {q}")


def sweep_samples(rng, sweep):
    """Seeded sweep rows whose exact orbit settles on a cycle with a clear path."""
    import reference as ref
    out = []
    order = rng.permutation(len(sweep["p"]))
    for i in order[:4 * SWEEP_SAMPLES]:
        i = int(i)
        orb = ref.Orbit(sweep["p"][i], ref.pair(0j))
        last = int(sweep["step0"]) + sweep["abs_z"].shape[1] - 1
        orb.at(last)
        if orb.cycle_at is None:
            continue
        limit = math.log(1e-6 / ref.SEED_ROUNDOFF)
        if orb.log_expansion_peak(orb.cycle_at[0] + 1) > limit:
            continue
        out.append((i, [orb.at(int(sweep["step0"]) + k) for k in range(sweep["abs_z"].shape[1])]))
        if len(out) == SWEEP_SAMPLES:
            break
    ref.require(out, "no sweep row has a clear reference")
    return out


def check_sweep_samples(sweep, samples) -> None:
    import reference as ref
    for i, pts in samples:
        for k, pt in enumerate(pts):
            z = ref.as_complex(pt)
            if z is None:
                ref.require(bool(sweep["is_inf"][i, k]), f"sweep row {i} step {k}: expected infinity")
                continue
            ref.require(not sweep["is_inf"][i, k], f"sweep row {i} step {k}: unexpected infinity")
            got = sweep["abs_z"][i, k]
            ref.require(abs(got - abs(z)) <= 1e-9 * max(1.0, abs(z)),
                        f"sweep row {i} step {k}: |z| {got!r}, exact {abs(z)!r}")


def check_orbit(rows) -> None:
    import reference as ref
    want = [0.0, 1.0] + [None if k % 2 == 0 else -1.0 for k in range(2, 21)]
    ref.require(len(rows) == len(want), f"orbit has {len(rows)} rows, expected {len(want)}")
    for k, (row, w) in enumerate(zip(rows, want)):
        if w is None:
            ok = row["is_infinity"] == "1"
        else:
            ok = row["is_infinity"] == "0" and float(row["z_re"]) == w and float(row["z_im"]) == 0.0
        ref.require(ok and int(row["step"]) == k, f"orbit row {k} is {row}, expected {w}")


def check_cycles(doc) -> None:
    """Cycles of f^2 at p = i, against an mpmath solve of the degree-5 equation."""
    import mpmath as mp
    import reference as ref
    p = complex(*doc["p"])
    n = doc["n"]
    points = []
    for c in doc["cycles"]:
        pts = [None if v == "inf" else complex(*v) for v in c["points"]]
        ref.check_cycle(p, c["period"], pts, complex(*c["multiplier"]))
        ref.require(n % c["period"] == 0, f"cycle of period {c['period']} does not divide {n}")
        points += pts
    # G_n = P_n - z Q_n with P_1 = z^2 + p, Q_1 = 1 - conj(p) z^2 (ascending coefficients)
    pm = ref.mpc(p)
    P, Q = [pm, 0, 1], [1, 0, -mp.conj(pm)]

    def mul(a, b):
        out = [mp.mpc(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    for _ in range(n - 1):
        P2, Q2 = mul(P, P), mul(Q, Q)
        P, Q = ([a + pm * b for a, b in zip(P2, Q2)], [b - mp.conj(pm) * a for a, b in zip(P2, Q2)])
    G = [a - b for a, b in zip(P + [0], [0] + Q)]
    roots_at_inf = 0
    while abs(G[-1]) < mp.mpf(10) ** -20:
        G.pop()
        roots_at_inf += 1
    roots = mp.polyroots(G[::-1], maxsteps=200, extraprec=60)
    exact = [None] * roots_at_inf + [complex(r) for r in roots]
    ref.require(len(exact) == 2 ** n + 1, "degree bookkeeping")
    for z in exact:
        ref.require(any(ref.chordal(ref.pair(z), ref.pair(w)) < 1e-8 for w in points),
                    f"periodic point {z} of f^{n} is missing from the report")
    for w in points:
        ref.require(any(ref.chordal(ref.pair(z), ref.pair(w)) < 1e-8 for z in exact),
                    f"reported point {w} is not periodic")


def check_lyapunov(doc) -> None:
    import reference as ref
    est = {e["method"]: e["value"] for e in doc["estimates"]}
    ref.check_lyapunov_p0(est["derivative"], est["overlap"])


def check_twoqubit(rows) -> None:
    import reference as ref
    rho = 0.1 * np.eye(4, dtype=complex) / 4.0
    rho[0, 0] += 0.9
    ref.require(len(rows) == 61, f"trace has {len(rows)} rows, expected 61")
    prev = None
    for k, row in enumerate(rows):
        if k:
            sel = float(np.sum(np.diag(prev).real ** 2))
            ref.require(abs(float(row["selection_prob"]) - sel) <= 1e-12, f"step {k}: selection probability")
        pur = float(np.sum(np.abs(rho) ** 2))
        ref.require(abs(float(row["purity"]) - pur) <= 1e-12, f"step {k}: purity {row['purity']} vs {pur}")
        ref.require(abs(float(row["fidelity"]) - rho[0, 0].real) <= 1e-12, f"step {k}: fidelity")
        prev = rho
        rho = ref.step_two_qubit_ref(rho, 0.3, 0.0, 0.3, 0.0)


# ---------------------------------------------------------------------------
# per-layer numbers from a traced in-process pass

def cli_layer_metrics(deltas, outputs, julia_px_steps) -> dict:
    j, p, s = (Totals(deltas[name]) for name in ("julia", "params", "sweep"))
    lyap = Totals(deltas["lyapunov"])
    lyap_steps = (sum(e["steps_used"] for e in json.loads(outputs["lyapunov"]["bytes"])["estimates"])
                  if "lyapunov" in outputs else 0)
    params_px_steps = 500 * 500 * (PARAMS_TRANSIENT + 2 * PARAMS_MAX_PERIOD)
    sweep_px_steps = 800 * (10_000 + 50)
    return {
        "atlas.params_ns_per_px_step": p.self_ms("render_parameter_space") * 1e6 / params_px_steps,
        "atlas.julia_ns_per_px_step": j.self_ms("render_julia") * 1e6 / max(julia_px_steps, 1),
        "atlas.julia_targets_ms": j.total_ms("critical_orbits"),
        "atlas.sweep_ns_per_sample_step": s.self_ms("bifurcation_sweep") * 1e6 / sweep_px_steps,
        "atlas.write_csv_ms": s.total_ms("write_sweep_csv"),
        "atlas.write_image_ms": (j.total_ms("write_pgm") + p.total_ms("write_ppm")) / 2,
        "orbits.lyapunov_us_per_step": (lyap.total_ms("lyapunov_derivative")
                                        + lyap.total_ms("lyapunov_overlap")) * 1e3 / max(lyap_steps, 1),
        "sphere.apply_map_calls": j.calls("apply_map") / max(j.calls("critical_orbits"), 1),
    }
