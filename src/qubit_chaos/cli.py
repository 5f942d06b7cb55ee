"""Command-line front end: render atlases, trace orbits, analyze cycles.

Every subcommand writes its artifact(s) plus a ``<artifact>.json`` sidecar
holding the complete job description, built from the parsed flags, so any
output can be reproduced from its sidecar alone (see :func:`config_to_argv`).
Output paths resolve against ``--out`` (a path prefix), relative paths
landing in the directory named by the ``QUBIT_CHAOS_OUTDIR`` environment
variable (default: the current directory).

Exit codes: 0 success, 2 usage errors (unknown flags, malformed complex
literals, invalid windows, bad input data, an ``--out`` that cannot be
written), 1 numerical failures
(root-finder non-convergence, no attracting cycle to render against).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
from dataclasses import dataclass

from . import __version__
from .sphere import (INF, ConfigurationError, MapParam, RootFindingError, SpherePoint,
                     _json_complex, _json_point, iterate_orbit, lyapunov_derivative,
                     lyapunov_overlap)

# The library names the handlers call, by module.  A handler binds its
# module's names as globals of this module (_bind) before it calls them, so a
# process imports only the modules its subcommand runs: ``--version``,
# ``orbit`` and ``lyapunov`` import no numpy.  Until bound, each name still
# resolves as an attribute of this module (__getattr__).
_LIBRARY = {
    "atlas": ("PALETTE_VERSION", "Window", "bifurcation_sweep", "julia_grayscale",
              "period_rgb", "render_julia", "render_parameter_space", "write_pgm",
              "write_ppm", "write_sweep_csv"),
    "orbits": ("periodic_cycles",),
    "twoqubit": ("basis_state", "default_initial_state", "load_density_json",
                 "purification_trace", "write_trace_csv"),
}


def _bind(module: str) -> None:
    """Bind the names of ``module`` in ``_LIBRARY`` as globals of this module.

    A name already bound keeps its object, so a function replaced on this
    module (by a test or a tracer) is the one the handlers call.
    """
    lib = importlib.import_module(f".{module}", __package__)
    scope = globals()
    for name in _LIBRARY[module]:
        scope.setdefault(name, getattr(lib, name))


def __getattr__(name: str):
    for module, names in _LIBRARY.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


OUTDIR_ENV = "QUBIT_CHAOS_OUTDIR"


@dataclass(frozen=True)
class JobConfig:
    """A reproducible job description: command, flag values, output prefix."""

    command: str
    options: dict
    out: str

    def to_json_dict(self) -> dict:
        return {"command": self.command, "options": dict(self.options), "out": self.out}

    @classmethod
    def from_json_dict(cls, d: dict) -> "JobConfig":
        return cls(d["command"], dict(d["options"]), d["out"])


def config_to_argv(config: JobConfig) -> list[str]:
    """Reconstruct an argv that reruns the job (floats via repr, lossless).

    Values are joined as ``--key=value`` single tokens so entries starting
    with ``-`` (negative window bounds, complex literals) stay values.
    """
    argv = [config.command]
    for key, val in config.options.items():
        text = repr(val) if isinstance(val, float) else str(val)
        argv.append(f"--{key.replace('_', '-')}={text}")
    argv.append(f"--out={config.out}")
    return argv


def format_complex(c: complex) -> str:
    re, im = c.real, c.imag
    sign = "+" if (im >= 0 or math.isnan(im)) else "-"
    return f"{re!r}{sign}{abs(im)!r}i"


def format_point(pt: SpherePoint) -> str:
    return "inf" if pt.is_infinity else format_complex(pt.value)


def parse_complex(text: str) -> complex:
    """A finite complex literal: forms like 1+0i, 0.5-2.25i, 3i, 2."""
    s = text.strip().lower().replace(" ", "")
    try:
        val = complex(s.replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed complex literal: {text!r}") from None
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise argparse.ArgumentTypeError(f"complex literal must be finite: {text!r}")
    return val


def parse_point(text: str) -> SpherePoint:
    """A sphere point: any finite complex literal, or ``inf``."""
    if text.strip().lower() in ("inf", "infinity"):
        return INF
    return SpherePoint(parse_complex(text))


def parse_window(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"window must be re_min,re_max,im_min,im_max: {text!r}")
    try:
        re0, re1, im0, im1 = (float(v) for v in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"window has non-numeric bounds: {text!r}") from None
    if not all(map(math.isfinite, (re0, re1, im0, im1))):
        raise argparse.ArgumentTypeError(f"window bounds must be finite: {text!r}")
    if not (re1 > re0 and im1 > im0):
        raise argparse.ArgumentTypeError(f"window bounds out of order: {text!r}")
    return re0, re1, im0, im1


def parse_resolution(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    try:
        if len(parts) == 1:
            nx = ny = int(parts[0])
        elif len(parts) == 2:
            nx, ny = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"resolution must be N or NXxNY: {text!r}") from None
    if nx < 2 or ny < 2:
        raise argparse.ArgumentTypeError("resolution must be at least 2x2")
    return nx, ny


def parse_threads(text: str) -> int:
    """A thread count: an integer of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"thread count must be at least 1: {text!r}")
    return int(text)


def _resolve_out(out: str) -> str:
    base = os.environ.get(OUTDIR_ENV, ".")
    path = out if os.path.isabs(out) else os.path.join(base, out)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _flag_text(val):
    """A parsed flag value written back as the text its parser reads."""
    if isinstance(val, complex):
        return format_complex(val)
    if isinstance(val, SpherePoint):
        return format_point(val)
    if isinstance(val, tuple):  # a window's float bounds or a resolution's ints
        return ("x" if isinstance(val[0], int) else ",").join(repr(v) for v in val)
    return val


def _job(args) -> JobConfig:
    """The job that ``args`` describe: each flag that holds a value, as flag text.

    ``--out`` is the job's own field; ``--threads`` is left out, as it changes no byte.
    """
    options = {key: _flag_text(val) for key, val in vars(args).items()
               if key not in ("command", "func", "out", "threads") and val is not None}
    return JobConfig(args.command, options, args.out)


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_sidecar(artifact_path, config: dict) -> str:
    """Write ``<artifact>.json`` recording the full job config; returns its path."""
    sidecar = f"{artifact_path}.json"
    _write_json(sidecar, config)
    return sidecar


# ---------------------------------------------------------------------------
# subcommand handlers: each writes its artifact and returns its path, the
# artifact's config and any further sidecar keys

def _cmd_julia(args):
    _bind("atlas")
    window = Window.from_bounds(*args.window, *args.res)
    param = MapParam(args.p)
    raster = render_julia(param, window, max_iter=args.max_iter, eps=args.eps,
                          workers=args.threads)
    gray = julia_grayscale(raster)
    path = _resolve_out(args.out) + ".pgm"
    write_pgm(path, gray)
    return path, raster.config, {}


def _cmd_params(args):
    _bind("atlas")
    window = Window.from_bounds(*args.window, *args.res)
    raster = render_parameter_space(window, z0=args.z0, transient=args.transient,
                                    max_period=args.max_period, eps=args.eps,
                                    workers=args.threads)
    rgb = period_rgb(raster)
    path = _resolve_out(args.out) + ".ppm"
    write_ppm(path, rgb)
    return path, raster.config, {"palette_version": PALETTE_VERSION}


def _cmd_sweep(args):
    _bind("atlas")
    sweep = bifurcation_sweep(start=args.start, end=args.end, samples=args.samples,
                              transient=args.transient, record=args.record, z0=args.z0)
    path = _resolve_out(args.out) + ".csv"
    write_sweep_csv(path, sweep)
    return path, sweep.config, {}


def _cmd_cycles(args):
    _bind("orbits")
    param = MapParam(args.p)
    cycles = periodic_cycles(param, args.n, n_max=args.n_max)
    doc = {
        "p": _json_complex(args.p),
        "n": args.n,
        "cycles": [c.to_json_dict() for c in cycles],
    }
    path = _resolve_out(args.out) + ".json"
    _write_json(path, doc)
    return path, doc, {}


def _cmd_lyapunov(args):
    param = MapParam(args.p)
    estimates = []
    if args.method in ("derivative", "both"):
        estimates.append(lyapunov_derivative(param, args.z0, args.steps))
    if args.method in ("overlap", "both"):
        z1 = args.z1
        if z1 is None:
            if args.z0.is_infinity or args.z0.value == 0:
                raise ValueError(
                    "no default partner seed at 0 or infinity; pass --z1 explicitly")
            z1 = SpherePoint(args.z0.value * complex(math.cos(1e-8), math.sin(1e-8)))
        estimates.append(lyapunov_overlap(param, args.z0, z1, n_max=args.steps))
    doc = {
        "p": _json_complex(args.p),
        "z0": _json_point(args.z0),
        "estimates": [e.to_json_dict() for e in estimates],
    }
    path = _resolve_out(args.out) + ".json"
    _write_json(path, doc)
    return path, doc, {}


def _cmd_orbit(args):
    param = MapParam(args.p)
    orbit = iterate_orbit(param, args.z0, args.n)
    path = _resolve_out(args.out) + ".csv"
    with open(path, "w", newline="") as fh:
        fh.write("step,z_re,z_im,is_infinity\n")
        for k, pt in enumerate(orbit.points):
            if pt.is_infinity:
                fh.write(f"{k},,,1\n")
            else:
                fh.write(f"{k},{pt.value.real!r},{pt.value.imag!r},0\n")
    return path, {"kind": "orbit", "p": _json_complex(args.p), "n": args.n}, {}


def _cmd_twoqubit(args):
    _bind("twoqubit")
    rho0 = load_density_json(args.rho0) if args.rho0 else default_initial_state()
    target = basis_state(args.target_basis) if args.target_basis is not None else None
    angles = (args.x1, args.phi1, args.x2, args.phi2)
    trace = purification_trace(rho0, angles, n=args.steps, target=target)
    path = _resolve_out(args.out) + ".csv"
    write_trace_csv(path, trace)
    return path, trace.config, {}


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubit-chaos",
        description="Conditional qubit dynamics: atlases, orbits, cycles, exponents.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    julia = sub.add_parser("julia", help="steps-to-capture raster at fixed p (PGM)")
    julia.add_argument("--p", type=parse_complex, required=True)
    julia.add_argument("--window", type=parse_window, default=(-2.0, 2.0, -2.0, 2.0),
                       help="re_min,re_max,im_min,im_max (default the 4x4 square)")
    julia.add_argument("--res", type=parse_resolution, default=(1000, 1000))
    julia.add_argument("--max-iter", type=int, default=200)
    julia.add_argument("--eps", type=float, default=1e-6,
                       help="capture radius, sqrt-overlap units")
    julia.add_argument("--threads", type=parse_threads, default=None)
    julia.set_defaults(func=_cmd_julia)

    params = sub.add_parser("params", help="settled-period raster over p (PPM)")
    params.add_argument("--window", type=parse_window, default=(0.0, 3.0, 0.0, 3.0))
    params.add_argument("--res", type=parse_resolution, default=(500, 500))
    params.add_argument("--z0", type=parse_point, default=SpherePoint(0j))
    params.add_argument("--transient", type=int, default=2000)
    params.add_argument("--max-period", type=int, default=64)
    params.add_argument("--eps", type=float, default=1e-6)
    params.add_argument("--threads", type=parse_threads, default=None)
    params.set_defaults(func=_cmd_params)

    sweep = sub.add_parser("sweep", help="|z| tails along a parameter segment (CSV)")
    sweep.add_argument("--start", type=parse_complex, default=0j)
    sweep.add_argument("--end", type=parse_complex, default=2j)
    sweep.add_argument("--samples", type=int, default=800)
    sweep.add_argument("--transient", type=int, default=10_000)
    sweep.add_argument("--record", type=int, default=50)
    sweep.add_argument("--z0", type=parse_point, default=SpherePoint(0j))
    sweep.set_defaults(func=_cmd_sweep)

    cycles = sub.add_parser("cycles", help="periodic points of period dividing n (JSON)")
    cycles.add_argument("--p", type=parse_complex, required=True)
    cycles.add_argument("--n", type=int, required=True)
    cycles.add_argument("--n-max", type=int, default=4,
                        help="guard on n (polynomial degree is 2**n + 1)")
    cycles.set_defaults(func=_cmd_cycles)

    lyap = sub.add_parser("lyapunov", help="Lyapunov exponent estimates (JSON)")
    lyap.add_argument("--p", type=parse_complex, required=True)
    lyap.add_argument("--z0", type=parse_point, required=True)
    lyap.add_argument("--z1", type=parse_point, default=None,
                      help="partner seed for the overlap method "
                           "(default: z0 rotated by 1e-8 radians)")
    lyap.add_argument("--method", choices=("derivative", "overlap", "both"),
                      default="both")
    lyap.add_argument("--steps", type=int, default=200)
    lyap.set_defaults(func=_cmd_lyapunov)

    orbit = sub.add_parser("orbit", help="forward orbit of a point (CSV)")
    orbit.add_argument("--p", type=parse_complex, required=True)
    orbit.add_argument("--z0", type=parse_point, required=True)
    orbit.add_argument("--n", type=int, default=100)
    orbit.set_defaults(func=_cmd_orbit)

    twoq = sub.add_parser("twoqubit", help="two-qubit purification trace (CSV)")
    twoq.add_argument("--rho0", default=None,
                      help="JSON matrix file (rows of [re,im] entries); "
                           "default: a slightly mixed state biased toward |00>")
    twoq.add_argument("--x1", type=float, default=0.3)
    twoq.add_argument("--phi1", type=float, default=0.0)
    twoq.add_argument("--x2", type=float, default=0.3)
    twoq.add_argument("--phi2", type=float, default=0.0)
    twoq.add_argument("--steps", type=int, default=50)
    twoq.add_argument("--target-basis", type=int, choices=(0, 1, 2, 3), default=None,
                      help="record fidelity to this computational basis state")
    twoq.set_defaults(func=_cmd_twoqubit)

    for name, subparser in sub.choices.items():
        subparser.add_argument("--out", default=name)
    return parser


def run(argv=None) -> int:
    """Parse and execute; returns the process exit code instead of raising."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        path, artifact_config, extra = args.func(args)
        write_sidecar(path, {"job": _job(args).to_json_dict(), "artifact": artifact_config,
                             "package_version": __version__, **extra})
    except (RootFindingError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # an OSError names the path it could not write
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(path)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
