import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from argparse import ArgumentTypeError

import qubit_chaos
from qubit_chaos import cli
from qubit_chaos.cli import (
    JobConfig,
    OUTDIR_ENV,
    config_to_argv,
    format_complex,
    parse_complex,
    parse_point,
    parse_resolution,
    parse_window,
    run,
)
from qubit_chaos.sphere import INF, SpherePoint

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTDIR_ENV, str(tmp_path))
    return tmp_path


def read_sidecar(artifact):
    doc = json.loads((artifact.parent / (artifact.name + ".json")).read_text())
    assert set(doc) >= {"job", "artifact", "package_version"}
    return doc


def _cli_process(argv, cwd, code=None):
    """A fresh interpreter running the CLI from this checkout's src/ (or ``code``)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, OUTDIR_ENV: str(cwd), "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    head = ["-c", code] if code else ["-m", "qubit_chaos.cli"]
    return subprocess.run([sys.executable, *head, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


# ---------------------------------------------------------------------------
# literal parsing

def test_parse_complex_forms():
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("3i") == 3j
    assert parse_complex("2") == 2 + 0j
    assert parse_complex("-0.5-2.25i") == -0.5 - 2.25j
    assert parse_complex(" 1 + 0 i ") == 1 + 0j


def test_parse_complex_rejects_garbage():
    for bad in ("nope", "1+2x", "", "inf", "nan+1i"):
        with pytest.raises(ArgumentTypeError):
            parse_complex(bad)


def test_parse_point_accepts_infinity():
    assert parse_point("inf") is INF
    assert parse_point("Infinity") is INF
    assert parse_point("0.5i") == SpherePoint(0.5j)


def test_format_complex_round_trips():
    for c in (1 + 2j, -0.5j, 3.25 - 0.125j, 0j):
        assert parse_complex(format_complex(c)) == c


def test_parse_window():
    assert parse_window("-2,2,-1,1") == (-2.0, 2.0, -1.0, 1.0)
    for bad in ("1,2,3", "a,b,c,d", "2,1,0,1", "0,1,1,0"):
        with pytest.raises(ArgumentTypeError):
            parse_window(bad)


def test_parse_resolution():
    assert parse_resolution("500") == (500, 500)
    assert parse_resolution("64x32") == (64, 32)
    assert parse_resolution("64X32") == (64, 32)
    for bad in ("1", "4x4x4", "zero", "4x1"):
        with pytest.raises(ArgumentTypeError):
            parse_resolution(bad)


# ---------------------------------------------------------------------------
# exit codes

def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "julia" in capsys.readouterr().out


def test_version_exits_zero(capsys):
    assert run(["--version"]) == 0


def test_usage_errors_exit_two(outdir, capsys):
    assert run(["julia", "--p", "nope"]) == 2
    assert run(["params", "--window", "2,1,0,1"]) == 2
    assert run(["frobnicate"]) == 2
    assert run([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--eps=nan", "--eps=0", "--eps=2", "--eps=inf",
                                  "--eps=1e-170", "--eps=1e-30",
                                  "--max-period=0", "--max-period=-3",
                                  "--threads=0", "--threads=-1", "--threads=1.5"])
def test_params_invalid_numbers_exit_two(outdir, capsys, flag):
    assert run(["params", "--res=4x4", flag, "--out=bad"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (outdir / "bad.ppm").exists()


@pytest.mark.parametrize("flag", ["--eps=0", "--eps=nan", "--eps=1e-170", "--eps=1e-30",
                                  "--max-iter=-1",
                                  "--threads=0", "--threads=-1", "--threads=two"])
def test_julia_invalid_numbers_exit_two(outdir, capsys, flag):
    assert run(["julia", "--p=1", "--res=8", flag, "--out=bad"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (outdir / "bad.pgm").exists()


@pytest.mark.parametrize("argv, ext", [
    (["julia", "--p=1", "--res=8"], ".pgm"),
    (["params", "--res=4x4", "--transient=200", "--max-period=8"], ".ppm"),
])
def test_threads_one_and_two_write_the_same_bytes(outdir, capsys, argv, ext):
    for n in (1, 2):
        assert run(argv + [f"--threads={n}", f"--out=t{n}"]) == 0
    assert (outdir / f"t1{ext}").read_bytes() == (outdir / f"t2{ext}").read_bytes()


def test_sweep_negative_transient_exits_two(outdir, capsys):
    assert run(["sweep", "--samples=4", "--transient=-5", "--out=bad"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (outdir / "bad.csv").exists()


@pytest.mark.parametrize("argv", [
    "julia --p=1 --window=-inf,inf,-2,2 --res=4x4",  # every pixel at infinity
    "params --window=0,inf,0,3 --res=4x4",
    "julia --p=1 --window=-1e308,1e308,-2,2 --res=4x4",  # the width overflows
    # end - start overflows, at either parity of the sample count
    "sweep --samples=3 --start=-1e308+0i --end=1e308+0i --transient=5 --record=2",
    "sweep --samples=4 --start=-1e308+0i --end=1e308+0i --transient=5 --record=2",
])
def test_non_finite_window_or_segment_exits_two(tmp_path, argv):
    # a process of its own, so that a traceback or a numpy warning shows on stderr
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-m", "qubit_chaos.cli", *argv.split(), "--out=bad"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr, proc.stderr
    assert not list(tmp_path.glob("bad*"))


@pytest.mark.parametrize("argv, code", [
    # a point whose modulus overflows is the point at infinity
    ("orbit --p=1 --z0=1.5e308+1.5e308i --n=3", 0),
    ("lyapunov --p=1 --z0=1.5e308+1.5e308i", 2),  # no default partner seed at infinity
    ("params --z0=1.5e308+1.5e308i --res=4x4 --transient=128", 0),
    ("sweep --z0=1.5e308+1.5e308i --samples=3 --transient=5 --record=2", 0),
    ("julia --p=1 --window=-1e307,1.3e308,-1e307,1.3e308 --res=4x4", 0),
    # a parameter whose modulus overflows is refused
    ("orbit --p=1.5e308+1.5e308i --z0=0 --n=3", 2),
    ("lyapunov --p=1.5e308+1.5e308i --z0=0.5", 2),
    ("cycles --p=1.5e308+1.5e308i --n=1", 2),
    ("julia --p=1.5e308+1.5e308i --res=8x8", 2),
    ("sweep --start=1.5e308+1.5e308i --end=1.6e308+1.5e308i --samples=3 --transient=5 "
     "--record=2", 2),
    ("params --window=-1e307,1.3e308,-1e307,1.3e308 --res=4x4 --transient=128", 2),
])
def test_overflowing_modulus_exits_without_traceback(tmp_path, monkeypatch, argv, code):
    # each used to exit 1 with an OverflowError, or 0 or 1 after a RuntimeWarning
    monkeypatch.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
    proc = _cli_process([*argv.split(), "--out=x"], tmp_path)
    assert proc.returncode == code, proc.stderr
    if code:
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:"), proc.stderr
        assert not list(tmp_path.glob("x*"))
    else:
        assert proc.stderr == ""


def test_point_whose_modulus_overflows_starts_at_infinity(outdir):
    assert run(["orbit", "--p=1", "--z0=1.5e308+1.5e308i", "--n=3", "--out=o"]) == 0
    assert (outdir / "o.csv").read_text().splitlines()[1] == "0,,,1"
    assert run(["julia", "--p=1", "--window=-1e307,1.3e308,-1e307,1.3e308", "--res=4x4",
                "--out=j"]) == 0
    # the top-right pixel, 1.3e308+1.3e308i, is infinity, on the 2-cycle of
    # p = 1: captured at step 0, so black (it was painted white)
    assert (outdir / "j.pgm").read_bytes()[-16:][3] == 0


def test_degree_guard_exits_two(outdir, capsys):
    assert run(["cycles", "--p", "0+0i", "--n", "9", "--out", "big"]) == 2
    assert "error:" in capsys.readouterr().err


def test_no_attracting_cycle_exits_one(outdir, capsys):
    rc = run(["julia", "--p", "0+1.2i", "--res", "4", "--max-iter", "10",
              "--out", "bad"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# artifact smoke, one subcommand at a time

def test_julia_writes_pgm_and_sidecar(outdir, capsys):
    rc = run(["julia", "--p", "1+0i", "--res", "16", "--max-iter", "40",
              "--out", "j1"])
    assert rc == 0
    artifact = outdir / "j1.pgm"
    assert capsys.readouterr().out.strip() == str(artifact)
    assert artifact.read_bytes().startswith(b"P5\n16 16\n255\n")
    doc = read_sidecar(artifact)
    assert doc["job"]["command"] == "julia"
    assert doc["artifact"]["p"] == [1.0, 0.0]


def test_readme_julia_window_example_renders(outdir):
    # the README's windowed julia example, as written but at 40x40: its
    # attracting cycle must capture pixels within the default max_iter
    line = next(line for line in README.read_text().splitlines()
                if line.startswith("qubit-chaos julia") and "--window" in line)
    argv = [a for a in shlex.split(line, comments=True)[1:] if not a.startswith("--res")]
    assert run(argv + ["--res=40x40", "--out=readme"]) == 0
    pixels = (outdir / "readme.pgm").read_bytes().split(b"\n", 3)[3]
    assert len(pixels) == 1600 and min(pixels) < 255


def test_params_writes_ppm_and_palette_tag(outdir):
    rc = run(["params", "--window", "0,2,0,2", "--res", "6", "--transient",
              "64", "--max-period", "8", "--out", "m1"])
    assert rc == 0
    artifact = outdir / "m1.ppm"
    assert artifact.read_bytes().startswith(b"P6\n6 6\n255\n")
    assert read_sidecar(artifact)["palette_version"] == "period-hue-v1"


def test_sweep_writes_csv(outdir):
    rc = run(["sweep", "--start", "0+0i", "--end", "0+2i", "--samples", "5",
              "--transient", "60", "--record", "4", "--out", "s1"])
    assert rc == 0
    lines = (outdir / "s1.csv").read_text().splitlines()
    assert lines[0] == "p_re,p_im,step,abs_z,is_infinity"
    assert len(lines) == 1 + 5 * 4


def test_cycles_writes_point_catalog(outdir):
    rc = run(["cycles", "--p", "0+0i", "--n", "2", "--out", "c1"])
    assert rc == 0
    doc = json.loads((outdir / "c1.json").read_text())
    assert doc["n"] == 2
    points = [pt for cyc in doc["cycles"] for pt in cyc["points"]]
    assert len(points) == 5
    assert "inf" in points
    assert sorted(c["period"] for c in doc["cycles"]) == [1, 1, 1, 2]


@pytest.mark.parametrize("p", ["1e200", "1e150+1e150i", "1e300"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_cycles_at_huge_parameter(outdir, p, n):
    # the first composition level formed p * conj(p)**2, which overflowed
    # with numpy RuntimeWarnings (errors in this suite) once |p| > ~1e102
    assert run(["cycles", f"--p={p}", f"--n={n}", "--out=c2"]) == 0
    doc = json.loads((outdir / "c2.json").read_text())
    assert sum(len(cyc["points"]) for cyc in doc["cycles"]) == 2 ** n + 1


def test_lyapunov_writes_both_estimates(outdir):
    rc = run(["lyapunov", "--p", "0+0i", "--z0", "1+0i", "--method", "both",
              "--steps", "50", "--out", "l1"])
    assert rc == 0
    doc = json.loads((outdir / "l1.json").read_text())
    methods = {e["method"] for e in doc["estimates"]}
    assert methods == {"derivative", "overlap"}


def test_lyapunov_needs_partner_at_origin(outdir, capsys):
    rc = run(["lyapunov", "--p", "0+0i", "--z0", "0+0i", "--method",
              "overlap", "--out", "l2"])
    assert rc == 2
    assert "--z1" in capsys.readouterr().err


def _strict_json(path):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("argv, value", [
    (["--p=0", "--z0=inf", "--method=derivative"], "-inf"),  # every step critical
    (["--p=0", "--z0=1e-9", "--z1=-1e-9", "--method=overlap"], "nan"),  # merged at step 1
])
def test_lyapunov_writes_nonfinite_estimates_as_json(outdir, argv, value):
    assert run(["lyapunov", *argv, "--out=l3"]) == 0
    doc = _strict_json(outdir / "l3.json")
    assert [e["value"] for e in doc["estimates"]] == [value]
    assert _strict_json(outdir / "l3.json.json")["artifact"] == doc


def test_orbit_writes_csv_with_infinity_rows(outdir):
    rc = run(["orbit", "--p", "1+0i", "--z0", "0+0i", "--n", "4",
              "--out", "o1"])
    assert rc == 0
    lines = (outdir / "o1.csv").read_text().splitlines()
    assert lines[0] == "step,z_re,z_im,is_infinity"
    assert lines[3] == "2,,,1"
    assert lines[4].startswith("3,-1.0,")


def test_orbit_through_an_image_whose_modulus_overflows(outdir):
    proc = _cli_process(["orbit", "--p=7.071067811865476e-301+7.071067811865475e-301i",
                         "--z0=9.238795302015879e+149+3.826834314083812e+149i", "--n=2",
                         "--out=o2"], outdir)
    assert proc.returncode == 0, proc.stderr
    lines = (outdir / "o2.csv").read_text().splitlines()
    assert lines[2:] == ["1,,,1", "2,,,1"]


def test_twoqubit_writes_trace(outdir):
    rc = run(["twoqubit", "--steps", "5", "--target-basis", "0",
              "--out", "t1"])
    assert rc == 0
    lines = (outdir / "t1.csv").read_text().splitlines()
    assert lines[0] == "step,purity,fidelity,selection_prob"
    assert len(lines) == 7


def test_twoqubit_reads_state_file(outdir, tmp_path):
    rows = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    state = tmp_path / "rho.json"
    state.write_text(json.dumps(rows))
    rc = run(["twoqubit", "--rho0", str(state), "--steps", "3", "--out", "t2"])
    assert rc == 0
    # maximally mixed stays maximally mixed: purity pinned at 1/4
    for line in (outdir / "t2.csv").read_text().splitlines()[1:]:
        assert float(line.split(",")[1]) == pytest.approx(0.25, abs=1e-12)


def test_twoqubit_rejects_bad_state_file(outdir, tmp_path, capsys):
    state = tmp_path / "rho.json"
    state.write_text(json.dumps([[1, 2], [3, 4]]))
    assert run(["twoqubit", "--rho0", str(state), "--out", "t3"]) == 2
    capsys.readouterr()


def test_twoqubit_rejects_nan_state_file(outdir, tmp_path, capsys):
    rows = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    rows[0][0][0] = float("nan")
    state = tmp_path / "rho.json"
    state.write_text(json.dumps(rows))  # json writes the bare token NaN
    assert run(["twoqubit", f"--rho0={state}", "--out=t4"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (outdir / "t4.csv").exists()


@pytest.mark.parametrize("angle", ["--x1=nan", "--phi1=inf", "--x2=-inf"])
def test_twoqubit_refuses_non_finite_angles(outdir, capsys, angle):
    # --x1=nan wrote a NaN purity row and exited 0
    assert run(["twoqubit", angle, "--steps=1", "--out=t6"]) == 2
    err = capsys.readouterr().err
    assert "rotation angles must be finite" in err and "x=" in err and "phi=" in err
    assert not (outdir / "t6.csv").exists()


@pytest.mark.parametrize("unreadable", ["missing", "directory"])
def test_twoqubit_unreadable_state_file_exits_two(outdir, tmp_path, unreadable):
    # a process of its own, so that an escaping exception would print its
    # traceback to stderr and exit 1
    rho0 = "missing.json" if unreadable == "missing" else str(tmp_path)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-m", "qubit_chaos.cli", "twoqubit",
                           f"--rho0={rho0}", "--out=t5"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error: cannot read a density matrix from" in proc.stderr
    assert rho0 in proc.stderr
    assert not (outdir / "t5.csv").exists()


@pytest.mark.parametrize("steps", ["0", "-5"])
def test_overlap_lyapunov_without_steps_exits_two(outdir, capsys, steps):
    assert run(["lyapunov", "--p=0", "--z0=1", "--method=overlap",
                f"--steps={steps}", "--out=l3"]) == 2
    assert "at least one step" in capsys.readouterr().err
    assert not (outdir / "l3.json").exists()


@pytest.mark.parametrize("argv, message", [
    ("cycles --p=0 --n=0", "period must be >= 1"),
    ("orbit --p=0 --z0=2 --n=-1", "orbit length must be nonnegative"),
    ("twoqubit --steps=-1", "step count must be nonnegative"),
    ("lyapunov --p=0 --z0=1 --method=derivative --steps=0", "need at least one step"),
])
def test_count_below_its_range_exits_two(outdir, capsys, argv, message):
    assert run(argv.split() + ["--out=bad"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(outdir.glob("bad*"))


# ---------------------------------------------------------------------------
# output routing

def test_outdir_env_and_nested_prefix(outdir):
    rc = run(["orbit", "--p", "0+0i", "--z0", "2+0i", "--n", "2",
              "--out", "nested/run/o"])
    assert rc == 0
    assert (outdir / "nested" / "run" / "o.csv").exists()
    assert (outdir / "nested" / "run" / "o.csv.json").exists()


def test_absolute_out_ignores_env(outdir, tmp_path):
    target = tmp_path / "elsewhere" / "o"
    rc = run(["orbit", "--p", "0+0i", "--z0", "2+0i", "--n", "2",
              "--out", str(target)])
    assert rc == 0
    assert (tmp_path / "elsewhere" / "o.csv").exists()


@pytest.mark.parametrize("unusable", ["file-as-directory", "artifact-is-directory",
                                      "sidecar-is-directory"])
def test_unusable_out_exits_two(tmp_path, unusable):
    (tmp_path / "taken").write_text("")
    (tmp_path / "d.csv").mkdir()
    (tmp_path / "s.csv.json").mkdir()
    out, named = {"file-as-directory": ("taken/x", "taken"),
                  "artifact-is-directory": ("d", "d.csv"),
                  "sidecar-is-directory": ("s", "s.csv.json")}[unusable]
    proc = _cli_process(["orbit", "--p=1+0i", "--z0=0+0i", f"--out={out}"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and named in proc.stderr


# ---------------------------------------------------------------------------
# process startup: each subcommand imports only the modules it runs

# runs the CLI as ``python -m`` does, then prints the modules it loaded
_MODULES_AFTER_RUN = """
import runpy, sys
sys.argv = ["qubit-chaos", *sys.argv[1:]]
try:
    runpy.run_module("qubit_chaos.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
print(*sorted(sys.modules))
"""

_ATLAS_AND_DENSITY = {"qubit_chaos.atlas", "qubit_chaos.channel", "qubit_chaos.twoqubit"}


@pytest.mark.parametrize("command, absent", [
    ("--version", {"numpy"}),
    ("orbit", {"numpy"}),
    ("twoqubit", {"qubit_chaos.atlas", "qubit_chaos.orbits"}),
    ("cycles", _ATLAS_AND_DENSITY),
    ("lyapunov", _ATLAS_AND_DENSITY | {"numpy", "qubit_chaos.orbits", "qubit_chaos.kernel",
                                       "qubit_chaos.roots"}),
])
def test_subcommand_imports_only_what_it_runs(tmp_path, command, absent):
    argv = ["--version"]
    if command != "--version":  # the README line, as written
        line = next(line for line in README.read_text().splitlines()
                    if line.startswith(f"qubit-chaos {command} "))
        argv = shlex.split(line, comments=True)[1:]
    proc = _cli_process(argv, tmp_path, code=_MODULES_AFTER_RUN)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "qubit_chaos.sphere" in loaded
    assert not absent & loaded


@pytest.mark.parametrize("name, argv", [
    ("iterate_orbit", ["orbit", "--p=1", "--z0=0", "--n=3"]),
    ("render_julia", ["julia", "--p=1", "--res=4", "--max-iter=5"]),
])
def test_run_calls_what_is_patched_on_cli(outdir, monkeypatch, name, argv):
    for lazy in (lazy for names in cli._LIBRARY.values() for lazy in names):
        monkeypatch.delitem(vars(cli), lazy, raising=False)  # as in a fresh process
    real, calls = getattr(cli, name), []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    assert run(argv) == 0
    assert len(calls) == 1


def test_package_names_resolve_on_first_access():
    homes = {
        "sphere": "INF MapParam SpherePoint apply_map as_point chordal_distance "
                  "overlap_distance spherical_derivative Orbit iterate_orbit "
                  "RootFindingError ConfigurationError LyapunovEstimate "
                  "lyapunov_derivative lyapunov_overlap",
        "channel": "density_to_pure p_from_angles pure_to_density purity rotate "
                   "rotation_unitary selection_probability squaring_map step_density "
                   "validate_density",
        "orbits": "BasinResult CriticalReport Cycle classify_basin critical_orbits "
                  "cycle_multiplier detect_cycle find_periodic_points make_cycle "
                  "periodic_cycles",
        "atlas": "Raster Sweep Window bifurcation_sweep render_julia render_parameter_space",
        "twoqubit": "purification_trace reduced_state rotate_local squaring4 step_two_qubit",
    }
    home_of = {name: module for module, names in homes.items() for name in names.split()}
    assert set(qubit_chaos.__all__) == {*home_of, "__version__"}
    for name, module in home_of.items():
        home = importlib.import_module(f"qubit_chaos.{module}")
        assert getattr(qubit_chaos, name) is getattr(home, name), name
    assert set(qubit_chaos.__all__) | {"atlas", "cli", "kernel"} <= set(dir(qubit_chaos))
    assert qubit_chaos.kernel is importlib.import_module("qubit_chaos.kernel")
    with pytest.raises(AttributeError, match="no_such_name"):
        qubit_chaos.no_such_name


# ---------------------------------------------------------------------------
# reproducibility

def test_job_config_round_trip():
    job = JobConfig("julia", {"p": "1+0i", "max_iter": 40, "eps": 1e-6}, "x")
    assert JobConfig.from_json_dict(job.to_json_dict()) == job


def test_sidecar_argv_reruns_bit_identical(outdir):
    assert run(["julia", "--p=1", "--window=-2,2,-2,2",
                "--res", "12", "--max-iter", "30", "--out", "first"]) == 0
    original = (outdir / "first.pgm").read_bytes()
    pixels = original.split(b"\n", 3)[3]
    assert len(pixels) == 144 and min(pixels) < 255  # not an all-white image
    job = JobConfig.from_json_dict(read_sidecar(outdir / "first.pgm")["job"])
    rerun = dataclasses.replace(job, out="second")
    assert run(config_to_argv(rerun)) == 0
    assert (outdir / "second.pgm").read_bytes() == original


# One flag text per parser type, for building an argv that sets every flag.
FLAG_TEXT = {cli.parse_complex: "0.5+0.25i", cli.parse_point: "0.5-1e-3i",
             cli.parse_window: "-1,1,0,2", cli.parse_resolution: "6x4",
             cli.parse_threads: "2", int: "3", float: "0.25", None: "rho.json"}


def subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("name", list(subparsers(cli.build_parser())))
def test_job_records_every_flag_but_out_and_threads(name):
    # a flag added to the parser must reach the sidecar, or fail here
    parser = cli.build_parser()
    flags = [a for a in subparsers(parser)[name]._actions if a.option_strings and a.dest != "help"]
    argv = [name] + [f"{a.option_strings[0]}={a.choices[0] if a.choices else FLAG_TEXT[a.type]}"
                     for a in flags]
    args = parser.parse_args(argv)
    job = cli._job(args)
    assert set(job.options) == {a.dest for a in flags} - {"out", "threads"}
    # and the recorded text parses back to the same values; --threads reruns at its default
    again = vars(parser.parse_args(config_to_argv(job)))
    assert again == {k: None if k == "threads" else v for k, v in vars(args).items()}


@pytest.mark.parametrize("argv", [
    ["julia", "--p=1", "--res=12", "--max-iter=30", "--threads=2"],
    ["params", "--window=0,2,0,2", "--res=6x5", "--transient=64", "--max-period=8"],
    ["sweep", "--start=-1+0i", "--end=0+2i", "--samples=4", "--transient=40", "--record=3"],
    ["cycles", "--p=0.5+0.25i", "--n=2"],
    ["lyapunov", "--p=0.3+0.3i", "--z0=0.5", "--z1=0.5+1e-9i", "--steps=40"],
    ["orbit", "--p=1", "--z0=inf", "--n=6"],
    ["twoqubit", "--rho0=rho.json", "--steps=4", "--target-basis=0"],
], ids=lambda argv: argv[0])
def test_every_subcommand_reruns_from_its_sidecar(outdir, monkeypatch, capsys, argv):
    monkeypatch.chdir(outdir)  # where --rho0 finds its file
    rows = [[[0.4 if i == j == 0 else 0.2 if i == j else 0.0, 0.0] for j in range(4)]
            for i in range(4)]
    (outdir / "rho.json").write_text(json.dumps(rows))
    assert run(argv + ["--out=first"]) == 0
    first = Path(capsys.readouterr().out.strip())
    job = JobConfig.from_json_dict(read_sidecar(first)["job"])
    assert run(config_to_argv(dataclasses.replace(job, out="again"))) == 0
    again = Path(capsys.readouterr().out.strip())
    assert again != first
    assert again.read_bytes() == first.read_bytes()


# The README's default command lines (all but the windowed julia example)
# and the sha256 of each artifact and sidecar they write.  A change that
# moves any of these bytes changes what the package computes.
DEFAULT_ARTIFACT_SHA256 = {
    "cycles.json": "4ca00518d3741e668187bbb27954681c8b205f544b16aed166a4b52e0eae9d55",
    "cycles.json.json": "4e5fd822b28a90b49dc620a0d899c9f9d93e4e609d74b6f9347182d94ac81d46",
    "figs/p1.pgm": "07ddf02def15e9ce8ffed04ea272a41ac327cb604f907cc3cc83c7c0a5c618a6",
    "figs/p1.pgm.json": "d03f77f7576ac5ea0572af5bd561a94c99ca0d7403e2c9e1e87cf0761d05d7fd",
    "lyapunov.json": "52970d56845d8030e2ee095db04edf86034b9a4bb850bbcdcd3281baee39f05a",
    "lyapunov.json.json": "324aede91d06e00aa7e0d09fbee999f8a2f1822e0475b15b2b569763af3f7848",
    "orbit.csv": "cbe9b7a91cac83899a13996dfdb4d71cd204f88e37e30b7b21e7b251305c9120",
    "orbit.csv.json": "fc345f78010de57ec9d163b8556024ff0e236f60797d7cf45b5d52febd8d8355",
    "params.ppm": "8ad4f7bf8749643e97439607bbee2ad6337300b1124978e86806448aa0824755",
    "params.ppm.json": "7d0cceb837b96a066317d50b47add2067659995d411429f3cf1848bc15362ee1",
    "sweep.csv": "708d5092c37d68f4550228f1e0804e9fc314362d31fa659a1cf4ec0bdd9bb5d7",
    "sweep.csv.json": "4813a37c4d80945506c078a6c7295c91ed543be6a20ac7adc4499a410e559bb5",
    "twoqubit.csv": "4caaf162c0505bf56d12c651bf8df8e10b7ac4be6312924f1975e80fe2decc02",
    "twoqubit.csv.json": "d892c10b60b40245799c67749d4649b0fc5282684a89ef25e7777d2b34cb6f75",
}


def test_readme_default_lines_keep_their_bytes(outdir, monkeypatch):
    lines = [line for line in README.read_text().splitlines()
             if line.startswith("qubit-chaos ") and "--window" not in line]
    assert [line.split()[1] for line in lines] == [
        "julia", "params", "sweep", "cycles", "lyapunov", "orbit", "twoqubit"]
    for line in lines:
        monkeypatch.setattr(sys, "argv", shlex.split(line, comments=True))
        with pytest.raises(SystemExit) as exit_:
            cli.main()
        assert exit_.value.code == 0, line
    got = {path.relative_to(outdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
           for path in outdir.rglob("*") if path.is_file()}
    assert got == DEFAULT_ARTIFACT_SHA256
