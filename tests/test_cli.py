import argparse
import dataclasses
import hashlib
import json
import shlex
import sys
from pathlib import Path

import pytest
from argparse import ArgumentTypeError

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
                                  "--max-period=0", "--max-period=-3",
                                  "--threads=0", "--threads=-1", "--threads=1.5"])
def test_params_invalid_numbers_exit_two(outdir, capsys, flag):
    assert run(["params", "--res=4x4", flag, "--out=bad"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (outdir / "bad.ppm").exists()


@pytest.mark.parametrize("flag", ["--eps=0", "--eps=nan", "--max-iter=-1",
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


def test_orbit_writes_csv_with_infinity_rows(outdir):
    rc = run(["orbit", "--p", "1+0i", "--z0", "0+0i", "--n", "4",
              "--out", "o1"])
    assert rc == 0
    lines = (outdir / "o1.csv").read_text().splitlines()
    assert lines[0] == "step,z_re,z_im,is_infinity"
    assert lines[3] == "2,,,1"
    assert lines[4].startswith("3,-1.0,")


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


@pytest.mark.parametrize("steps", ["0", "-5"])
def test_overlap_lyapunov_without_steps_exits_two(outdir, capsys, steps):
    assert run(["lyapunov", "--p=0", "--z0=1", "--method=overlap",
                f"--steps={steps}", "--out=l3"]) == 2
    assert "at least one step" in capsys.readouterr().err
    assert not (outdir / "l3.json").exists()


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
    "lyapunov.json": "4f2fe0a8753989e669f1ede812bba64940679842a687fc6148d380b5348e8d83",
    "lyapunov.json.json": "732a3c0abef1bca1227b6919c7bbc4963e61fd06076c99ae8cdffccce26f92dc",
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
