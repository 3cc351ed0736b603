"""CLI subcommands, exit codes, file round-trips."""
import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sqom
from sqom import cli
from sqom.cli import build_parser, main
from sqom.sweep import SWEEPABLE_AXES

from conftest import CONFIGS, boundary_set, laser_set, rows_to_csv

LASER_PARAMS = dataclasses.asdict(laser_set(0.0))
BOUNDARY_PARAMS = dataclasses.asdict(boundary_set(0.0))


# both drives within about 1e-13 of the stage-1 boundary: a valid point whose
# exact eigenvalues cannot be paired into +/- frequencies (NumericalDegeneracy)
UNPAIRED_PARAMS = dict(
    LASER_PARAMS, delta1=445.6813207479668, lambda1=222.84066037398313,
    delta2=-13.274826580266046, lambda2=6.637413290132873, j_hop=0.6248372277393877,
    g0=0.05179304768804502, phi_d1=math.pi, phi_d2=math.pi,
)


# the reference sets' configs: LASER_PARAMS and BOUNDARY_PARAMS
@pytest.fixture
def laser_config():
    return str(CONFIGS / "laser.json")


@pytest.fixture
def boundary_config():
    return str(CONFIGS / "boundary.json")


def test_analyze_stdout(laser_config, capsys):
    assert main(["analyze", "--config", laser_config]) == 0
    out = capsys.readouterr().out
    header, row = out.splitlines()
    assert "branch" in header.split(",")
    assert "bs" in row.split(",")


def test_analyze_zero_g0(tmp_path, capsys):
    # eta = g1/g2 is 0/0 there: NaN, as in a sweep, not a ZeroDivisionError
    path = tmp_path / "g0.json"
    path.write_text(json.dumps(dict(BOUNDARY_PARAMS, g0=0.0)))
    assert main(["analyze", "--config", str(path)]) == 0
    header, row = capsys.readouterr().out.splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["tms_eta"] == "nan"
    assert cells["error"] == "" and cells["tms_error"] == ""


def test_unknown_config_key_exit_1(tmp_path, capsys):
    bad = dict(LASER_PARAMS)
    bad["lamda1"] = 1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["analyze", "--config", str(path)]) == 1
    assert "lamda1" in capsys.readouterr().err


def test_unstable_config_exit_1(tmp_path, capsys):
    bad = dict(LASER_PARAMS)
    bad["lambda2"] = 70.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["verify", "--config", str(path), "--random", "1"]) == 1
    assert "Stage1Unstable" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    # JSON reads 1e400 as inf: a number, refused only when the point is validated
    (json.dumps(dict(LASER_PARAMS, delta1="INF")).replace('"INF"', "1e400"),
     "delta1 must be finite, got inf"),
    (json.dumps([LASER_PARAMS]), "config root must be a JSON object, got list"),
])
def test_verify_refuses_a_config_that_is_no_point(text, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["verify", "--config", str(path), "--random", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_config_error_names_the_first_bad_key_under_any_hash_seed(tmp_path):
    # keys are checked in field order, so delta1 is named before delta2
    path = tmp_path / "two_bad.json"
    path.write_text(json.dumps(dict(LASER_PARAMS, delta1="a", delta2="b")))
    src = str(Path(sqom.__file__).resolve().parents[1])
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run(
            [sys.executable, "-m", "sqom.cli", "analyze", "--config", str(path)],
            capture_output=True, text=True, env=env,
        )
        assert run.returncode == 1
        assert run.stderr == "error: config key 'delta1' must be a number, got 'a'\n", seed


def test_verify_rejects_negative_random(laser_config, capsys):
    assert main(["verify", "--config", laser_config, "--random", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --random must be >= 0, got -3\n"
    assert captured.out == ""


def test_verify_rejects_negative_seed(laser_config, capsys):
    assert main(["verify", "--config", laser_config, "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be >= 0, got -1\n"
    assert captured.out == ""


@pytest.mark.parametrize("value, message", [
    ("nan", "--rel-tol must be finite, got nan"),
    ("inf", "--rel-tol must be finite, got inf"),
    ("-0.5", "--rel-tol must be >= 0, got -0.5"),
])
def test_verify_rejects_a_non_finite_or_negative_rel_tol(value, message, laser_config, capsys):
    assert main(["verify", "--config", laser_config, f"--rel-tol={value}"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


# the arguments each pipeline subcommand needs besides its config
PIPELINE_ARGS = {
    "analyze": [],
    "sweep": ["--axis", "delta_phi", "--from", "0", "--to", "1", "--steps", "3"],
    "grid": ["--x-axis", "delta_phi", "--x-from", "0", "--x-to", "1", "--x-steps", "2",
             "--y-axis", "g0", "--y-from", "0.001", "--y-to", "0.002", "--y-steps", "2"],
    "laser-sweep": ["--steps", "3"],
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in PIPELINE_ARGS
    for flag in ("--n-plus", "--n-minus", "--resonance-floor")
    if command != "grid" or flag == "--resonance-floor"
])
def test_a_pipeline_option_must_be_finite(command, flag, value, laser_config, capsys):
    argv = [command, "--config", laser_config, *PIPELINE_ARGS[command], f"{flag}={value}"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} must be finite, got {float(value)}\n"
    assert captured.out == ""


@pytest.mark.parametrize("x_axis, y_axis", [("delta_phi", "phi_d1"), ("phi_d1", "delta_phi")])
def test_grid_axis_pair_delta_phi_and_phi_d1_exits_1(x_axis, y_axis, laser_config, capsys):
    argv = ["grid", "--config", laser_config,
            "--x-axis", x_axis, "--x-from", "0", "--x-to", "1", "--x-steps", "2",
            "--y-axis", y_axis, "--y-from", "2", "--y-to", "3", "--y-steps", "2"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: grid axes delta_phi and phi_d1 both move phi_d1; choose one\n"
    assert captured.out == ""


UNKNOWN_FAULT = f"unknown axis 'bogus'; choose one of {', '.join(SWEEPABLE_AXES)}"
SPAN_FAULT = "the g0 axis from 2.0 to inf: its endpoints and their span must be finite"


@pytest.mark.parametrize("x_axis, x_steps, y_axis, y_to, message", [
    # one fault each
    ("delta_phi", "2", "bogus", "3", UNKNOWN_FAULT),
    ("delta_phi", "1", "g0", "3", "steps must be >= 2, got 1"),
    ("delta_phi", "2", "g0", "inf", SPAN_FAULT),
    ("g0", "2", "g0", "3", "grid axes must differ, both are 'g0'"),
    # the x axis is checked whole (name, span, steps) before the y axis,
    ("delta_phi", "1", "bogus", "3", "steps must be >= 2, got 1"),
    # and both axes before the rules of the pair
    ("g0", "2", "g0", "inf", SPAN_FAULT),
])
def test_grid_axis_faults_are_reported_x_then_y_then_the_pair(
        x_axis, x_steps, y_axis, y_to, message, laser_config, capsys):
    argv = ["grid", "--config", laser_config,
            "--x-axis", x_axis, "--x-from", "0", "--x-to", "1", "--x-steps", x_steps,
            "--y-axis", y_axis, "--y-from", "2", "--y-to", y_to, "--y-steps", "2"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_the_config_and_the_flags_both_reach_the_pipeline(tmp_path, capsys):
    # at delta_phi = 0 the boundary set has f1 = 1.009 and f2 > 0: intermediate
    # under the default f1_hi = 10, two-mode squeezing under f1_hi = 1
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps(dict(BOUNDARY_PARAMS, f1_hi=1.0)))
    assert main(["analyze", "--config", str(path), "--n-plus", "2"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    params = boundary_set(0.0)
    want = sqom.analyze(params, sqom.PipelineOptions(f1_hi=1.0, n_plus=2.0))
    assert row == rows_to_csv([want], header.split(",")).splitlines()[1]
    default = sqom.analyze(params)
    for name in ("branch", "laser_gain"):
        assert want[name] != default[name]
    assert (default["branch"], want["branch"]) == ("intermediate", "tms")


def test_contours_short_header_exit_1(tmp_path, capsys):
    grid_path = tmp_path / "grid.csv"
    grid_path.write_text("x_index,y_index,f1\n0,0,1.0\n1,0,2.0\n")
    assert main(["contours", "--grid", str(grid_path), "--level", "1.5"]) == 1
    assert "lacks the y axis column" in capsys.readouterr().err
    grid_path.write_text("x_index,y_index\n0,0\n")
    assert main(["contours", "--grid", str(grid_path), "--level", "1.5"]) == 1
    assert "lacks the x axis and y axis column" in capsys.readouterr().err


def test_contours_negative_index_exit_1(tmp_path, capsys):
    # numpy would wrap -1 onto the last index and overwrite that grid line
    grid_path = tmp_path / "grid.csv"
    rows = ["0,0,0.0,0.0,1", "1,0,1.0,0.0,2", "0,1,0.0,1.0,3", "1,1,1.0,1.0,4"]
    for bad, message in (("-1,1,9.0,1.0,20", "x_index: -1"), ("1,-2,1.0,9.0,20", "y_index: -2")):
        grid_path.write_text("\n".join(["x_index,y_index,lambda1,delta_phi,f1", *rows, bad]) + "\n")
        assert main(["contours", "--grid", str(grid_path), "--level", "2.5"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: grid file {grid_path} has a negative {message}\n"
        assert captured.out == ""


@pytest.mark.parametrize("bad, message", [
    ("1,1.0,1.0,1.0,4", "y_index cell '1.0' in data row 4 is not an integer"),
    ("1,1,1.0,one,4", "delta_phi cell 'one' in data row 4 is not a number"),
    ("1,1,1.0,1.0,4x", "f1 cell '4x' in data row 4 is not a number"),
])
def test_contours_bad_cell_names_file_column_and_row(bad, message, tmp_path, capsys):
    grid_path = tmp_path / "grid.csv"
    # the empty f1 cell is NaN, not the bad cell
    rows = ["0,0,0.0,0.0,1", "1,0,1.0,0.0,", "0,1,0.0,1.0,3", bad]
    grid_path.write_text("\n".join(["x_index,y_index,lambda1,delta_phi,f1", *rows]) + "\n")
    assert main(["contours", "--grid", str(grid_path), "--level", "2.5"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: grid file {grid_path}: {message}\n"
    assert captured.out == ""


def test_a_config_file_that_is_not_utf8_is_named(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"delta1": 20\xff}')
    assert main(["analyze", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: cannot read config file {path}: 'utf-8' codec can't decode "
                            "byte 0xff in position 13: invalid start byte\n")
    assert captured.out == ""


def test_contours_unreadable_grid_exit_1(tmp_path, capsys):
    for grid_path in (tmp_path / "missing.csv", tmp_path):
        assert main(["contours", "--grid", str(grid_path), "--level", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read grid file {grid_path}: ")
        assert captured.out == ""


_OUT_ARGS = {
    "analyze": [],
    "sweep": ["--axis", "delta_phi", "--from", "0", "--to", "1", "--steps", "3"],
    "grid": ["--x-axis", "delta_phi", "--x-from", "0", "--x-to", "1", "--x-steps", "2",
             "--y-axis", "g0", "--y-from", "0.001", "--y-to", "0.002", "--y-steps", "2"],
    "laser-sweep": ["--steps", "3"],
    "verify": ["--random", "1"],
}


@pytest.mark.parametrize("command", sorted(_OUT_ARGS) + ["contours"])
def test_out_into_a_missing_directory_exit_1(command, laser_config, tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "out.csv"
    if command == "contours":
        grid = str(tmp_path / "grid.csv")
        assert main(["grid", "--config", laser_config, "--out", grid, *_OUT_ARGS["grid"]]) == 0
        argv = ["contours", "--grid", grid, "--field", "f1", "--level", "1"]
    else:
        argv = [command, "--config", laser_config, *_OUT_ARGS[command]]
    assert main([*argv, "--out", str(out)]) == 1
    # contours may note an empty level first
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"error: cannot write output file {out}: ")


def test_bad_axis_exit_1(laser_config, capsys):
    code = main([
        "sweep", "--config", laser_config, "--axis", "nope",
        "--from", "0", "--to", "1", "--steps", "3",
    ])
    assert code == 1
    assert "axis" in capsys.readouterr().err


_GRID_X = ["--x-axis", "lambda1", "--x-from", "198", "--x-to", "199", "--x-steps", "3"]
_GRID_Y = ["--y-axis", "delta_phi", "--y-from", "0", "--y-to", "3", "--y-steps", "3"]


@pytest.mark.parametrize("argv", [
    ["sweep", "--axis", "delta_phi", "--from", "nan", "--to", "1", "--steps", "3"],
    ["sweep", "--axis", "delta_phi", "--from", "0", "--to", "inf", "--steps", "3"],
    ["sweep", "--axis", "delta1", "--from=-1e308", "--to=1e308", "--steps", "3"],  # span overflows
    ["grid", "--x-axis", "lambda1", "--x-from", "198", "--x-to", "nan", "--x-steps", "3",
     *_GRID_Y],
    ["grid", *_GRID_X, "--y-axis", "delta_phi", "--y-from=-inf", "--y-to", "3", "--y-steps", "3"],
    ["laser-sweep", "--to", "inf", "--steps", "3"],
    ["laser-sweep", "--axis", "g0", "--from", "0", "--to", "nan", "--steps", "3"],
])
def test_a_non_finite_axis_exit_1(argv, laser_config, tmp_path, capsys):
    out = tmp_path / "out.csv"
    code = main([argv[0], "--config", laser_config, *argv[1:], "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and err.endswith("must be finite\n"), err
    assert not out.exists()


def test_sweep_deterministic_bytes(laser_config, tmp_path):
    args = [
        "sweep", "--config", laser_config, "--axis", "delta_phi",
        "--from", "0", "--to", "6.283185307179586", "--steps", "17",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_output_subset(laser_config, capsys):
    assert main([
        "sweep", "--config", laser_config, "--axis", "delta_phi",
        "--from", "0", "--to", "3.14", "--steps", "3",
        "--outputs", "f1,branch",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "delta_phi,f1,branch"
    assert len(lines) == 4


@pytest.mark.parametrize("axis, cells", [
    ("kappa", ["1.1625127171108135e-05", "0", "0"]),  # the gain falls as 1/kappa
    ("g0", ["0.0072657044819425852", "inf", "inf"]),  # and grows as g0^2
])
def test_sweep_to_a_huge_rate_exits_0(axis, cells, laser_config, capsys):
    # kappa**2 or g0**2 overflows: the cell is inf or 0, not an OverflowError
    assert main([
        "sweep", "--config", laser_config, "--axis", axis,
        "--from", "0.05", "--to", "1e200", "--steps", "3", "--outputs", "laser_gain",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == cells


def test_repeated_output_exit_1(boundary_config, tmp_path, capsys):
    grid_path = tmp_path / "grid.csv"
    code = main([
        "grid", "--config", boundary_config,
        "--x-axis", "lambda1", "--x-from", "198", "--x-to", "199", "--x-steps", "3",
        "--y-axis", "delta_phi", "--y-from", "0", "--y-to", "3", "--y-steps", "3",
        "--outputs", "f1,f2,f1",
        "--out", str(grid_path),
    ])
    assert code == 1
    assert "repeated output column(s): f1" in capsys.readouterr().err
    assert not grid_path.exists()


def test_laser_sweep_spec_columns(laser_config, capsys):
    assert main(["laser-sweep", "--config", laser_config, "--steps", "5"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == (
        "delta_phi,w1,w2,detuning,gp12_abs,gain,n_b,"
        "n_threshold,p_threshold,branch,f1,error"
    )


def test_laser_sweep_other_axis_leads_with_raw_value(laser_config, capsys):
    assert main([
        "laser-sweep", "--config", laser_config, "--axis", "g0",
        "--from", "0.001", "--to", "0.003", "--steps", "3",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "g0,delta_phi,w1,w2,detuning,gp12_abs,gain,n_b,"
        "n_threshold,p_threshold,branch,f1,error"
    )
    assert [line.split(",")[0] for line in lines[1:]] == ["0.001", "0.002", "0.0030000000000000001"]


_SWEEP_AXIS = ["--axis", "delta_phi", "--from", "0", "--to", "1", "--steps", "3"]
_GRID_AXES = ["--x-axis", "lambda1", "--x-from", "9", "--x-to", "9.5", "--x-steps", "2",
              "--y-axis", "delta_phi", "--y-from", "0", "--y-to", "1", "--y-steps", "2"]

# every column, in emission order: the header of a full delta_phi sweep
FULL_HEADER = (
    "delta_phi,r_d1,r_d2,omega_s1,omega_s2,g_s2,g_p2,lam1_re,lam1_im,lam2_re,lam2_im,f_disp,"
    "c_const,f1,f2,f1_degenerate,branch,"
    "tms_r,tms_phi,tms_w1,tms_w2,tms_g1,tms_g2,tms_g11_re,tms_g11_im,tms_g22_re,tms_g22_im,"
    "tms_g12_re,tms_g12_im,tms_gp12_re,tms_gp12_im,tms_gp12_abs,tms_f_prime,tms_c_prime,"
    "tms_eta,tms_max_rwa_ratio,tms_resonance,tms_error,"
    "bs_theta,bs_phi,bs_w1,bs_w2,bs_g1,bs_g2,bs_g11_re,bs_g11_im,bs_g22_re,bs_g22_im,"
    "bs_g12_re,bs_g12_im,bs_gp12_re,bs_gp12_im,bs_gp12_abs,bs_max_rwa_ratio,bs_resonance,"
    "laser_source,laser_w1,laser_w2,laser_detuning,laser_gp12_abs,laser_gain,laser_n_b,"
    "laser_n_b_capped,laser_n_threshold,laser_p_threshold,laser_error,error"
)
LASER_HEADER = "delta_phi,w1,w2,detuning,gp12_abs,gain,n_b,n_threshold,p_threshold,branch,f1,error"

# name -> (argv after the command's --config, or --grid for contours, and the
# header the command writes)
HEADERS = {
    "sweep": (["sweep", *_SWEEP_AXIS], FULL_HEADER),
    "sweep_outputs": (["sweep", *_SWEEP_AXIS, "--outputs", "tms_g1, f1,delta_phi"],
                      "delta_phi,tms_g1,f1"),
    "sweep_outputs_empty": (["sweep", *_SWEEP_AXIS, "--outputs", ""], "delta_phi"),
    "grid": (["grid", *_GRID_AXES], "x_index,y_index,lambda1,delta_phi,f1,f2,branch"),
    "grid_outputs": (["grid", *_GRID_AXES, "--outputs", "laser_gain,f1"],
                     "x_index,y_index,lambda1,delta_phi,laser_gain,f1"),
    "grid_outputs_empty": (["grid", *_GRID_AXES, "--outputs", ""],
                           "x_index,y_index,lambda1,delta_phi"),
    "laser_sweep_delta_phi": (["laser-sweep", "--steps", "3"], LASER_HEADER),
    "laser_sweep_g0": (
        ["laser-sweep", "--axis", "g0", "--from", "0.001", "--to", "0.003", "--steps", "3"],
        "g0," + LASER_HEADER,
    ),
    "analyze": (["analyze"], FULL_HEADER + ",oracle_nu1,oracle_nu2,oracle_stable,"
                "oracle_freq_dev_lo,oracle_freq_dev_hi,oracle_coeff_defect_tms,"
                "oracle_coeff_defect_bs,oracle_metric_defect"),
    "verify": (["verify", "--random", "1"], "check,status,max_error,tolerance,detail"),
    "contours": (["contours", "--field", "f1", "--level", "1"], "field,level,polyline,vertex,x,y"),
}


@pytest.mark.parametrize("name", sorted(HEADERS))
def test_each_header_is_the_list_in_sweep(name, laser_config, tmp_path, capsys):
    (command, *args), want = HEADERS[name]
    source = ["--config", laser_config]
    if command == "contours":  # of the grid case's file
        grid = str(tmp_path / "grid.csv")
        assert main(["grid", *source, *_GRID_AXES, "--out", grid]) == 0
        source = ["--grid", grid]
    assert main([command, *source, *args]) == 0
    assert capsys.readouterr().out.splitlines()[0] == want


def test_grid_empty_outputs_writes_head_columns(boundary_config, capsys):
    assert main([
        "grid", "--config", boundary_config,
        "--x-axis", "lambda1", "--x-from", "198", "--x-to", "199", "--x-steps", "2",
        "--y-axis", "delta_phi", "--y-from", "0", "--y-to", "3", "--y-steps", "2",
        "--outputs", "",
    ]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "x_index,y_index,lambda1,delta_phi",
        "0,0,198,0", "1,0,199,0", "0,1,198,3", "1,1,199,3",
    ]


def test_grid_then_contours_roundtrip(boundary_config, tmp_path, capsys):
    grid_path = tmp_path / "grid.csv"
    assert main([
        "grid", "--config", boundary_config,
        "--x-axis", "lambda1", "--x-from", "197.5", "--x-to", "199.9", "--x-steps", "25",
        "--y-axis", "delta_phi", "--y-from", "0", "--y-to", "6.283185307179586",
        "--y-steps", "25",
        "--outputs", "f1,f2",
        "--out", str(grid_path),
    ]) == 0
    assert main([
        "contours", "--grid", str(grid_path), "--field", "f1", "--level", "10",
    ]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "field,level,polyline,vertex,x,y"
    assert len(lines) > 2
    xs = [float(l.split(",")[4]) for l in lines[1:]]
    assert all(197.5 <= x <= 199.9 for x in xs)


def test_contours_needs_field_when_ambiguous(boundary_config, tmp_path, capsys):
    grid_path = tmp_path / "grid.csv"
    main([
        "grid", "--config", boundary_config,
        "--x-axis", "lambda1", "--x-from", "198", "--x-to", "199", "--x-steps", "3",
        "--y-axis", "delta_phi", "--y-from", "0", "--y-to", "3", "--y-steps", "3",
        "--outputs", "f1,f2",
        "--out", str(grid_path),
    ])
    assert main(["contours", "--grid", str(grid_path), "--level", "10"]) == 1
    assert "--field" in capsys.readouterr().err


def test_contours_empty_level_note(boundary_config, tmp_path, capsys):
    grid_path = tmp_path / "grid.csv"
    main([
        "grid", "--config", boundary_config,
        "--x-axis", "lambda1", "--x-from", "198", "--x-to", "199", "--x-steps", "4",
        "--y-axis", "delta_phi", "--y-from", "0", "--y-to", "3", "--y-steps", "4",
        "--outputs", "f1",
        "--out", str(grid_path),
    ])
    # f1 >= 0 everywhere (it diverges near the omega-sum zero line, so even
    # huge positive levels can cross); a negative level never does
    assert main(["contours", "--grid", str(grid_path), "--level", "-5"]) == 0
    captured = capsys.readouterr()
    assert "never crosses" in captured.err


def test_verify_pass_and_fail_exit_codes(laser_config, capsys):
    assert main(["verify", "--config", laser_config, "--random", "5"]) == 0
    capsys.readouterr()
    # an absurd tolerance forces a verification failure -> exit 2
    assert main([
        "verify", "--config", laser_config, "--random", "5", "--rel-tol", "1e-30",
    ]) == 2
    out = capsys.readouterr().out
    assert ",fail," in out


@pytest.mark.parametrize("argv, message", [
    (["--random", "abc"], "argument --random: invalid int value: 'abc'"),
    ([], "the following arguments are required: --config"),
    (["--bogus"], "unrecognized arguments: --bogus"),
])
def test_a_usage_error_exits_1(argv, message, laser_config, capsys):
    """A usage error exits 1, as a configuration error does: 2 is kept for
    a failed verification. The message is argparse's own."""
    argv = ["verify", *([] if not argv else ["--config", laser_config]), *argv]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    told = capsys.readouterr().err
    assert told.startswith("usage: sqom") and told.endswith(f"error: {message}\n")
    assert main(argv) == 1
    assert capsys.readouterr() == ("", told)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-h"])
    assert exc.value.code == 0


def test_resonance_floor_flags_the_laser_dips(laser_config, capsys):
    # rows 309 and 411 of the 721-point phase sweep are the threshold dips,
    # where W1 - W2 - omega_m nearly vanishes: with the default floor the
    # gp12 term counts as a huge ratio, with a floor of 0.5 as a resonance hit
    argv = [
        "sweep", "--config", laser_config, "--axis", "delta_phi", "--from", "0",
        "--to", repr(2.0 * math.pi), "--steps", "721",
        "--outputs", "bs_max_rwa_ratio,bs_resonance",
    ]
    rows = {}
    for floor in ("1e-9", "0.5"):
        assert main(argv + ["--resonance-floor", floor]) == 0
        rows[floor] = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert main(argv) == 0
    assert [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]] == rows["1e-9"]

    _, ratio, hit = rows["1e-9"][309]
    assert hit == "false" and float(ratio) == pytest.approx(33.1347356007, rel=1e-9)
    _, ratio, hit = rows["0.5"][309]
    assert hit == "true" and float(ratio) == pytest.approx(0.0594019724677, rel=1e-9)
    assert all(hit == "false" for _, _, hit in rows["1e-9"])
    assert rows["0.5"][411][2] == "true"  # the upper dip


def _readme_synopses() -> dict[str, str]:
    """Subcommand -> its line in the README's CLI synopsis, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return {line.split()[1]: line for line in lines if line.startswith("sqom ")}


def test_readme_synopsis_lists_every_option():
    parser = build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    synopses = _readme_synopses()
    assert sorted(synopses) == sorted(subcommands.choices)
    for name, sub in subcommands.choices.items():
        accepted = {o for a in sub._actions for o in a.option_strings if o.startswith("--")}
        accepted.discard("--help")
        assert set(re.findall(r"--[a-z][a-z-]*", synopses[name])) == accepted, name


_SWEEP = ("--axis", "delta_phi", "--from", "0", "--to", "1", "--steps", "3")
_GRID = ("--x-axis", "lambda1", "--x-from", "197", "--x-to", "199", "--x-steps", "3",
         "--y-axis", "delta_phi", "--y-from", "0", "--y-to", "1", "--y-steps", "3")

# argv of every command, its help, and its usage errors
PARSER_CORPUS = [
    ("analyze", "--config", "c.json"),
    ("analyze", "--config", "c.json", "--out", "o.csv", "--n-plus", "2",
     "--n-minus", "0.5", "--resonance-floor", "0.1"),
    ("sweep", "--config", "c.json", *_SWEEP, "--outputs", "f1,branch"),
    ("grid", "--config", "c.json", *_GRID, "--resonance-floor", "1e-3"),
    ("contours", "--grid", "g.csv", "--level", "1", "--level", "2", "--field", "f1"),
    ("laser-sweep", "--config", "c.json", "--steps", "5", "--axis", "g0"),
    ("verify", "--config", "c.json", "--random", "3", "--seed", "7", "--rel-tol", "1e-8"),
    ("-h",),
    ("--help",),
    *((name, "-h") for name in ("analyze", "sweep", "grid", "contours", "laser-sweep",
                                "verify")),
    ("analyze",),
    ("sweep", "--config", "c.json", "--axis", "g0", "--from", "0", "--to", "1"),
    ("contours", "--grid", "g.csv"),
    ("sweep", "--config", "c.json", *_SWEEP[:-1], "three"),
    ("verify", "--config", "c.json", "--random", "1.5"),
    ("grid", "--config", "c.json", *_GRID[:-2], "--y-steps", "x"),
    ("analyze", "--conf", "c.json"),
    ("verify", "--conf", "c.json", "--ran", "3"),
    ("laser-sweep", "--config", "c.json", "--steps", "5", "--n", "1"),
    ("analyze", "--config", "c.json", "--bogus"),
    ("contours", "--grid", "g.csv", "--level", "1", "extra"),
    ("analyze", "--config", "c.json", "analyze"),
    ("bogus",),
    ("anal", "--config", "c.json"),
    ("--config", "c.json", "analyze"),
    (),
]


def test_analyze_writes_the_row_when_the_oracle_cannot_pair_frequencies(tmp_path, capsys):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(UNPAIRED_PARAMS))
    assert main(["analyze", "--config", str(path)]) == 0
    captured = capsys.readouterr()
    header, row = captured.out.splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["error"] == "" and cells["branch"] == "intermediate"
    assert [cells[name] for name in header.split(",") if name.startswith("oracle_")] == [
        "nan", "nan", "", "nan", "nan", "nan", "nan", "nan"]
    assert captured.err == ""


def test_verify_reports_a_config_point_whose_frequencies_cannot_be_paired(tmp_path, capsys):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(UNPAIRED_PARAMS))
    assert main(["verify", "--config", str(path), "--random", "2"]) == 0
    captured = capsys.readouterr()
    header, *lines = captured.out.splitlines()
    assert header == "check,status,max_error,tolerance,detail"
    rows = {line.split(",", 1)[0]: line for line in lines}
    assert rows["config_point[tms]"] == (
        "config_point[tms],info,nan,nan,branch transformation undefined here (TmsUnstable)")
    assert rows["config_point[bs]"] == (
        "config_point[bs],info,nan,nan,"
        "exact frequencies cannot be paired here (NumericalDegeneracy)")
    # every random-set check is written, and no other config point row
    assert len(lines) == len(rows) == 11 + 4 + 2
    for label in ("tms", "bs"):
        assert rows[f"oracle_coefficients[{label}]"].split(",")[1] == "pass"
        assert rows[f"symplectic_metric[{label}]"].split(",")[1] == "pass"
    assert captured.err == ""


def _main_outcome(argv, capsys):
    try:
        outcome = ("returned", main(list(argv)))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    return outcome, capsys.readouterr()


# " ".join(argv) -> SHA-256 of the JSON list [how main ended, its code or
# exit status, stdout, stderr], with COLUMNS=80 in an empty directory; argparse's
# wording changes between Python versions, so these are Python 3.11's
CLI_TEXT_DIGESTS = {
    "analyze --config c.json":
        "9ecf021456f1bb1121d3d4368a5861b893611c65f85a04841354a1105462c6c9",
    "analyze --config c.json --out o.csv --n-plus 2 --n-minus 0.5 --resonance-floor 0.1":
        "9ecf021456f1bb1121d3d4368a5861b893611c65f85a04841354a1105462c6c9",
    "sweep --config c.json --axis delta_phi --from 0 --to 1 --steps 3 --outputs f1,branch":
        "9ecf021456f1bb1121d3d4368a5861b893611c65f85a04841354a1105462c6c9",
    "grid --config c.json --x-axis lambda1 --x-from 197 --x-to 199 --x-steps 3 --y-axis delta_phi --y-from 0 --y-to 1 --y-steps 3 --resonance-floor 1e-3":
        "9ecf021456f1bb1121d3d4368a5861b893611c65f85a04841354a1105462c6c9",
    "contours --grid g.csv --level 1 --level 2 --field f1":
        "cdae9d721077819a5ad024d9e5b9dfc46e419804152d4a12cb675e6795fc55c7",
    "laser-sweep --config c.json --steps 5 --axis g0":
        "9ecf021456f1bb1121d3d4368a5861b893611c65f85a04841354a1105462c6c9",
    "verify --config c.json --random 3 --seed 7 --rel-tol 1e-8":
        "9ecf021456f1bb1121d3d4368a5861b893611c65f85a04841354a1105462c6c9",
    "-h":
        "b469eb6e15132651687e0ee5b65c1f621282322e5699e311dee1e0aa2623e7ee",
    "--help":
        "b469eb6e15132651687e0ee5b65c1f621282322e5699e311dee1e0aa2623e7ee",
    "analyze -h":
        "4a86d6fe5554e81c5b145b54cd5800ec71b95f7c1bf7916259bc4a9a7774611a",
    "sweep -h":
        "70a3c2a1d9c72a4dc3ba175d3e9439097570730bd02a8089076d4932c4e44dd9",
    "grid -h":
        "5624680131bf20ad4b079a576b60507835529da2496a024fd3f6762279c04840",
    "contours -h":
        "538dbb19b78c66f2a422acf530551fc98415b55e78b3f872611ffa60cdcdb9cb",
    "laser-sweep -h":
        "b305d4b431f7363de84eaf11e1df215666fe6139e2f1b45a54b1ff79cf908921",
    "verify -h":
        "f197adaa41494a59a73a22d709fbbb9340dfbc9d7cc08fda76161ac21df16e2b",
    "analyze":
        "5acbf1c00695e89a7f58d9939b1d9273d9e9d56c36b52c38fe5d5688d263e754",
    "sweep --config c.json --axis g0 --from 0 --to 1":
        "e54ff7f8e001d540d05c078cad5f0affa3cc2675d02020c2764544f47e21d6e2",
    "contours --grid g.csv":
        "5105b2bbe0cd704b8a1a2f9c6723a0f898322d82b9e3649b678b59dc02649e55",
    "sweep --config c.json --axis delta_phi --from 0 --to 1 --steps three":
        "08619da44120081216f02a09bb655c1ca353abda2240ef087ed8a3198ba30415",
    "verify --config c.json --random 1.5":
        "c43cc2d79ba397ed0f68420f1c301bdd2188ffaade827cbafa83ef2505ac12f4",
    "grid --config c.json --x-axis lambda1 --x-from 197 --x-to 199 --x-steps 3 --y-axis delta_phi --y-from 0 --y-to 1 --y-steps x":
        "01d8e877750d16866ad0a39b75cd33b83681aba21739ee1f05900e4f3431a3d0",
    "analyze --conf c.json":
        "9ecf021456f1bb1121d3d4368a5861b893611c65f85a04841354a1105462c6c9",
    "verify --conf c.json --ran 3":
        "9ecf021456f1bb1121d3d4368a5861b893611c65f85a04841354a1105462c6c9",
    "laser-sweep --config c.json --steps 5 --n 1":
        "1b86e299fc5fc92b2deb8d7a9d718d16023e065fa7da612e96c277bb8cdd9d46",
    "analyze --config c.json --bogus":
        "5a50d983871fc3d996da6f821ef67ee003d2ddc79f42836046cd931cd0b557bd",
    "contours --grid g.csv --level 1 extra":
        "319e9ec52c316e4c5ab022b3e14c17b0f636a414d5f7bf9a130088fe74fb4d34",
    "analyze --config c.json analyze":
        "80e9e0d063b48a9c1844941d84a19a2e695d7c2428fa5d4612762d51c1d5a727",
    "bogus":
        "f1e138ad809d613ea929020b6b5d3f8e388f08e4c85a84a8cf24515b9a5f05d7",
    "anal --config c.json":
        "dbe4c721a8929898a972ab519a18ea62130f6f8e01c72a7407bf45b5de6f807f",
    "--config c.json analyze":
        "efb1e73e307666d315ca71fa7b2df46f1ad997ede29ebb4ded60eeb948cdd2fc",
    "":
        "fcc0eea67e16ade06d1b145276a9ef3dffc0527219755406a5b9c1e1c3cc882e",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="digests of Python 3.11's argparse")
@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
def test_cli_text_is_pinned(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    outcome, (out, err) = _main_outcome(argv, capsys)
    text = json.dumps([*outcome, out, err])
    assert hashlib.sha256(text.encode()).hexdigest() == CLI_TEXT_DIGESTS[" ".join(argv)]


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
def test_reused_parser_runs_as_a_fresh_one(argv, tmp_path, capsys, monkeypatch):
    # no c.json or g.csv here: a parsed argv ends in the config or grid error
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    twice = [_main_outcome(argv, capsys) for _ in range(2)]
    monkeypatch.setattr(cli, "_parser", build_parser)
    fresh = _main_outcome(argv, capsys)
    assert twice == [fresh, fresh]
    assert not list(tmp_path.iterdir())


def test_main_builds_one_parser_per_process(laser_config, boundary_config, tmp_path,
                                            monkeypatch):
    built, used = [], []  # the parsers themselves, so no two share an id
    parse_args = argparse.ArgumentParser.parse_args

    def building():
        built.append(build_parser())
        return built[-1]

    def recording(parser, *args, **kwargs):
        used.append(parser)
        return parse_args(parser, *args, **kwargs)

    monkeypatch.setattr(cli, "build_parser", building)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    cli._parser.cache_clear()
    grid, out = str(tmp_path / "grid.csv"), str(tmp_path / "out.csv")
    config = ("--config", laser_config)
    for _ in range(2):
        for argv in (
            ("analyze", *config),
            ("sweep", *config, *_SWEEP),
            ("grid", "--config", boundary_config, *_GRID, "--outputs", "f1"),
            ("contours", "--grid", grid, "--level", "8"),
            ("laser-sweep", *config, "--steps", "3"),
            ("verify", *config, "--random", "0"),
        ):
            assert main([*argv, "--out", grid if argv[0] == "grid" else out]) == 0
    assert len(built) == 1
    assert len(used) == 12 and {id(parser) for parser in used} == {id(built[0])}


def test_reused_contours_parser_keeps_no_level(boundary_config, tmp_path, capsys):
    grid_path = tmp_path / "grid.csv"
    assert main([
        "grid", "--config", boundary_config,
        "--x-axis", "lambda1", "--x-from", "197.5", "--x-to", "199.9", "--x-steps", "9",
        "--y-axis", "delta_phi", "--y-from", "0", "--y-to", "6.283185307179586",
        "--y-steps", "9", "--outputs", "f1", "--out", str(grid_path),
    ]) == 0
    levels = []
    for argv in (["--level", "4", "--level", "8"], ["--level", "16"]):
        assert main(["contours", "--grid", str(grid_path), *argv]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        levels.append({line.split(",")[1] for line in lines})
    assert levels == [{"4", "8"}, {"16"}]


def test_reused_analyze_parser_writes_stdout_after_out(laser_config, tmp_path, capsys):
    assert main(["analyze", "--config", laser_config]) == 0
    expected = capsys.readouterr().out
    assert expected.count("\n") == 2
    out = tmp_path / "row.csv"
    assert main(["analyze", "--config", laser_config, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == expected
    assert main(["analyze", "--config", laser_config]) == 0
    assert capsys.readouterr().out == expected


def test_build_parser_returns_a_new_parser_each_call():
    assert build_parser() is not build_parser()


def test_closed_stdout_exits_1_without_traceback(laser_config):
    src = str(Path(sqom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sqom.cli", "sweep", "--config", laser_config,
         "--axis", "delta_phi", "--from", "0", "--to", "1", "--steps", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, "")
