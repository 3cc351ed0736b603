"""CLI subcommands, exit codes, file round-trips."""
import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sqom
from sqom.cli import build_parser, main

LASER_PARAMS = {
    "delta1": 20, "delta2": 100, "lambda1": 9.94, "lambda2": 49.99,
    "j_hop": 0.1, "g0": 0.002, "kappa": 0.05, "gamma_m": 0.001,
}

BOUNDARY_PARAMS = {
    "delta1": -400, "delta2": 400, "lambda1": 198.305, "lambda2": 198,
    "j_hop": 0.3, "g0": 0.005, "kappa": 0.05, "gamma_m": 0.001,
}


@pytest.fixture
def laser_config(tmp_path):
    path = tmp_path / "laser.json"
    path.write_text(json.dumps(LASER_PARAMS))
    return str(path)


@pytest.fixture
def boundary_config(tmp_path):
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps(BOUNDARY_PARAMS))
    return str(path)


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


def test_contours_short_header_exit_1(tmp_path, capsys):
    grid_path = tmp_path / "grid.csv"
    grid_path.write_text("x_index,y_index,f1\n0,0,1.0\n1,0,2.0\n")
    assert main(["contours", "--grid", str(grid_path), "--level", "1.5"]) == 1
    assert "lacks the y axis column" in capsys.readouterr().err
    grid_path.write_text("x_index,y_index\n0,0\n")
    assert main(["contours", "--grid", str(grid_path), "--level", "1.5"]) == 1
    assert "lacks the x axis and y axis column" in capsys.readouterr().err


def test_bad_axis_exit_1(laser_config, capsys):
    code = main([
        "sweep", "--config", laser_config, "--axis", "nope",
        "--from", "0", "--to", "1", "--steps", "3",
    ])
    assert code == 1
    assert "axis" in capsys.readouterr().err


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


def test_laser_sweep_spec_columns(laser_config, capsys):
    assert main(["laser-sweep", "--config", laser_config, "--steps", "5"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == (
        "delta_phi,w1,w2,detuning,gp12_abs,gain,n_b,"
        "n_threshold,p_threshold,branch,f1,error"
    )


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
