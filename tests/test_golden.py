"""Byte-identity of full CLI outputs, pinned by SHA-256.

Each case runs one subcommand in-process and digests the file it writes.
The digests were captured from the row-at-a-time pipeline that preceded the
columnar one, so any change to a single byte of any cell (a flipped last
digit, a signed zero, a moved sentinel) fails here. Rewrite a digest only
for a deliberate output change, and say so where the change is recorded.
"""
import contextlib
import dataclasses
import hashlib
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqom import contours
from sqom.cli import main
from sqom.errors import ConfigError

from conftest import boundary_set, laser_set, strong_drive_set

TWO_PI = repr(2.0 * math.pi)

# the reference sets at delta_phi = 0, as config dicts
LASER, BOUNDARY, STRONG = (
    dataclasses.asdict(reference(0.0)) for reference in (laser_set, boundary_set, strong_drive_set)
)
CONFIGS = {
    "laser": LASER,
    "boundary": BOUNDARY,
    "strong": STRONG,
    "laser_phase": dict(LASER, phi_d1=2.6957770487662587, phi_d2=0.25),
    "laser_omega_m": dict(LASER, omega_m=2.0),
    "laser_unstable": dict(LASER, lambda2=50.0),
    "laser_nan_phase": dict(LASER, phi_d2=math.nan),
    "undriven": dict(LASER, lambda1=0.0, lambda2=0.0, delta1=2.0, delta2=1.2, j_hop=0.3),
    "laser_no_hop": dict(LASER, j_hop=0.0),
    # both drives within about 1e-13 of the stage-1 boundary: the exact
    # eigenvalues cannot be paired into +/- frequencies (NumericalDegeneracy)
    "unpaired": dict(
        LASER, delta1=445.6813207479668, lambda1=222.84066037398313,
        delta2=-13.274826580266046, lambda2=6.637413290132873, j_hop=0.6248372277393877,
        g0=0.05179304768804502, phi_d1=math.pi, phi_d2=math.pi,
    ),
}


def _sweep(config, axis, start, stop, steps, *extra):
    return ("sweep", config, "--axis", axis, "--from", start, "--to", stop,
            "--steps", str(steps), *extra)


# name -> argv, with a config label in place of --config PATH
CASES = {
    "sweep_laser_721": _sweep("laser", "delta_phi", "0", TWO_PI, 721),
    "grid_boundary_109": (
        "grid", "boundary", "--x-axis", "lambda1", "--x-from", "197.2", "--x-to", "199.9",
        "--x-steps", "109", "--y-axis", "delta_phi", "--y-from", "0", "--y-to", TWO_PI,
        "--y-steps", "109", "--outputs", "f1,f2,branch",
    ),
    # contoured below; the same bytes as strong_drive_grid.csv of
    # scripts/generate_datasets.py
    "grid_strong_101": (
        "grid", "strong", "--x-axis", "lambda1", "--x-from", "1995", "--x-to", "1999.95",
        "--x-steps", "101", "--y-axis", "delta_phi", "--y-from", "0", "--y-to", TWO_PI,
        "--y-steps", "101", "--outputs", "f1,f2,tms_g1,tms_g2,tms_eta,branch",
    ),
    "grid_strong_many_columns": (
        "grid", "strong", "--x-axis", "lambda1", "--x-from", "1995", "--x-to", "2001",
        "--x-steps", "13", "--y-axis", "delta_phi", "--y-from", "0", "--y-to", TWO_PI,
        "--y-steps", "9", "--outputs", ",".join([
            "r_d1", "omega_s1", "lam1_re", "lam2_im", "f1", "f2", "f1_degenerate",
            "branch", "tms_phi", "tms_g11_im", "tms_gp12_abs", "tms_c_prime",
            "tms_max_rwa_ratio", "tms_resonance", "tms_error", "bs_theta", "bs_g12_re",
            "bs_max_rwa_ratio", "laser_source", "laser_n_b", "laser_n_b_capped",
            "laser_error", "error",
        ]),
    ),
    # the mode-1 detuning along x, the mode-2 drive along y: each stage-1
    # mode repeats its values along the other axis; both cross the stage-1
    # boundary, so valid and Stage1Unstable points mix
    "grid_laser_delta1_lambda2": (
        "grid", "laser", "--x-axis", "delta1", "--x-from", "19", "--x-to", "21",
        "--x-steps", "13", "--y-axis", "lambda2", "--y-from", "49.6", "--y-to", "50.2",
        "--y-steps", "11", "--outputs", ",".join([
            "f1", "f2", "branch", "r_d1", "r_d2", "omega_s2", "lam2_re", "tms_g1",
            "tms_error", "bs_g2", "bs_resonance", "laser_n_b", "laser_p_threshold",
            "laser_error", "error",
        ]),
    ),
    "laser_sweep_721": ("laser-sweep", "laser", "--steps", "721"),
    # mode 2 is constant along the sweep; lambda1 crosses delta1/2 = 10
    "laser_sweep_lambda1": (
        "laser-sweep", "laser", "--axis", "lambda1", "--from", "9.0", "--to", "10.5",
        "--steps", "61",
    ),
    "laser_sweep_n_plus": (
        "laser-sweep", "laser", "--steps", "91", "--n-plus", "3.5", "--n-minus", "0.25",
    ),
    "analyze_laser": ("analyze", "laser"),
    "analyze_boundary": ("analyze", "boundary"),
    "analyze_strong": ("analyze", "strong"),
    "analyze_laser_dip": ("analyze", "laser_phase"),
    "analyze_stage1_unstable": ("analyze", "laser_unstable"),
    "sweep_boundary_phase": _sweep("boundary", "delta_phi", "0", TWO_PI, 181),
    "sweep_strong_phase": _sweep("strong", "delta_phi", "0", TWO_PI, 181),
    "sweep_kappa_crosses_zero": _sweep("laser", "kappa", "-0.05", "0.05", 41),
    "sweep_gamma_m_crosses_zero": _sweep("laser", "gamma_m", "-0.001", "0.002", 31),
    "sweep_lambda2_stage1_unstable": _sweep("laser", "lambda2", "49.5", "50.5", 41),
    "sweep_delta1_negative_detunings": _sweep("laser", "delta1", "-30", "30", 61),
    "sweep_j_hop_zero_coupling": _sweep("laser", "j_hop", "-0.2", "0.6", 41),
    "sweep_undriven_zero_hop": _sweep("undriven", "j_hop", "0", "0.5", 11),
    "sweep_omega_m_config_error": _sweep("laser_omega_m", "delta_phi", "0", "1", 3),
    "sweep_nan_phase_config_error": _sweep("laser_nan_phase", "g0", "0", "1", 3),
    "sweep_rwa_knobs": _sweep(
        "boundary", "lambda1", "197", "199.9", 59, "--resonance-floor", "1e-3", "--outputs",
        "f1,tms_max_rwa_ratio,tms_resonance,bs_max_rwa_ratio,bs_resonance",
    ),
    "verify_laser": ("verify", "laser", "--random", "20", "--seed", "3"),
    # no random sets: the oracle runs on empty batches
    "verify_laser_random_0": ("verify", "laser", "--random", "0"),
    # the configured point with both branch transformations defined
    "verify_boundary_random_1": ("verify", "boundary", "--random", "1", "--seed", "5"),
    # j_hop = 0: a zero laser coupling (ZeroCoupling); the laser set at
    # delta_phi = 0 (analyze_laser) is a TmsUnstable point
    "analyze_zero_coupling": ("analyze", "laser_no_hop"),
    # a blank oracle block, and info rows in place of the config point's checks
    "analyze_unpaired": ("analyze", "unpaired"),
    "verify_unpaired": ("verify", "unpaired", "--random", "5"),
}

DIGESTS = {
    "analyze_boundary": "47eb43a2c02aeb188a7b79b813c14bd6f438ef98f000bf63dc7c1bd9714654fc",
    "analyze_laser": "577d38713081f4abd4076e6fbe568682a99836bfc35f133451d9d6319621ec49",
    "analyze_laser_dip": "8fd80ce16177cf57ef8fb8ae4eea71f3935cc51e80ec297e80f2d02cf4f29309",
    "analyze_stage1_unstable": "96dd37fe9b8cb281ea2091a0f90380e1cdff0a98a0eab5515e666f4f322b52e7",
    "analyze_strong": "bdbc3ba1996847489653afafcdc40b2b61c0b562a1b09931c77073f08fc59dc5",
    "analyze_unpaired": "0fbb0adfdfac7196184daed1c970e0ded4f6fb22e1a92162b85d78ef5deb64cc",
    "analyze_zero_coupling": "3969712a8cad44f16e05b6c7aaeec73dc78def44d4e02117b11d8017d5ebe698",
    "grid_boundary_109": "6b45321f1db84ce153d4dad3ebf4f3d05f6c6965b8105d5f44f1314965f4946e",
    "grid_strong_101": "3ee7f76ecbd88eb1a55620f9c534576fd9cd776f1e7e400faad568622a3b41ae",
    "grid_strong_many_columns": "2ea8bea4b4e0391264c2a8e3015c4528c50f90ba5643166929eeeef79de1b347",
    "grid_laser_delta1_lambda2": "abb4cc98623a8b97a3a048e2c83a97bf81e629180bc89675e51030931ac9e6a7",
    "laser_sweep_721": "9edeb7182c2c870322f0f5a52df6ca87e7532c5798fe360743ca78049b440ab6",
    "laser_sweep_lambda1": "4a897766ba07ea0700f3b888abb09f8f5e6aa8bdb6d932f47a9d4f2e2e8ee98d",
    "laser_sweep_n_plus": "bc958efa51847c0cb258bc7e06983d6a4d25af99dba6026591538e98ba041ac8",
    "sweep_boundary_phase": "6cbe3046562ace0dbbe1ae938a8bbc6b07e321acaa72471f079119ae98519f28",
    "sweep_delta1_negative_detunings": "8b80a0ba24b4ca5bc497f106d90150e8a37e80be21f77b52e81c675c0b6ff6f7",
    "sweep_gamma_m_crosses_zero": "bc0edce0ebd508929068409dc505b8c47c6bac7c1b469d6b0edbb40096f4e73a",
    "sweep_j_hop_zero_coupling": "db69cdf81d721fc0783875865779409f0653b10eaac39a4788f3683058a1975e",
    "sweep_kappa_crosses_zero": "9b9d1d72a4778631bad293daeefe319d4b66ecedb154a31fa40712197b2dae7f",
    "sweep_lambda2_stage1_unstable": "4b4b334190c626906c9232b3a4cb1a56cfae0fe7b3ca44c9ec55bc4765f324b0",
    "sweep_laser_721": "81a3d71484bdbcb86eebd15794d23ec93763b51ff2982d6c59233cfd48aad7ac",
    "sweep_nan_phase_config_error": "b416bd04773acf247158ac373174975bbff1896839ef8f4c98865d824440de08",
    "sweep_omega_m_config_error": "46913c3154d6b7c2037131280287d1c6e2b0dbdb3e57db116657bc179bfd1296",
    "sweep_rwa_knobs": "45f462e1933aa50ab789b1f1150b6c55c9eb03b2e07938203223796dde7bc451",
    "sweep_strong_phase": "93d5f368512ceb9bc24e0543dcd83dab6c7f212fc1d21fa917ad0a8362dfb5a3",
    "sweep_undriven_zero_hop": "77f03f7c511eed8118ccb80b40c7b5fedd636fe82c96d2eb442b0ec595f210c1",
    "verify_boundary_random_1": "d48796f9b40412924058e637721fad00fca463a7e4d52f8fc13753621fbb9324",
    "verify_laser": "19ec0824e220aa63fc3c60487af90102e0902a2cc857bce91a67b6899e534bce",
    "verify_laser_random_0": "56b18e9e60128b6922ff817d980b70a959d2645e625eb29ca92529c4196463b0",
    "verify_unpaired": "a16635d3199acf7d3f793dd1ecd939db5907937578a36b7c07907aac9e810ee4",
}


def run_case(name, tmp_path) -> str:
    command, label, *rest = CASES[name]
    config = tmp_path / f"{label}.json"
    config.write_text(json.dumps(CONFIGS[label]))
    out = tmp_path / f"{name}.csv"
    assert main([command, "--config", str(config), *rest, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_bytes(name, tmp_path):
    assert run_case(name, tmp_path) == DIGESTS[name]


# `sqom contours` on grid files written by `sqom grid`. These digests and
# messages were captured from the cell-by-cell marching squares and the
# row-dict grid read-back, before either was rewritten.

# name -> (grid case, contours arguments after --grid PATH, stderr)
CONTOUR_CASES = {
    "boundary_f1_10": ("grid_boundary_109", ("--field", "f1", "--level", "10"), ""),
    "boundary_f2_0": ("grid_boundary_109", ("--field", "f2", "--level", "0"), ""),
    "boundary_f1_two_levels": (
        "grid_boundary_109", ("--field", "f1", "--level", "10", "--level", "2"), "",
    ),
    # the refused two-mode-squeezing points leave NaN cells in these fields
    "strong_tms_g2": ("grid_strong_101", ("--field", "tms_g2", "--level", "0.1"), ""),
    "strong_tms_eta": ("grid_strong_101", ("--field", "tms_eta", "--level", "0.05"), ""),
    "boundary_empty_level": (
        "grid_boundary_109", ("--field", "f2", "--level", "100", "--level", "0"),
        "note: level 100 never crosses field f2\n",
    ),
}

CONTOUR_DIGESTS = {
    "boundary_empty_level": "7ee58d71237f3e12f4dea8051afa3c03ee9f448c8032076951fa1a774659a42f",
    "boundary_f1_10": "054661fe038e1ef2e7d1dc2be41fb6b5281f7d3032df1c2ad8f1378e27a82577",
    "boundary_f1_two_levels": "897df512da13d5a6e838a723c44a2f186409c7a8840e44e70529c1c8d648ff53",
    "boundary_f2_0": "7ee58d71237f3e12f4dea8051afa3c03ee9f448c8032076951fa1a774659a42f",
    "strong_tms_eta": "b4a4a32d77c35a13bbcca990bda0814b93860094ce89c84b0e6dd561e74aefc8",
    "strong_tms_g2": "b46f49f427df90c82a6b435c6b7e6f9c62f83376611f9bc7ee21289ea4ff0481",
}


@pytest.fixture(scope="module")
def grid_files(tmp_path_factory):
    """Grid case name -> path of its CSV, each written once per module."""
    tmp = tmp_path_factory.mktemp("grids")
    paths = {}
    for name in ("grid_boundary_109", "grid_strong_101"):
        command, label, *rest = CASES[name]
        config = tmp / f"{label}.json"
        config.write_text(json.dumps(CONFIGS[label]))
        paths[name] = tmp / f"{name}.csv"
        assert main([command, "--config", str(config), *rest, "--out", str(paths[name])]) == 0
    return paths


def _contours(grid, args, out, capsys):
    code = main(["contours", "--grid", str(grid), *args, "--out", str(out)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(CONTOUR_CASES))
def test_contours_output_bytes(name, grid_files, tmp_path, capsys):
    grid, args, stderr = CONTOUR_CASES[name]
    out = tmp_path / "contours.csv"
    assert _contours(grid_files[grid], args, out, capsys) == (0, stderr)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CONTOUR_DIGESTS[name]


# A hand-written 5x4 grid file, f1 = x_index + 2*y_index, one non-numeric
# column; edge cases of the read-back edit its lines.
GRID_HEADER = "x_index,y_index,lam,phase,f1,branch"
GRID_LINES = [f"{i},{j},{0.5 * i!r},{j}.0,{i + 2 * j}.0,bs" for j in range(4) for i in range(5)]


def _edited(drop=(), replace=None, append=(), header=GRID_HEADER):
    lines = [line for k, line in enumerate(GRID_LINES) if k not in drop]
    for k, line in (replace or {}).items():
        lines[k] = line
    return "\n".join([header, *lines, *append]) + "\n"


# name -> (file text, contours arguments)
READBACK_CASES = {
    "complete": (_edited(), ()),
    # a short row gives NaN in the cells it lacks
    "short_row": (_edited(replace={6: "1,1,0.5,1.0"}), ()),
    "empty_cell": (_edited(replace={7: "2,1,1.0,1.0,,bs"}), ()),
    # the last row for an index wins; its 9.5 makes the cell x_index 2,
    # y_index 1 a saddle at level 6.25
    "repeated_index": (_edited(append=["2,1,1.0,1.0,9.5,tms"]), ()),
    "blank_lines": (_edited(replace={4: "\n" + GRID_LINES[4]}, append=[""]), ()),
    "rows_shuffled": ("\n".join([GRID_HEADER, *reversed(GRID_LINES)]) + "\n", ()),
    # a non-finite axis value that a later row for its index overrides is
    # legal: the grid is the complete one
    "overridden_infinite_axis": (
        _edited(replace={3: "3,0,inf,0.0,3.0,bs"}, append=[GRID_LINES[3]]), (),
    ),
}

READBACK_DIGESTS = {
    "blank_lines": "7a56dbb656afb14d7587ac7c50dcf1f7739de9df7a70a01c70b6c1677c11c8c6",
    "complete": "7a56dbb656afb14d7587ac7c50dcf1f7739de9df7a70a01c70b6c1677c11c8c6",
    "empty_cell": "9e78e859023f34923dace38b8e0b9fd6dc8233b2124ae6eed5478bd2e4105573",
    "overridden_infinite_axis": (
        "7a56dbb656afb14d7587ac7c50dcf1f7739de9df7a70a01c70b6c1677c11c8c6"),
    "repeated_index": "6f77fd5a67194b001d6e13099d59ebea405a4b0c9b362e1dff3b33e1f275c8fc",
    "rows_shuffled": "7a56dbb656afb14d7587ac7c50dcf1f7739de9df7a70a01c70b6c1677c11c8c6",
    "short_row": "08ac03a001ee27cd8b6ef03dfc7c45bc7156e5de93b198c64be0c39fac848d7f",
}


@pytest.mark.parametrize("name", sorted(READBACK_CASES))
def test_contours_grid_read_back(name, tmp_path, capsys):
    text, args = READBACK_CASES[name]
    grid = tmp_path / "grid.csv"
    grid.write_text(text)
    out = tmp_path / "contours.csv"
    assert _contours(grid, (*args, "--level", "3.5", "--level", "6.25"), out, capsys) == (0, "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == READBACK_DIGESTS[name]


# name -> (file text, contours arguments, stderr with {path} for the grid file)
READBACK_ERRORS = {
    "empty_file": ("", (), "error: grid file {path} is empty\n"),
    "header_only": (GRID_HEADER + "\n", (), "error: grid file {path} has no data rows\n"),
    "no_index_columns": (
        _edited(header="i,j,lam,phase,f1,branch"), (),
        "error: grid file {path} lacks x_index/y_index columns; "
        "produce it with the `grid` subcommand\n",
    ),
    "incomplete_coverage": (
        _edited(drop=(2, 7, 12, 17)), (),
        "error: grid file {path} does not cover the full index range\n",
    ),
    # an index far past the row count is refused before any index-sized
    # array is allocated
    "sparse_index": (
        "\n".join([GRID_HEADER, "0,0,0.0,0.0,1.0,bs", "10000000,10000000,1.0,1.0,2.0,bs"]) + "\n",
        (), "error: grid file {path} does not cover the full index range\n",
    ),
    # n diagonal rows (i, i) would span n x n cells: refused, not allocated
    "diagonal": (
        "\n".join([GRID_HEADER, *(f"{i},{i},{i}.0,{i}.0,1.0,bs" for i in range(2000))]) + "\n",
        (), "error: grid file {path} does not cover the full index range\n",
    ),
    "non_integer_index": (
        _edited(replace={3: "1.5,0,1.5,0.0,3.0,bs"}), (),
        "error: grid file {path}: x_index cell '1.5' in data row 4 is not an integer\n",
    ),
    "field_ambiguous": (
        _edited(header="x_index,y_index,lam,phase,f1,f2"), (),
        "error: grid file has 2 candidate value columns (f1, f2); pick one with --field\n",
    ),
    "field_not_numeric": (
        _edited(), ("--field", "branch"),
        "error: --field 'branch' not among numeric grid columns ['f1']\n",
    ),
    "field_unknown": (
        _edited(), ("--field", "f2"),
        "error: --field 'f2' not among numeric grid columns ['f1']\n",
    ),
    # a quoted cell past the csv module's field size limit (131072)
    "oversized_cell": (
        "\n".join([GRID_HEADER, f'0,0,0.0,0.0,1.0,bs,"{"a" * 200_000}"', "1,0,1.0,0.0,2.0,bs",
                   "0,1,0.0,1.0,3.0,bs", "1,1,1.0,1.0,4.0,bs"]) + "\n",
        (), "error: grid file {path}: field larger than field limit (131072)\n",
    ),
    # rows 2 and 4 give x_index 1 a non-finite lam; row 4 wins for the index
    **{
        f"{value}_axis": (
            "\n".join([GRID_HEADER, "0,0,0.0,0.0,1.0,bs", f"1,0,{value},0.0,2.0,bs",
                       "0,1,0.0,1.0,3.0,bs", f"1,1,{value},1.0,4.0,bs"]) + "\n",
            (), f"error: grid file {{path}}: lam value {value} in data row 4 is not finite\n",
        )
        for value in ("inf", "nan")
    },
}


@pytest.mark.parametrize("name", sorted(READBACK_ERRORS))
def test_contours_grid_read_back_errors(name, tmp_path, capsys):
    text, args, stderr = READBACK_ERRORS[name]
    grid = tmp_path / "grid.csv"
    grid.write_text(text)
    out = tmp_path / "contours.csv"
    assert _contours(grid, (*args, "--level", "3.5"), out, capsys) == (
        1, stderr.format(path=grid))
    assert not out.exists()


def test_a_grid_file_that_is_not_utf8_is_named(grid_files, tmp_path, capsys):
    # the file is decoded once: the position is the byte's offset in the file
    lines = grid_files["grid_boundary_109"].read_bytes().split(b"\n")
    offset = sum(len(line) + 1 for line in lines[:5000]) + 10
    lines[5000] = lines[5000][:10] + b"\xff" + lines[5000][10:]
    grid = tmp_path / "grid.csv"
    grid.write_bytes(b"\n".join(lines))
    out = tmp_path / "contours.csv"
    assert _contours(grid, ("--field", "f1", "--level", "10"), out, capsys) == (
        1, f"error: grid file {grid}: 'utf-8' codec can't decode byte 0xff in position "
           f"{offset}: invalid start byte\n")
    assert not out.exists()


# The two grid readers: numpy's C parser reads the files `sqom grid` writes,
# and the csv reader every file that parser might read otherwise.

def test_grid_files_take_the_fast_reader(grid_files, tmp_path, capsys):
    with mock.patch.object(contours, "_csv_columns", side_effect=AssertionError("csv reader")):
        for name, (grid, args, stderr) in sorted(CONTOUR_CASES.items()):
            out = tmp_path / f"{name}.csv"
            assert _contours(grid_files[grid], args, out, capsys) == (0, stderr)
            assert hashlib.sha256(out.read_bytes()).hexdigest() == CONTOUR_DIGESTS[name]


def test_readers_agree_on_a_grid_with_nan_cells(tmp_path, capsys):
    """The boundary map of tms_g2 (NaN at every two-mode-squeezing failure)
    gives the same contours from either reader alone."""
    config = tmp_path / "boundary.json"
    config.write_text(json.dumps(BOUNDARY))
    grid = tmp_path / "grid.csv"
    argv = list(CASES["grid_boundary_109"][2:])
    argv[argv.index("--outputs") + 1] = "tms_g2"
    assert main(["grid", "--config", str(config), *argv, "--out", str(grid)]) == 0
    assert ",nan\n" in grid.read_text()
    digests = set()
    for only in (mock.patch.object(contours, "_csv_columns", side_effect=AssertionError("csv")),
                 mock.patch.object(contours, "_loadtxt_columns", return_value=None)):
        out = tmp_path / "contours.csv"
        with only:
            assert _contours(grid, ("--level", "0.036"), out, capsys) == (0, "")
        digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
    assert len(digests) == 1


def test_a_loadtxt_warning_refuses_the_file():
    # numpy < 2 reads '1.0' in an integer column as 1 with a DeprecationWarning
    text = _edited()
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return loadtxt(*args, **kwargs)

    assert contours._loadtxt_columns(text, [0, 1, 2, 3, 4]) is not None
    # refused also where the caller's filters ignore the warning
    with mock.patch.object(np, "loadtxt", warning_loadtxt), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert contours._loadtxt_columns(text, [0, 1, 2, 3, 4]) is None


def test_the_fast_reader_runs_no_python_per_cell(grid_files, tmp_path, capsys):
    """numpy parses every column of the files `sqom grid` writes, NaN cells
    included: no value-cell converter and no csv reader runs."""
    with mock.patch.object(contours, "_value_cell", side_effect=AssertionError("per cell")), \
            mock.patch.object(contours, "_csv_columns", side_effect=AssertionError("csv reader")):
        for name, (grid, args, stderr) in sorted(CONTOUR_CASES.items()):
            out = tmp_path / f"{name}.csv"
            assert _contours(grid_files[grid], args, out, capsys) == (0, stderr)
            assert hashlib.sha256(out.read_bytes()).hexdigest() == CONTOUR_DIGESTS[name]


def test_an_empty_value_cell_takes_the_csv_reader(grid_files, tmp_path, capsys):
    """numpy refuses an empty value cell; the csv reader reads it as NaN, and
    the contours are the bytes numpy with a per-cell converter gave."""
    lines = grid_files["grid_boundary_109"].read_text().split("\n")
    row = 1 + 54 * 109 + 58  # x_index 58, y_index 54: next to the f1 = 10 contour
    cells = lines[row].split(",")
    assert cells[:2] == ["58", "54"] and lines[0].split(",")[4] == "f1"
    lines[row] = ",".join(cells[:4] + [""] + cells[5:])
    grid = tmp_path / "grid.csv"
    grid.write_text("\n".join(lines))
    csv_columns = mock.Mock(wraps=contours._csv_columns)
    with mock.patch.object(contours, "_csv_columns", csv_columns):
        values = contours.read_grid_file(str(grid), "f1")[2]
    assert csv_columns.call_count == 1
    assert np.isnan(values[54, 58]) and np.isnan(values).sum() == 1
    out = tmp_path / "contours.csv"
    assert _contours(grid, ("--field", "f1", "--level", "10"), out, capsys) == (0, "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "3873b22c4ccb0d70d8d3f5be4d398a7dcbd1abc05afddecdd4631597aea721b8")


@pytest.mark.parametrize("text, fast_reads", [
    # csv ends a row at a lone \r, also in the header line
    (GRID_HEADER + "\r" + "\r".join(GRID_LINES[:10]) + "\n" + "\n".join(GRID_LINES[10:]), True),
    ("\r\n".join([GRID_HEADER, *GRID_LINES[:10]]) + "\r\r" + "\r".join(GRID_LINES[10:]), True),
    # csv ends no row at \x0b or \x0c, str.splitlines does: refused
    ("\n".join([GRID_HEADER, *GRID_LINES]) + "\x0b" + GRID_LINES[0], False),
    ("\n".join([GRID_HEADER, *GRID_LINES[:-1]]) + "\x0c" + GRID_LINES[-1], False),
], ids=["cr_in_the_header_line", "crlf_then_cr", "vertical_tab", "form_feed"])
def test_the_fast_reader_ends_lines_where_the_csv_reader_does(text, fast_reads, tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text(text, newline="")
    fast, exact = _both_readers(path, "f1")
    assert not isinstance(exact, str), exact
    assert (fast is not None) == fast_reads
    for a, b in zip(fast or (), exact):
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())


@pytest.mark.parametrize("levels, shown", [
    (("10", "10"), "10"), (("0", "-0"), "0"), (("100", "2", "100", "2"), "100, 2"),
])
def test_a_repeated_level_exit_1(levels, shown, grid_files, tmp_path, capsys):
    args = ("--field", "f1", *(arg for level in levels for arg in ("--level", level)))
    out = tmp_path / "contours.csv"
    assert _contours(grid_files["grid_boundary_109"], args, out, capsys) == (
        1, f"error: repeated contour level(s): {shown}\n")
    assert not out.exists()


class _BothRead(Exception):
    """Ends a read-back once both readers have run."""


def _both_readers(path, field):
    """(fast, exact) for the grid file at `path`: the five kept columns each
    reader gives, None where the fast reader refuses the file and the error
    text where the csv reader does; (None, None) when the header is refused
    before either runs."""
    loadtxt_columns, csv_columns = contours._loadtxt_columns, contours._csv_columns
    seen = {}

    def fast(*args):
        seen["fast"] = loadtxt_columns(*args)
        return None  # on to the csv reader

    def exact(*args):
        try:
            seen["exact"] = list(csv_columns(*args))
        except ConfigError as exc:
            seen["exact"] = str(exc)
        raise _BothRead

    with mock.patch.object(contours, "_loadtxt_columns", fast), \
            mock.patch.object(contours, "_csv_columns", exact), \
            contextlib.suppress(ConfigError, _BothRead):
        contours._read_grid_csv(str(path), field)
    return seen.get("fast"), seen.get("exact")


# cells that csv, int(), float() and numpy's parser may each read their own way
ODD_CELLS = [
    "", " ", "\t", "#", "#1", "+1", "-0", " 2 ", "1_0", "\u0661", "\u01fe1", "\x1c1", "1\x0b",
    "\xa01", "1.0", "1e0", "0x10", "9223372036854775807", "9223372036854775808",
    "-9223372036854775809", "99999999999999999999", "nan", "-nan", "NaN", "inf", "-inf",
    "Infinity", "+iNfInItY", "1e400", '"1"', '"1,5"', '""', '"', "bs",
]
# header -> --field; repeated names move a kept column, and the last header
# keeps one column as both x_index and the value
HEADERS = {
    GRID_HEADER: "f1",
    GRID_HEADER + ",f1": "f1",
    "x_index,y_index,lam,phase,f1,lam": "f1",
    "x_index,y_index,lam,lam,f1,branch": "f1",
    "x_index,y_index,lam,phase,x_index,branch": "x_index",
}
_cell = (st.sampled_from(ODD_CELLS) | st.integers(0, 4).map(str) | st.integers().map(str)
         | st.floats().map(repr))
_edit = st.one_of(
    st.tuples(st.just("cell"), st.integers(0, 19), st.integers(0, 6), _cell),
    st.tuples(st.just("cut"), st.integers(0, 19), st.integers(0, 5)),
    st.tuples(st.just("line"), st.integers(0, 20), st.sampled_from(["", " ", "\t ", "#", "#0,0"])),
)


@settings(max_examples=300, deadline=None)
@given(
    # half the files keep the grid header, which the fast reader can take
    header=st.just(GRID_HEADER) | st.sampled_from(sorted(HEADERS)),
    extra=st.lists(_cell, max_size=2),
    edits=st.lists(_edit, max_size=3),
    ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3),
)
# a quoted comma before the kept value column shifts it in numpy's split
@example(header=GRID_HEADER + ",f1", extra=["5.0"],
         edits=[("cell", 0, 4, '"1,5"'), ("cell", 0, 5, "4.0")], ends=["\n"])
@example(header=GRID_HEADER, extra=[], edits=[("cell", 1, 0, "\u01fe1")], ends=["\n"])
@example(header=GRID_HEADER, extra=[], edits=[("cell", 1, 0, "\x1c1")], ends=["\n"])
@example(header="x_index,y_index,lam,phase,x_index,branch", extra=[], edits=[], ends=["\n"])
def test_fast_reader_refuses_or_matches_the_csv_reader(
        header, extra, edits, ends, tmp_path_factory):
    rows = [line.split(",") + extra for line in GRID_LINES]
    for edit in edits:
        kind, k = edit[:2]
        if kind == "cell":
            row, (column, cell) = rows[k], edit[2:]
            row[column:column + 1] = [cell]
        elif kind == "cut":
            rows[k] = rows[k][:edit[2]]
        else:
            rows.insert(k, [edit[2]])
    lines = [header] + [",".join(row) for row in rows]
    path = tmp_path_factory.mktemp("readers") / "grid.csv"
    path.write_text("".join(line + ends[k % len(ends)] for k, line in enumerate(lines)),
                    newline="")
    fast, exact = _both_readers(path, HEADERS[header])
    if fast is None:
        return
    assert not isinstance(exact, str), exact
    for a, b in zip(fast, exact):
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())


# the reference datasets of scripts/generate_datasets.py, by file name
DATASET_DIGESTS = {
    "boundary_contours.csv": "3ab244ba0945b96b83869b8c2448845167a447938fe9e1e1ee4fe5cdfd79237b",
    "boundary_grid.csv": "6b45321f1db84ce153d4dad3ebf4f3d05f6c6965b8105d5f44f1314965f4946e",
    "boundary_resonance.csv": "da679a031f3d971b7884d398f47ddc42e947f479ff32e2f7613f0cee49d29f36",
    "laser_threshold.csv": "9edeb7182c2c870322f0f5a52df6ca87e7532c5798fe360743ca78049b440ab6",
    "phonon_number.csv": "75567a23e119d132aac03ec2ad4495af7f6d5b7aed24c4496d88be398db17b8d",
    "strong_drive_contours.csv": "520ed0f160d8fc5ed3d6e3285124f7a25604a41b009b9c79db3edba3e5de6b30",
    "strong_drive_couplings.csv": "52f16149ef13f9333cace49c44272430229af52c9fe871a0dc9535bec673296c",
    "strong_drive_grid.csv": "3ee7f76ecbd88eb1a55620f9c534576fd9cd776f1e7e400faad568622a3b41ae",
}


def test_dataset_script_bytes(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "generate_datasets.py"
    subprocess.run([sys.executable, str(script), "--outdir", str(tmp_path)],
                   check=True, capture_output=True)
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert digests == DATASET_DIGESTS
