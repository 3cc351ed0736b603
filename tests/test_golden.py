"""Byte-identity of full CLI outputs, pinned by SHA-256.

Each case runs one subcommand in-process and digests the file it writes.
The digests were captured from the row-at-a-time pipeline that preceded the
columnar one, so any change to a single byte of any cell (a flipped last
digit, a signed zero, a moved sentinel) fails here. Rewrite a digest only
for a deliberate output change, and say so where the change is recorded.
"""
import hashlib
import json
import math

import pytest

from sqom.cli import main

TWO_PI = repr(2.0 * math.pi)

LASER = {
    "delta1": 20.0, "delta2": 100.0, "lambda1": 9.94, "lambda2": 49.99,
    "j_hop": 0.1, "g0": 0.002, "kappa": 0.05, "gamma_m": 0.001,
}
BOUNDARY = {
    "delta1": -400.0, "delta2": 400.0, "lambda1": 198.305, "lambda2": 198.0,
    "j_hop": 0.3, "g0": 0.005, "kappa": 0.05, "gamma_m": 0.001,
}
STRONG = {
    "delta1": -4000.0, "delta2": 4000.0, "lambda1": 1997.96, "lambda2": 1997.0,
    "j_hop": 0.95, "g0": 0.005, "kappa": 0.05, "gamma_m": 0.001,
}
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
    "laser_sweep_721": ("laser-sweep", "laser", "--steps", "721"),
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
}

DIGESTS = {
    "analyze_boundary": "47eb43a2c02aeb188a7b79b813c14bd6f438ef98f000bf63dc7c1bd9714654fc",
    "analyze_laser": "577d38713081f4abd4076e6fbe568682a99836bfc35f133451d9d6319621ec49",
    "analyze_laser_dip": "8fd80ce16177cf57ef8fb8ae4eea71f3935cc51e80ec297e80f2d02cf4f29309",
    "analyze_stage1_unstable": "96dd37fe9b8cb281ea2091a0f90380e1cdff0a98a0eab5515e666f4f322b52e7",
    "analyze_strong": "bdbc3ba1996847489653afafcdc40b2b61c0b562a1b09931c77073f08fc59dc5",
    "analyze_zero_coupling": "3969712a8cad44f16e05b6c7aaeec73dc78def44d4e02117b11d8017d5ebe698",
    "grid_boundary_109": "6b45321f1db84ce153d4dad3ebf4f3d05f6c6965b8105d5f44f1314965f4946e",
    "grid_strong_101": "3ee7f76ecbd88eb1a55620f9c534576fd9cd776f1e7e400faad568622a3b41ae",
    "grid_strong_many_columns": "2ea8bea4b4e0391264c2a8e3015c4528c50f90ba5643166929eeeef79de1b347",
    "laser_sweep_721": "9edeb7182c2c870322f0f5a52df6ca87e7532c5798fe360743ca78049b440ab6",
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
}

READBACK_DIGESTS = {
    "blank_lines": "7a56dbb656afb14d7587ac7c50dcf1f7739de9df7a70a01c70b6c1677c11c8c6",
    "complete": "7a56dbb656afb14d7587ac7c50dcf1f7739de9df7a70a01c70b6c1677c11c8c6",
    "empty_cell": "9e78e859023f34923dace38b8e0b9fd6dc8233b2124ae6eed5478bd2e4105573",
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
    "non_integer_index": (
        _edited(replace={3: "1.5,0,1.5,0.0,3.0,bs"}), (),
        "error: invalid literal for int() with base 10: '1.5'\n",
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
