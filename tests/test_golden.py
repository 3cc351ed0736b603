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
        "boundary", "lambda1", "197", "199.9", 59, "--smallness", "0.02",
        "--resonance-floor", "1e-3", "--outputs",
        "f1,tms_max_rwa_ratio,tms_resonance,bs_max_rwa_ratio,bs_resonance",
    ),
    "verify_laser": ("verify", "laser", "--random", "20", "--seed", "3"),
}

DIGESTS = {
    "analyze_boundary": "47eb43a2c02aeb188a7b79b813c14bd6f438ef98f000bf63dc7c1bd9714654fc",
    "analyze_laser": "577d38713081f4abd4076e6fbe568682a99836bfc35f133451d9d6319621ec49",
    "analyze_laser_dip": "8fd80ce16177cf57ef8fb8ae4eea71f3935cc51e80ec297e80f2d02cf4f29309",
    "analyze_stage1_unstable": "96dd37fe9b8cb281ea2091a0f90380e1cdff0a98a0eab5515e666f4f322b52e7",
    "analyze_strong": "bdbc3ba1996847489653afafcdc40b2b61c0b562a1b09931c77073f08fc59dc5",
    "grid_boundary_109": "6b45321f1db84ce153d4dad3ebf4f3d05f6c6965b8105d5f44f1314965f4946e",
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
    "verify_laser": "19ec0824e220aa63fc3c60487af90102e0902a2cc857bce91a67b6899e534bce",
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
