"""Parameter validation, phase canonicalization, config ingestion."""
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqom import (
    ConfigError,
    NegativeParameter,
    NonPositiveParameter,
    PipelineOptions,
    Stage1Unstable,
    canonical_delta_phi,
    parse_config,
    validate,
)
from sqom.params import load_config

from conftest import arr, batch, laser_set, point, strong_drive_set


def test_options_with_array_densities_compare_and_hash():
    opts = PipelineOptions(n_plus=np.array([1.0, 2.0]), n_minus=np.zeros(2))
    assert opts == opts and opts != PipelineOptions() and hash(opts) == hash(opts)


def test_strong_drive_set_is_valid():
    # 4000 > 2*1997.96 = 3995.92 on both cavities
    vpb = validate(batch(strong_drive_set()))
    vp = point(vpb)
    assert vp.delta1 == -4000.0
    assert canonical_delta_phi(vpb.phi_d1, vpb.phi_d2).item() == pytest.approx(math.pi)


def test_laser_set_is_valid():
    validate(batch(laser_set()))


def test_boundary_case_is_unstable():
    p = laser_set().replace(lambda2=50.0)  # |delta2| = 2*lambda2 exactly
    with pytest.raises(Stage1Unstable) as exc:
        validate(batch(p))
    assert exc.value.cavity == 2


def test_first_cavity_instability_identified():
    p = laser_set().replace(lambda1=10.0001)
    with pytest.raises(Stage1Unstable) as exc:
        validate(batch(p))
    assert exc.value.cavity == 1


@pytest.mark.parametrize("field", ["kappa", "gamma_m"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_nonpositive_rates_rejected(field, value):
    with pytest.raises(NonPositiveParameter) as exc:
        validate(batch(laser_set().replace(**{field: value})))
    assert exc.value.field == field


@pytest.mark.parametrize("field", ["lambda1", "lambda2", "j_hop", "g0"])
def test_negative_amplitudes_rejected(field):
    with pytest.raises(NegativeParameter):
        validate(batch(laser_set().replace(**{field: -0.1})))


@pytest.mark.parametrize("error, field", [(NonPositiveParameter, "kappa"), (NegativeParameter, "g0")])
def test_a_non_finite_value_is_refused_as_non_finite(error, field):
    # inf passes the stated bound and NaN compares false with it
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(error) as exc:
            validate(batch(laser_set().replace(**{field: value})))
        assert str(exc.value) == f"{field} must be finite, got {value!r}"
    with pytest.raises(error) as exc:
        validate(batch(laser_set().replace(**{field: -1.0})))
    assert str(exc.value).startswith(f"{field} must be >") and "got -1.0" in str(exc.value)


def test_omega_m_pinned_to_one():
    with pytest.raises(ConfigError, match="omega_m"):
        validate(batch(laser_set().replace(omega_m=2.0)))


def test_validate_is_idempotent():
    vp = point(validate(batch(laser_set())))
    again = point(validate(batch(vp)))
    assert again == vp


@given(
    phi1=st.floats(-10.0, 10.0),
    phi2=st.floats(-10.0, 10.0),
    k=st.integers(-10, 10),
)
@settings(max_examples=80, deadline=None)
def test_delta_phi_mod_2pi(phi1, phi2, k):
    base = canonical_delta_phi(arr(phi1), arr(phi2)).item()
    shifted = canonical_delta_phi(arr(phi1 + 2.0 * math.pi * k), arr(phi2)).item()
    assert 0.0 <= base < 2.0 * math.pi
    diff = abs(base - shifted)
    assert min(diff, 2.0 * math.pi - diff) < 1e-9


# --- config files -------------------------------------------------------------

GOOD = {
    "delta1": 20,
    "delta2": 100,
    "lambda1": 9.94,
    "lambda2": 49.99,
    "j_hop": 0.1,
    "g0": 0.002,
    "kappa": 0.05,
    "gamma_m": 0.001,
}


def test_parse_config_defaults():
    params, opts = parse_config(dict(GOOD))
    assert params.phi_d1 == 0.0
    assert params.omega_m == 1.0
    assert opts.f1_hi == 10.0 and opts.f1_lo == 0.1


def test_parse_config_unknown_key():
    data = dict(GOOD)
    data["lamda1"] = 3.0  # typo
    with pytest.raises(ConfigError, match="lamda1"):
        parse_config(data)


def test_parse_config_missing_key():
    data = dict(GOOD)
    del data["kappa"]
    with pytest.raises(ConfigError, match="kappa"):
        parse_config(data)


def test_parse_config_nonnumeric():
    data = dict(GOOD)
    data["g0"] = "big"
    with pytest.raises(ConfigError, match="g0"):
        parse_config(data)


def test_parse_config_integer_past_the_float_range():
    data = dict(GOOD)
    data["delta1"] = json.loads("1" + "0" * 400)
    with pytest.raises(ConfigError, match="'delta1' is too large for a float"):
        parse_config(data)


def test_parse_config_threshold_order():
    data = dict(GOOD)
    data["f1_hi"] = 0.01  # below f1_lo default
    with pytest.raises(ConfigError, match="f1_lo"):
        parse_config(data)


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(GOOD))
    params, _ = load_config(path)
    assert params.delta2 == 100.0


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "params.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == (f"config file {path} is not valid JSON: Expecting property "
                               "name enclosed in double quotes: line 1 column 2 (char 1)")


def test_load_config_oversized_integer_names_the_file(tmp_path):
    # json.loads raises a plain ValueError past the int-to-str digit limit
    path = tmp_path / "params.json"
    path.write_text('{"delta1": 1' + "0" * sys.get_int_max_str_digits() + "}")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value).startswith(f"cannot read config file {path}: Exceeds the limit")
