"""Mechanical gain, stimulated phonon number, thresholds."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqom import laser, stage1_transform, validate
from sqom.second_stage import bs_couplings

from conftest import assert_rel, batch, laser_set, on_one_point, point

# every test reads single working points: each call runs on a batch of one
laser_point = on_one_point(laser.laser_point)

LASER_DIP_LO = 2.6957770487662587
# frozen at the dip root: |gp12|, W1, N_th, P_th (from the closed forms,
# cross-checked by the conjugation oracle at this point)
LASER_DIP_GP12 = 0.0491137623310038
LASER_DIP_W1 = 2.593750711859868
LASER_DIP_NTH = 0.005182073928757051
LASER_DIP_PTH = 0.0006720503970812032

OMEGA_M = 1.0


def mechanical_gain(gp12_abs, w1, w2, omega_m, kappa, **densities):
    """The gain of `laser_point`, which does not depend on gamma_m."""
    return laser_point(gp12_abs, w1, w2, omega_m, kappa, 0.001, **densities).gain


def phonon_number(gain, gamma_m):
    """`laser_point` at a working point whose gain is `gain` exactly: on
    resonance with |gp12| = 1 and kappa = 4 the Lorentzian is 4."""
    res = laser_point(1.0, 2.0, 1.0, 1.0, 4.0, gamma_m, n_plus=gain)
    assert res.gain == gain
    return res


def threshold(gp12_abs, w1, w2, omega_m, kappa, gamma_m):
    """`laser_point`, read for its threshold, which does not depend on N+."""
    return laser_point(gp12_abs, w1, w2, omega_m, kappa, gamma_m)


@pytest.mark.parametrize("name", ["kappa", "gamma_m"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_refuses_a_rate_validate_refuses(name, value):
    rates = {"kappa": 0.05, "gamma_m": 0.001, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be > 0"):
        laser_point(0.04, 2.0, 1.0, OMEGA_M, rates["kappa"], rates["gamma_m"])


def test_no_inversion_no_gain():
    gain = mechanical_gain(0.05, 2.0, 1.0, OMEGA_M, kappa=0.05, n_plus=3.0, n_minus=3.0)
    assert gain == 0.0


def test_resonant_gain_is_lorentzian_peak():
    kappa = 0.05
    on = mechanical_gain(0.05, 2.0, 1.0, OMEGA_M, kappa, n_plus=1.0)
    assert_rel(on, 4.0 * 0.05**2 / kappa, 1e-14)
    for det in (0.01, -0.01, 0.3, -0.3):
        off = mechanical_gain(0.05, 2.0 + det, 1.0, OMEGA_M, kappa, n_plus=1.0)
        assert off < on


def test_gain_even_in_detuning():
    kappa = 0.05
    for det in (0.002, 0.1, 1.0):
        plus = mechanical_gain(0.03, 2.0 + det, 1.0, OMEGA_M, kappa, n_plus=1.0)
        minus = mechanical_gain(0.03, 2.0 - det, 1.0, OMEGA_M, kappa, n_plus=1.0)
        assert_rel(plus, minus, 1e-12)


def test_phonon_number_fixed_points():
    gm = 0.001
    assert phonon_number(gm, gm).n_b == 1.0
    assert_rel(phonon_number(0.0, gm).n_b, math.exp(-2.0), 1e-14)
    assert_rel(phonon_number(2.0 * gm, gm).n_b, math.exp(2.0), 1e-14)
    assert not phonon_number(2.0 * gm, gm).n_b_capped


def test_phonon_number_overflow_cap():
    res = phonon_number(1.0, 1e-6)
    assert res.n_b_capped
    assert math.isfinite(res.n_b)


@given(g=st.floats(0.0, 0.01), dg=st.floats(1e-6, 0.01))
@settings(max_examples=60, deadline=None)
def test_phonon_number_strictly_increasing(g, dg):
    gm = 0.001
    lo = phonon_number(g, gm).n_b
    hi = phonon_number(g + dg, gm).n_b
    assert hi > lo
    assert (phonon_number(g, gm).n_b == 1.0) == (g == gm)


def test_threshold_on_resonance():
    kappa, gm = 0.05, 0.001
    res = threshold(0.04, 2.0, 1.0, OMEGA_M, kappa, gm)
    assert_rel(res.n_threshold, gm * kappa / (4.0 * 0.04**2), 1e-14)
    assert_rel(res.p_threshold, res.n_threshold * kappa * 2.0, 1e-14)


def test_threshold_zero_coupling():
    res = threshold(0.0, 2.0, 1.0, OMEGA_M, 0.05, 0.001)  # the sweep's ZeroCoupling
    assert math.isnan(res.n_threshold) and math.isnan(res.p_threshold)


def test_threshold_negative_frequency_flagged():
    res = threshold(0.04, -2.0, -3.0, OMEGA_M, 0.05, 0.001)
    assert res.p_threshold < 0.0  # reported, not hidden


def test_threshold_consistency_roundtrip():
    kappa, gm = 0.05, 0.001
    for det in (0.0, 0.02, -0.6):
        res = threshold(0.04, 2.0 + det, 1.0, OMEGA_M, kappa, gm)
        gain = mechanical_gain(0.04, 2.0 + det, 1.0, OMEGA_M, kappa, n_plus=res.n_threshold)
        assert_rel(gain, gm, 1e-12)
        assert_rel(res.p_threshold / res.n_threshold, kappa * (2.0 + det), 1e-12)


def test_dip_reaches_threshold_at_single_photon():
    p = laser_set(delta_phi=LASER_DIP_LO)
    vpb = validate(batch(p))
    c, vp = point(bs_couplings(stage1_transform(vpb), vpb)), point(vpb)
    assert_rel(abs(c.gp12), LASER_DIP_GP12, 1e-10)
    res = laser_point(abs(c.gp12), c.w1, c.w2, OMEGA_M, vp.kappa, vp.gamma_m, n_plus=1.0)
    assert res.gain >= vp.gamma_m  # lasing threshold reachable at N+ = 1
    assert res.n_threshold <= 1.0
    assert_rel(res.n_threshold, LASER_DIP_NTH, 1e-9)
    assert_rel(res.p_threshold, LASER_DIP_PTH, 1e-9)
    assert_rel(c.w1, LASER_DIP_W1, 1e-10)


def test_no_opa_baseline_same_code_path():
    """With all drives off and hopping tuned to resonance, the bare pipeline
    lands exactly on the Lorentzian peak: the baseline curve needs no special
    casing."""
    # detunings 0.8 apart, hopping 0.3: |J'| = 0.6, splitting = sqrt(0.64+0.36) = 1
    p = laser_set().replace(delta1=2.0, delta2=1.2, lambda1=0.0, lambda2=0.0, j_hop=0.3)
    vpb = validate(batch(p))
    c, vp = point(bs_couplings(stage1_transform(vpb), vpb)), point(vpb)
    assert_rel(c.w1 - c.w2, 1.0, 1e-12)
    assert_rel(abs(c.gp12), 0.5 * vp.g0 * abs(math.sin(c.theta)), 1e-12)
    res = laser_point(abs(c.gp12), c.w1, c.w2, OMEGA_M, vp.kappa, vp.gamma_m, n_plus=1.0)
    peak = 4.0 * abs(c.gp12) ** 2 / vp.kappa
    assert_rel(res.gain, peak, 1e-10)
