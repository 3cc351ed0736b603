"""Single-mode squeezing stage: closed forms, identities, covariances."""
import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqom import squeeze_param, stage1_transform, validate
from sqom.verify import random_sets

from conftest import arr, assert_rel, batch, boundary_set, laser_set, point, points

# 0.25*ln((100+99.98)/(100-99.98)); the denominator is 0.0200000000000045
# in floats, which shifts the 13th digit versus the idealized ratio.
# Cross-checked below via the defining relation exp(4r)(d-2L) = d+2L.
R_D_LASER_CAV2 = 2.302560091744012


def _squeeze_param(delta, lambda_amp):
    return squeeze_param(arr(delta), arr(lambda_amp)).item()


def _stage1(p):
    return point(stage1_transform(validate(batch(p))))


def test_squeeze_param_no_drive_is_identity():
    assert _squeeze_param(100.0, 0.0) == 0.0


def test_squeeze_param_near_boundary_value():
    r = _squeeze_param(100.0, 49.99)
    assert_rel(r, R_D_LASER_CAV2, 1e-14)
    # independent check of the defining ratio
    assert_rel(math.exp(4.0 * r) * (100.0 - 2 * 49.99), 100.0 + 2 * 49.99, 1e-12)


def test_squeeze_param_negative_detuning_sign():
    r = _squeeze_param(-400.0, 198.305)
    assert r < 0.0
    assert_rel(r, -1.3648838256570353, 1e-14)
    assert_rel(math.exp(4.0 * r) * (-400.0 - 2 * 198.305), -400.0 + 2 * 198.305, 1e-12)


def test_squeeze_param_rejects_boundary():
    assert math.isnan(_squeeze_param(100.0, 50.0))


def test_squeeze_param_agrees_with_arctanh(rng):
    # r = (1/2) artanh(2L/d): same function, different branch bookkeeping
    for _ in range(200):
        d = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 1000.0)
        lam = rng.uniform(0.0, 0.499 * abs(d))
        assert_rel(_squeeze_param(d, lam), 0.5 * math.atanh(2.0 * lam / d), 1e-12, atol=1e-15)


def test_all_drives_off_reduces_to_bare():
    p = laser_set().replace(lambda1=0.0, lambda2=0.0, phi_d1=0.3, phi_d2=1.1)
    s = _stage1(p)
    assert s.r_d1 == 0.0 and s.r_d2 == 0.0
    assert s.omega_s1 == p.delta1 and s.omega_s2 == p.delta2
    assert s.g_s2 == p.g0
    assert s.g_p2 == 0.0
    assert s.lam1 == 1.0 + 0.0j
    assert s.lam2 == 0.0 + 0.0j
    assert s.f_disp == 0.0 and s.c_const == 0.0


def test_laser_set_frozen_frequencies():
    s = _stage1(laser_set())
    # sqrt(20^2 - 4*9.94^2) and sqrt(100^2 - 4*49.99^2)
    assert_rel(s.omega_s1, 2.1876014262200596, 1e-13)
    assert_rel(s.omega_s2, 1.999899997499676, 1e-13)
    assert_rel(s.omega_s1, math.sqrt(20.0**2 - 4 * 9.94**2), 1e-12)
    assert_rel(s.omega_s2, math.sqrt(100.0**2 - 4 * 49.99**2), 1e-12)


def test_laser_set_frozen_couplings():
    s = _stage1(laser_set())
    # enhanced coupling: g0*delta2/sqrt(delta2^2-4*lambda2^2) ~ 50x enhancement
    assert_rel(s.g_s2, 0.002 * 100.0 / math.sqrt(100.0**2 - 4 * 49.99**2), 1e-12)
    assert_rel(s.g_s2, 0.1000050003750412, 1e-13)
    assert_rel(s.g_p2, 0.002 * 49.99 / math.sqrt(100.0**2 - 4 * 49.99**2), 1e-12)
    assert s.g_s2**2 - 4.0 * s.g_p2**2 == pytest.approx(0.002**2, rel=1e-12)


def test_signs_follow_detunings():
    s = _stage1(boundary_set())
    assert s.r_d1 < 0.0 < s.r_d2
    assert s.omega_s1 < 0.0 < s.omega_s2


def test_defining_relation_s_sign(rng):
    vps, ss = random_sets(rng, "bs", 200)
    for vp, s in zip(points(vps), points(ss)):
        # omega_s * exp(-2 r_d) recovers delta - 2 lambda
        assert_rel(
            s.omega_s1 * math.exp(-2.0 * s.r_d1), vp.delta1 - 2.0 * vp.lambda1, 1e-12
        )
        assert_rel(
            s.omega_s2 * math.exp(-2.0 * s.r_d2), vp.delta2 - 2.0 * vp.lambda2, 1e-12
        )


def test_exact_identities_on_random_sets(rng):
    worst_g, worst_lam = 0.0, 0.0
    vps, ss = random_sets(rng, "bs", 1000)
    for vp, s in zip(points(vps), points(ss)):
        worst_g = max(
            worst_g, abs(s.g_s2**2 - 4.0 * s.g_p2**2 - vp.g0**2) / vp.g0**2
        )
        worst_lam = max(worst_lam, abs(abs(s.lam1) ** 2 - abs(s.lam2) ** 2 - 1.0))
    assert worst_g < 1e-12
    assert worst_lam < 1e-12


def test_lam_phases_literal():
    p = laser_set(delta_phi=0.7).replace(phi_d2=0.4, phi_d1=1.1)
    s = _stage1(p)
    c1, s1 = math.cosh(s.r_d1), math.sinh(s.r_d1)
    c2, s2 = math.cosh(s.r_d2), math.sinh(s.r_d2)
    lam1 = c1 * c2 + s1 * s2 * cmath.exp(1j * (1.1 - 0.4))
    lam2 = c1 * s2 * cmath.exp(1j * 0.4) + s1 * c2 * cmath.exp(1j * 1.1)
    assert abs(s.lam1 - lam1) < 1e-15 * abs(lam1)
    assert abs(s.lam2 - lam2) < 1e-15 * abs(lam2)


@given(shift=st.floats(-6.0, 6.0))
@settings(max_examples=60, deadline=None)
def test_global_phase_covariance(shift):
    base = laser_set(delta_phi=1.3)
    shifted = base.replace(phi_d1=base.phi_d1 + shift, phi_d2=base.phi_d2 + shift)
    s0 = _stage1(base)
    s1 = _stage1(shifted)
    assert abs(abs(s0.lam1) - abs(s1.lam1)) < 1e-12
    assert abs(abs(s0.lam2) - abs(s1.lam2)) < 1e-12
    for field in ("r_d1", "r_d2", "omega_s1", "omega_s2", "g_s2", "g_p2", "f_disp", "c_const"):
        assert getattr(s0, field) == pytest.approx(getattr(s1, field), rel=1e-12, abs=1e-15)
