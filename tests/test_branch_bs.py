"""Beam-splitter branch: mixing angle conventions, identities, resonances."""
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from sqom import Branch, stage1_transform, validate
from sqom.branch_bs import bs_couplings, mixing_angle, rwa_validity_bs
from sqom.verify import random_sets

from conftest import arr, assert_rel, batch, boundary_set, laser_set, point, points

LASER_GP12_ABS_PI = 0.04138950927288354
LASER_WDIFF_PI = 0.3345247006491605
# roots of W1 - W2 = omega_m, symmetric about pi
LASER_DIP_LO = 2.6957770487662587
LASER_DIP_HI = 3.587408258413328
LASER_HALF_OMEGA_DPHI = 1.4647180893904561  # root of W2 = omega_m / 2


def _batch(p):
    vp = validate(batch(p))
    s = stage1_transform(vp)
    return bs_couplings(s, vp), s, vp


def _couplings(p):
    """The couplings, stage 1 and parameters of one set, as Python scalars."""
    return tuple(map(point, _batch(p)))


def _validity_terms(p):
    c, _, vp = _batch(p)
    return {t.name: point(t) for t in rwa_validity_bs(c, vp.omega_m).terms}


def _mixing_angle(j_prime_abs, omega_s1, omega_s2):
    return mixing_angle(arr(j_prime_abs), arr(omega_s1), arr(omega_s2)).item()


def test_no_hopping_upper_frequency_order():
    p = laser_set().replace(j_hop=0.0, delta1=10.0, lambda1=2.0)  # omega_s2 > omega_s1
    c, s, vp = _couplings(p)
    assert c.theta == 0.0
    assert c.gp12 == 0.0
    assert c.w1 == s.omega_s1 and c.w2 == s.omega_s2
    assert c.g1 == 0.0
    assert_rel(c.g2, vp.g0 * math.cosh(2.0 * s.r_d2), 1e-14)


def test_no_hopping_lower_frequency_order():
    # omega_s1 > omega_s2 must fold to theta = 0 too, keeping the labels
    c, s, _ = _couplings(laser_set().replace(j_hop=0.0))
    assert s.omega_s1 > s.omega_s2
    assert c.theta == 0.0
    assert c.w1 == s.omega_s1 and c.w2 == s.omega_s2


def test_mixing_angle_quadrants():
    assert _mixing_angle(1.0, 0.0, 0.0) == pytest.approx(math.pi / 2)
    assert _mixing_angle(1.0, 0.0, 1.0) == pytest.approx(math.pi / 4)
    assert _mixing_angle(1.0, 1.0, 0.0) == pytest.approx(-math.pi / 4)
    assert -math.pi / 2 < _mixing_angle(0.3, 2.19, 2.00) < 0.0


def test_laser_set_at_pi_frozen():
    c, s, vp = _couplings(laser_set())
    assert_rel(abs(c.gp12), LASER_GP12_ABS_PI, 1e-12)
    assert_rel(c.w1 - c.w2, LASER_WDIFF_PI, 1e-12)
    assert c.w1 > c.w2  # supermode 1 continues the higher squeezed mode
    assert abs(c.gp12) > 0.8 * vp.kappa  # laser coupling at the kappa scale


def test_gp12_weak_phase_dependence():
    """The laser coupling strength stays at the same scale across the sweep."""
    values = [
        abs(_couplings(laser_set(delta_phi=float(d)))[0].gp12)
        for d in np.linspace(0.0, 2.0 * math.pi, 41)
    ]
    assert max(values) / min(values) < 1.25


def test_exact_identities_on_random_sets(rng):
    worst = 0.0
    vps, ss = random_sets(rng, Branch.BEAM_SPLITTER, 1000)
    for vp, s, c in zip(points(vps), points(ss), points(bs_couplings(ss, vps))):
        ch2 = vp.g0 * math.cosh(2.0 * s.r_d2)
        hyp = math.hypot(s.omega_diff, abs(c.j_prime))
        worst = max(
            worst,
            abs((c.g1 + c.g2) - ch2) / ch2,
            abs(abs(c.gp12) ** 2 - c.g1 * c.g2) / max(c.g1 * c.g2, vp.g0**2),
            abs((c.w1 + c.w2) - s.omega_sum) / max(abs(s.omega_sum), 1.0),
            abs(abs(c.w1 - c.w2) - hyp) / hyp,
        )
        if abs(c.g12) > 0 and abs(c.gp12) > 0:
            # magnitude form: r_d2 < 0 (negative detuning) flips tanh's sign
            assert_rel(
                abs(c.g12) / abs(c.gp12), abs(math.tanh(2.0 * s.r_d2)), 1e-10, atol=1e-12
            )
    assert worst < 1e-10


def test_wdiff_sign_follows_parent_modes(rng):
    vps, ss = random_sets(rng, Branch.BEAM_SPLITTER, 300)
    for vp, s, c in zip(points(vps), points(ss), points(bs_couplings(ss, vps))):
        if vp.j_hop > 0:
            assert (c.w1 - c.w2) * s.omega_diff > 0.0


def test_continuity_toward_decoupling():
    base = laser_set()
    prev_theta = None
    for j in (0.1, 0.03, 0.01, 0.003, 0.001, 1e-5, 1e-6):
        c, s, _ = _couplings(base.replace(j_hop=j))
        assert -math.pi / 2 < c.theta <= 0.0  # omega_s2 < omega_s1 here
        if prev_theta is not None:
            assert abs(c.theta) < abs(prev_theta)
        prev_theta = c.theta
    assert abs(prev_theta) < 1e-4
    assert_rel(c.w1, s.omega_s1, 1e-6)
    assert_rel(c.w2, s.omega_s2, 1e-6)


def test_laser_resonance_roots():
    def wdiff(dphi):
        c, _, _ = _couplings(laser_set(delta_phi=float(dphi)))
        return c.w1 - c.w2 - 1.0

    lo = brentq(wdiff, 0.1, math.pi, xtol=1e-13)
    hi = brentq(wdiff, math.pi, 2.0 * math.pi - 0.1, xtol=1e-13)
    assert_rel(lo, LASER_DIP_LO, 1e-10)
    assert_rel(hi, LASER_DIP_HI, 1e-10)
    assert_rel(lo + hi, 2.0 * math.pi, 1e-12)  # symmetric about pi
    c, _, vp = _couplings(laser_set(delta_phi=lo))
    assert abs(c.w1 - c.w2 - 1.0) < 1e-10
    terms = _validity_terms(laser_set(delta_phi=lo))
    assert terms["gp12"].resonance_hit
    # every competing interaction is small at the working point
    for name in ("g1", "g2", "g11", "g22", "g12"):
        assert terms[name].ratio <= 0.1


def test_single_mode_parametric_point():
    def w2_shift(dphi):
        c, _, _ = _couplings(laser_set(delta_phi=float(dphi)))
        return 2.0 * c.w2 - 1.0

    root = brentq(w2_shift, 0.05, math.pi, xtol=1e-13)
    assert_rel(root, LASER_HALF_OMEGA_DPHI, 1e-10)
    terms = _validity_terms(laser_set(delta_phi=root))
    assert terms["g22"].resonance_hit


def test_single_opa_in_auxiliary_cavity():
    c, s, vp = _couplings(laser_set().replace(lambda2=0.0))
    # no drive on the optomechanical cavity: only mixing splits g0
    assert_rel(c.g1, vp.g0 * math.sin(c.theta / 2.0) ** 2, 1e-13)
    assert_rel(c.g2, vp.g0 * math.cos(c.theta / 2.0) ** 2, 1e-13)
    assert abs(c.g11) == 0.0 and abs(c.g22) == 0.0 and abs(c.g12) == 0.0
    assert_rel(abs(c.gp12), 0.5 * vp.g0 * abs(math.sin(c.theta)), 1e-13)


def test_trace_preservation_exact():
    for dphi in (0.4, 1.9, 4.4):
        c, s, _ = _couplings(boundary_set(delta_phi=dphi))
        assert_rel(c.w1 + c.w2, s.omega_sum, 1e-12)
