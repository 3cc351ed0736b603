"""Two-mode-squeezing branch: couplings, identities, special cases."""
import math

import numpy as np
from scipy.optimize import brentq

from sqom import Branch, stage1_transform, validate
from sqom.branch_tms import rwa_validity_tms, tms_couplings
from sqom.regime import classify
from sqom.verify import random_sets

from conftest import assert_rel, batch, boundary_set, laser_set, point, points, strong_drive_set

# frozen from the conjugation oracle (exact transformation composition)
STRONG_G1_PI = 0.37861994310324004
STRONG_G2_PI = 0.4699412879485259
STRONG_W1_PI = -197.74749284350494
STRONG_W2_PI = 201.87871745290826
BOUNDARY_PAIR_RESONANCE_DPHI = 2.8575648477993716  # root of W1+W2 = omega_m


def _batch(p):
    vp = validate(batch(p))
    s = stage1_transform(vp)
    return tms_couplings(s, vp), s, vp


def _couplings(p):
    """The couplings, stage 1 and parameters of one set, as Python scalars."""
    return tuple(map(point, _batch(p)))


def _validity_terms(p):
    c, _, vp = _batch(p)
    return {t.name: point(t) for t in rwa_validity_tms(c, vp.omega_m).terms}


def test_decoupled_limit():
    c, s, vp = _couplings(laser_set().replace(j_hop=0.0))
    assert c.r == 0.0
    assert c.g1 == 0.0
    assert_rel(c.g2, vp.g0 * math.cosh(2.0 * s.r_d2), 1e-14)
    assert c.g12 == 0.0 and c.gp12 == 0.0
    assert c.w1 == s.omega_s1 and c.w2 == s.omega_s2
    assert c.eta == 0.0


def test_strong_drive_at_pi():
    c, s, vp = _couplings(strong_drive_set())
    assert_rel(c.g1, STRONG_G1_PI, 1e-12)
    assert_rel(c.g2, STRONG_G2_PI, 1e-12)
    assert c.g2 > c.g1 > vp.kappa
    assert_rel(c.w1, STRONG_W1_PI, 1e-11)
    assert_rel(c.w2, STRONG_W2_PI, 1e-11)


def test_strong_drive_couplings_peak_at_pi():
    values = []
    for dphi in np.linspace(0.0, 2.0 * math.pi, 41):
        c, _, _ = _couplings(strong_drive_set(delta_phi=float(dphi)))
        values.append((c.g1, c.g2, abs(c.j_prime)))
    g1s, g2s, jps = map(np.array, zip(*values))
    mid = 20  # dphi = pi
    assert g1s.argmax() == mid and g2s.argmax() == mid and jps.argmax() == mid
    assert jps.argmin() in (0, 40)


def test_strong_drive_ratio_small_at_zero_phase():
    c, _, _ = _couplings(strong_drive_set(delta_phi=0.0))
    # opposite-sign squeezing parameters make |J'| minimal here
    assert c.g2 / c.g1 > 50.0
    assert c.eta < 0.02


def test_symmetry_about_pi():
    for dphi in (0.3, 1.2, 2.5):
        ca, _, _ = _couplings(strong_drive_set(delta_phi=dphi))
        cb, _, _ = _couplings(strong_drive_set(delta_phi=2.0 * math.pi - dphi))
        for field in ("r", "w1", "w2", "g1", "g2", "eta", "f_prime", "c_prime"):
            assert_rel(getattr(ca, field), getattr(cb, field), 1e-10, atol=1e-14)
        assert_rel(abs(ca.gp12), abs(cb.gp12), 1e-10, atol=1e-16)
        assert_rel(abs(ca.g12), abs(cb.g12), 1e-10, atol=1e-16)


def test_monotone_in_hopping():
    prev_g1, prev_g2 = -1.0, -1.0
    for j in (0.1, 0.3, 0.5, 0.7, 0.9):
        c, _, _ = _couplings(strong_drive_set().replace(j_hop=j))
        assert c.g1 > prev_g1 and c.g2 > prev_g2
        prev_g1, prev_g2 = c.g1, c.g2


def test_exact_identities_on_random_sets(rng):
    worst = 0.0
    vps, ss = random_sets(rng, Branch.TWO_MODE_SQUEEZING, 1000)
    for vp, s, c in zip(points(vps), points(ss), points(tms_couplings(ss, vps))):
        ch2 = vp.g0 * math.cosh(2.0 * s.r_d2)
        worst = max(
            worst,
            abs((c.g2 - c.g1) - ch2) / ch2,
            abs(abs(c.g12) ** 2 - c.g1 * c.g2) / max(c.g1 * c.g2, vp.g0**2),
            abs((c.w1 - c.w2) - s.omega_diff) / abs(s.omega_diff),
            abs((c.w1 + c.w2) - math.sqrt(s.omega_sum**2 - abs(c.j_prime) ** 2))
            / abs(c.w1 + c.w2),
        )
        assert 0.0 <= c.eta < 1.0
        assert_rel(c.eta, math.tanh(c.r) ** 2, 1e-12, atol=1e-15)
    assert worst < 1e-10


def test_unstable_when_hopping_exceeds_margin():
    _, s, _ = _couplings(boundary_set())
    j_crit = s.omega_sum / (2.0 * abs(s.lam2))
    c, _, _ = _couplings(boundary_set().replace(j_hop=1.01 * j_crit))
    assert math.isnan(c.r) and math.isnan(c.g1) and math.isnan(c.w1)


def test_refuses_negative_frequency_sum():
    # lambda1 far from the boundary leaves omega_s1 strongly negative
    c, s, _ = _couplings(boundary_set(lambda1=190.0))
    assert s.omega_sum < 0.0
    assert math.isnan(c.r) and math.isnan(c.g1) and math.isnan(c.w1)


def test_single_opa_in_optomech_cavity_kills_phase_control():
    jps = []
    for dphi in np.linspace(0.0, 2.0 * math.pi, 21):
        c, s, _ = _couplings(laser_set(delta_phi=float(dphi)).replace(lambda1=0.0))
        jps.append(abs(c.j_prime))
        expected = 2.0 * 0.1 * math.sinh(s.r_d2)
        assert_rel(abs(c.j_prime), expected, 1e-13)
    assert max(jps) - min(jps) < 1e-12


def test_single_opa_in_auxiliary_cavity():
    c, s, vp = _couplings(laser_set().replace(lambda2=0.0))
    # cosh(2 r_d2) = 1: only the two-mode enhancement survives
    assert_rel(c.g1, vp.g0 * math.sinh(c.r) ** 2, 1e-13, atol=1e-18)
    assert_rel(c.g2, vp.g0 * math.cosh(c.r) ** 2, 1e-13)
    assert abs(c.g11) == 0.0 and abs(c.g22) == 0.0 and abs(c.gp12) == 0.0


def test_validity_all_zero_couplings():
    terms = _validity_terms(laser_set().replace(j_hop=0.0, lambda2=0.0))
    for name in ("g11", "g22", "g12", "gp12"):
        term = terms[name]
        assert term.ratio == 0.0 and term.ratio <= 0.1 and not term.resonance_hit


def test_validity_strong_drive_parametric_terms_small():
    terms = _validity_terms(strong_drive_set())
    for name in ("g11", "g22", "gp12"):
        assert terms[name].ratio <= 0.1
    # the pair term beats at W1+W2 ~ 4.1, the smallest gap here: its ratio is
    # only marginally small (~0.135, just above the 0.1 default)
    assert terms["g12"].ratio < 0.15
    # the radiation-pressure couplings are the point: NOT small against omega_m
    assert terms["g2"].ratio > 0.1


def test_boundary_pair_resonance_flagged():
    def wsum(dphi):
        c, _, _ = _couplings(boundary_set(delta_phi=float(dphi)))
        return c.w1 + c.w2 - 1.0

    root = brentq(wsum, 2.0, math.pi, xtol=1e-14)
    assert_rel(root, BOUNDARY_PAIR_RESONANCE_DPHI, 1e-9)
    terms = _validity_terms(boundary_set(delta_phi=root))
    assert terms["g12"].resonance_hit
    assert math.isinf(terms["g12"].ratio)


def test_classified_tms_points_have_valid_transform(rng):
    # classification consistency: on f1 >= 10 & f2 > 0 & positive-sum sets,
    # the transformation must exist
    vps, ss = random_sets(rng, Branch.TWO_MODE_SQUEEZING, 200)
    reports, cs = points(classify(ss, vps)), points(tms_couplings(ss, vps))
    for s, report, c in zip(points(ss), reports, cs):
        if report.branch is Branch.TWO_MODE_SQUEEZING and s.omega_sum > 0:
            assert not math.isnan(c.r)  # not refused
