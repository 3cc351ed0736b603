"""Regime discriminants f1, f2 and branch classification."""
import math

import numpy as np

from sqom import Branch, classify, stage1_transform, validate
from sqom.branch_tms import tms_couplings

from conftest import arr, assert_rel, batch, boundary_set, laser_set, point, strong_drive_set

STRONG_F1_PI = 10.397447549210074   # > 10: squeezing-dominated
STRONG_F2_PI = 0.2229466267554372
LASER_F1_PI = 0.0310006373030808   # < 0.1: hopping-dominated


def _regime(p, **kw):
    vp = validate(batch(p))
    s = stage1_transform(vp)
    return point(classify(s, vp, **kw)), point(s), point(vp)


def test_no_drives_is_beam_splitter():
    report, _, _ = _regime(laser_set().replace(lambda1=0.0, lambda2=0.0))
    assert report.f1 == 0.0
    assert report.branch is Branch.BEAM_SPLITTER
    assert not report.f1_degenerate


def test_strong_drive_at_pi_is_tms():
    report, _, _ = _regime(strong_drive_set())
    assert_rel(report.f1, STRONG_F1_PI, 1e-12)
    assert_rel(report.f2, STRONG_F2_PI, 1e-9)
    assert report.f1 > 10.0
    assert report.branch is Branch.TWO_MODE_SQUEEZING


def test_laser_set_at_pi_is_bs():
    report, _, _ = _regime(laser_set())
    assert_rel(report.f1, LASER_F1_PI, 1e-12)
    assert report.f1 < 0.1
    assert report.branch is Branch.BEAM_SPLITTER


def test_intermediate_band():
    # weaker drive on cavity 1 moves the strong-drive set off the f1 >= 10 region
    report, _, _ = _regime(strong_drive_set(lambda1=1900.0))
    assert 0.1 < report.f1 < 10.0
    assert report.branch is Branch.INTERMEDIATE


def test_thresholds_overridable():
    report, _, _ = _regime(strong_drive_set(lambda1=1900.0), f1_hi=1.0)
    assert report.branch is Branch.TWO_MODE_SQUEEZING


def test_f1_invariant_under_global_phase_shift():
    r0, _, _ = _regime(laser_set(delta_phi=2.2))
    p = laser_set(delta_phi=2.2)
    r1, _, _ = _regime(p.replace(phi_d1=p.phi_d1 + 1.7, phi_d2=p.phi_d2 + 1.7))
    assert_rel(r0.f1, r1.f1, 1e-12)
    assert_rel(r0.f2, r1.f2, 1e-12, atol=1e-15)


def test_f1_symmetric_under_cavity_swap():
    p = laser_set(delta_phi=1.1)
    swapped = p.replace(
        delta1=p.delta2, delta2=p.delta1,
        lambda1=p.lambda2, lambda2=p.lambda1,
        phi_d1=p.phi_d2, phi_d2=p.phi_d1,
    )
    r0, _, _ = _regime(p)
    r1, _, _ = _regime(swapped)
    assert_rel(r0.f1, r1.f1, 1e-12)


def test_f1_degenerate_when_frequencies_cancel():
    # exact cancellation omega_s1 = -omega_s2 makes f1's denominator vanish;
    # built synthetically since float stage-1 output lands near, not on, zero
    from sqom.stage1 import Stage1Result

    s = Stage1Result(
        r_d1=arr(0.4), r_d2=arr(0.7), omega_s1=arr(5.0), omega_s2=arr(-5.0), g_s2=arr(0.1),
        g_p2=arr(0.04), lam1=np.array([1.5 + 0.0j]), lam2=np.array([0.9 + 0.5j]),
        f_disp=arr(0.01), c_const=arr(0.0),
    )
    report = point(classify(s, validate(batch(laser_set()))))
    assert report.f1_degenerate
    assert math.isinf(report.f1)


def test_f1_large_near_frequency_cancellation():
    # a near-cancelling (not exact) sum gives a huge but finite f1 and, with
    # the hopping on, lands outside the two-mode-squeezing region via f2 < 0
    p = laser_set().replace(delta1=-100.0, delta2=100.0, lambda1=49.99, lambda2=49.99)
    report, _, _ = _regime(p)
    assert not report.f1_degenerate
    assert math.isfinite(report.f1) and report.f1 > 1e10
    assert report.f2 < 0.0
    assert report.branch is Branch.INTERMEDIATE


def test_f2_positive_needed_for_finite_r():
    """r grows beyond any bound as |J'| is pushed toward omega_s1+omega_s2."""
    _, s, vp = _regime(boundary_set())
    margin = s.omega_sum / (2.0 * vp.j_hop * abs(s.lam2))  # j scale exhausting f2
    last_r = 0.0
    for shrink in (1e-2, 1e-6, 1e-10, 1e-14):
        p = boundary_set().replace(j_hop=boundary_set().j_hop * margin * (1.0 - shrink))
        vpb = validate(batch(p))
        c = point(tms_couplings(stage1_transform(vpb), vpb))
        assert c.r > last_r
        last_r = c.r
    assert last_r > 7.0  # 0.25*ln(2/1e-14) ~ 8.2
