"""Exact-diagonalization oracle: structure, frequencies, conjugation."""
import math

import numpy as np
import pytest

from sqom import (
    Branch,
    PhysicalParams,
    analytic_coefficients,
    build_photonic_form,
    conjugate_coupling,
    rwa_error_report,
    stage1_transform,
    symplectic_frequencies,
    validate,
)
from sqom.branch_bs import bs_couplings
from sqom.branch_tms import tms_couplings
from sqom.oracle import (
    SIGMA,
    bs_map,
    coefficient_defect,
    stage1_map,
    symplectic_defect,
    tms_map,
)
from sqom.verify import random_branch_params, random_valid_params

from conftest import assert_rel, strong_drive_set, laser_set


def test_form_trivial_diagonal():
    p = PhysicalParams(
        delta1=3.0, delta2=7.0, lambda1=0.0, lambda2=0.0,
        j_hop=0.0, g0=0.0, kappa=0.05, gamma_m=0.001,
    )
    form = build_photonic_form(p)
    assert np.allclose(form.h_matrix, np.diag([3.0, 7.0, 3.0, 7.0]))
    freqs = symplectic_frequencies(form)
    assert freqs.stable
    assert_rel(freqs.nu1, 7.0, 1e-14)
    assert_rel(freqs.nu2, 3.0, 1e-14)


def test_form_structure_on_random_sets(rng):
    for _ in range(200):
        vp = random_valid_params(rng)
        M = build_photonic_form(vp).h_matrix
        # hermiticity and particle-hole block structure
        assert np.max(np.abs(M - M.conj().T)) == 0.0
        assert np.max(np.abs(M[2:, 2:] - M[:2, :2].T)) == 0.0
        assert np.max(np.abs(M[2:, :2] - M[:2, 2:].conj())) == 0.0


def test_decoupled_frequencies_match_stage1(rng):
    for _ in range(100):
        vp = random_valid_params(rng)
        vp = validate(vp.as_physical().replace(j_hop=0.0))
        s = stage1_transform(vp)
        freqs = symplectic_frequencies(build_photonic_form(vp))
        expected = sorted([abs(s.omega_s1), abs(s.omega_s2)])
        assert freqs.stable
        assert_rel(freqs.nu2, expected[0], 1e-9, atol=1e-12)
        assert_rel(freqs.nu1, expected[1], 1e-9, atol=1e-12)


def test_parametric_instability_flagged():
    p = PhysicalParams(
        delta1=10.0, delta2=10.0, lambda1=6.0, lambda2=0.0,
        j_hop=0.0, g0=0.0, kappa=0.05, gamma_m=0.001,
    )
    # |delta1| < 2*lambda1: deliberately invalid, built from raw params
    freqs = symplectic_frequencies(build_photonic_form(p))
    assert not freqs.stable


def test_maps_preserve_symplectic_metric(rng):
    for _ in range(300):
        vp = random_valid_params(rng)
        s = stage1_transform(vp)
        maps = [stage1_map(vp, s), bs_map(bs_couplings(s, vp))]
        if s.omega_sum > 2.0 * vp.j_hop * abs(s.lam2) and s.omega_sum > 0:
            maps.append(tms_map(tms_couplings(s, vp)))
        composed = maps[0]
        for m in maps[1:]:
            composed = composed @ m
            assert symplectic_defect(m) < 1e-12
        assert symplectic_defect(composed) < 1e-12


def test_identity_map_recovers_bare_coupling():
    p = laser_set().replace(lambda1=0.0, lambda2=0.0, j_hop=0.0)
    vp = validate(p)
    coeffs = conjugate_coupling(vp, Branch.BEAM_SPLITTER)
    assert abs(coeffs["n22"] + p.g0) < 1e-18
    for name, value in coeffs.items():
        if name != "n22":
            assert abs(value) < 1e-18


def test_branch_transformations_diagonalize_their_hamiltonian(rng):
    """The rotation must cancel the photonic term it was built to remove."""
    for _ in range(100):
        vp = random_branch_params(rng, Branch.TWO_MODE_SQUEEZING)
        s = stage1_transform(vp)
        c = tms_couplings(s, vp)
        T = tms_map(c)
        P = np.diag([s.omega_s1, s.omega_s2]).astype(complex)
        Q = np.array(
            [[0.0, -vp.j_hop * np.conj(s.lam2)], [-vp.j_hop * np.conj(s.lam2), 0.0]]
        )
        M = np.block([[P, Q], [Q.conj().T, P.T]])
        M2 = T.conj().T @ M @ T
        scale = max(abs(s.omega_s1), abs(s.omega_s2), 1.0)
        assert np.max(np.abs(M2[:2, 2:])) < 1e-11 * scale  # pair block gone
        assert abs(M2[0, 1]) < 1e-11 * scale
        assert_rel(M2[0, 0].real, c.w1, 1e-10, atol=1e-12)
        assert_rel(M2[1, 1].real, c.w2, 1e-10, atol=1e-12)

        bvp = random_branch_params(rng, Branch.BEAM_SPLITTER)
        bs_ = stage1_transform(bvp)
        bc = bs_couplings(bs_, bvp)
        Tb = bs_map(bc)
        Pb = np.array(
            [
                [bs_.omega_s1, bvp.j_hop * np.conj(bs_.lam1)],
                [bvp.j_hop * bs_.lam1, bs_.omega_s2],
            ]
        )
        Mb = np.block([[Pb, np.zeros((2, 2))], [np.zeros((2, 2)), Pb.T]])
        Mb2 = Tb.conj().T @ Mb @ Tb
        scale = max(abs(bs_.omega_s1), abs(bs_.omega_s2), 1.0)
        assert abs(Mb2[0, 1]) < 1e-11 * scale
        assert_rel(Mb2[0, 0].real, bc.w1, 1e-10, atol=1e-12)
        assert_rel(Mb2[1, 1].real, bc.w2, 1e-10, atol=1e-12)


@pytest.mark.parametrize("branch", [Branch.TWO_MODE_SQUEEZING, Branch.BEAM_SPLITTER])
def test_conjugation_matches_analytics_random(branch, rng):
    worst = 0.0
    for _ in range(300):
        vp = random_branch_params(rng, branch)
        exact = conjugate_coupling(vp, branch)
        analytic = analytic_coefficients(vp, branch)
        worst = max(worst, coefficient_defect(exact, analytic, scale_floor=vp.g0))
    assert worst < 1e-9


def test_conjugation_displacement_bookkeeping():
    """Scalar part: -(f_disp + f_prime) after two-mode squeezing, -f_disp
    after beam-splitter mixing (number conserving)."""
    vp = validate(strong_drive_set())
    s = stage1_transform(vp)
    c = tms_couplings(s, vp)
    exact = conjugate_coupling(vp, Branch.TWO_MODE_SQUEEZING)
    assert_rel(exact["const"].real, -(s.f_disp + c.f_prime), 1e-12)
    assert abs(exact["const"].imag) < 1e-15

    vpb = validate(laser_set())
    sb = stage1_transform(vpb)
    exactb = conjugate_coupling(vpb, Branch.BEAM_SPLITTER)
    assert_rel(exactb["const"].real, -sb.f_disp, 1e-12)


def test_frequency_invariance_global_phase(rng):
    for _ in range(50):
        vp = random_valid_params(rng)
        shift = float(rng.uniform(0.0, 2.0 * math.pi))
        shifted = validate(
            vp.as_physical().replace(phi_d1=vp.phi_d1 + shift, phi_d2=vp.phi_d2 + shift)
        )
        f0 = symplectic_frequencies(build_photonic_form(vp))
        f1 = symplectic_frequencies(build_photonic_form(shifted))
        assert_rel(f0.nu1, f1.nu1, 1e-9, atol=1e-9)
        assert_rel(f0.nu2, f1.nu2, 1e-9, atol=1e-9)


def test_rwa_report_trivial_zero_dropped_weight():
    p = laser_set().replace(lambda1=0.0, lambda2=0.0)
    vp = validate(p)
    report = rwa_error_report(vp, Branch.BEAM_SPLITTER)
    assert report.dropped_abs == 0.0
    assert report.dropped_ratio == 0.0
    assert report.coeff_defect < 1e-12


def test_rwa_report_strong_drive_within_1pc():
    vp = validate(strong_drive_set())
    report = rwa_error_report(vp, Branch.TWO_MODE_SQUEEZING)
    assert report.stable
    assert all(d.rel_dev <= 0.01 for d in report.freq_devs)
    assert report.dropped_ratio < 0.1  # dropped coherent hopping vs its gap


def test_rwa_report_laser_set_within_1pc():
    vp = validate(laser_set())
    report = rwa_error_report(vp, Branch.BEAM_SPLITTER)
    assert report.stable
    assert all(d.rel_dev <= 0.01 for d in report.freq_devs)
    assert report.dropped_ratio < 0.1  # dropped pair term vs its gap


def test_sigma_metric_definition():
    assert np.allclose(SIGMA, np.diag([1, 1, -1, -1]))
    # symplectic defect of the identity is zero
    assert symplectic_defect(np.eye(4, dtype=complex)) == 0.0
