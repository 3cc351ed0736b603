"""Exact-diagonalization oracle: structure, frequencies, conjugation."""
import math
from dataclasses import replace

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
from sqom.verify import random_branch_params, random_sets, stacked

from conftest import assert_rel, batch, laser_set, point, points, strong_drive_set


def _report(p, branch):
    """The oracle report of one set, as Python scalars."""
    report = rwa_error_report(validate(batch(p)), branch)
    return replace(
        point(report), freqs=point(report.freqs), freq_devs=tuple(map(point, report.freq_devs))
    )


def test_form_trivial_diagonal():
    p = PhysicalParams(
        delta1=3.0, delta2=7.0, lambda1=0.0, lambda2=0.0,
        j_hop=0.0, g0=0.0, kappa=0.05, gamma_m=0.001,
    )
    form = build_photonic_form(batch(p))
    assert np.allclose(form.h_matrix[0], np.diag([3.0, 7.0, 3.0, 7.0]))
    freqs = point(symplectic_frequencies(form))
    assert freqs.stable
    assert_rel(freqs.nu1, 7.0, 1e-14)
    assert_rel(freqs.nu2, 3.0, 1e-14)


def test_form_structure_on_random_sets(rng):
    vps, _ = random_sets(rng, Branch.BEAM_SPLITTER, 200)
    for M in build_photonic_form(vps).h_matrix:
        # hermiticity and particle-hole block structure
        assert np.max(np.abs(M - M.conj().T)) == 0.0
        assert np.max(np.abs(M[2:, 2:] - M[:2, :2].T)) == 0.0
        assert np.max(np.abs(M[2:, :2] - M[:2, 2:].conj())) == 0.0


def test_decoupled_frequencies_match_stage1(rng):
    vps, ss = random_sets(rng, Branch.BEAM_SPLITTER, 100)
    vps = validate(vps.as_physical().replace(j_hop=np.zeros(100)))
    all_freqs = symplectic_frequencies(build_photonic_form(vps))
    for s, freqs in zip(points(ss), points(all_freqs)):
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
    freqs = point(symplectic_frequencies(build_photonic_form(batch(p))))
    assert not freqs.stable


def test_maps_preserve_symplectic_metric(rng):
    vps, ss = random_sets(rng, Branch.BEAM_SPLITTER, 300)
    stacks = zip(stage1_map(vps, ss), bs_map(bs_couplings(ss, vps)), tms_map(tms_couplings(ss, vps)))
    for vp, s, (m1, mb, mt) in zip(points(vps), points(ss), stacks):
        maps = [m1, mb]
        if s.omega_sum > 2.0 * vp.j_hop * abs(s.lam2) and s.omega_sum > 0:
            maps.append(mt)
        composed = maps[0]
        for m in maps[1:]:
            composed = composed @ m
            assert symplectic_defect(m) < 1e-12
        assert symplectic_defect(composed) < 1e-12


def test_identity_map_recovers_bare_coupling():
    p = laser_set().replace(lambda1=0.0, lambda2=0.0, j_hop=0.0)
    vp = validate(batch(p))
    coeffs = {k: v.item() for k, v in conjugate_coupling(vp, Branch.BEAM_SPLITTER).items()}
    assert abs(coeffs["n22"] + p.g0) < 1e-18
    for name, value in coeffs.items():
        if name != "n22":
            assert abs(value) < 1e-18


def test_branch_transformations_diagonalize_their_hamiltonian(rng):
    """The rotation must cancel the photonic term it was built to remove."""
    tms_sets, bs_sets = [], []
    for _ in range(100):  # the sets of both branches drawn alternately
        tms_sets.append(random_branch_params(rng, Branch.TWO_MODE_SQUEEZING))
        bs_sets.append(random_branch_params(rng, Branch.BEAM_SPLITTER))
    vps, ss = stacked(Branch.TWO_MODE_SQUEEZING, tms_sets)
    cs = tms_couplings(ss, vps)
    bvps, bss = stacked(Branch.BEAM_SPLITTER, bs_sets)
    bcs = bs_couplings(bss, bvps)
    tms_rows = zip(points(vps), points(ss), points(cs), tms_map(cs))
    bs_rows = zip(points(bvps), points(bss), points(bcs), bs_map(bcs))
    for (vp, s, c, T), (bvp, bs_, bc, Tb) in zip(tms_rows, bs_rows):
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
    vps, ss = random_sets(rng, branch, 300)
    exact = conjugate_coupling(vps, branch, ss)
    analytic = analytic_coefficients(vps, branch, ss)
    worst = max(coefficient_defect(exact, analytic, scale_floor=vps.g0))
    assert worst < 1e-9


def test_conjugation_displacement_bookkeeping():
    """Scalar part: -(f_disp + f_prime) after two-mode squeezing, -f_disp
    after beam-splitter mixing (number conserving)."""
    vp = validate(batch(strong_drive_set()))
    s = stage1_transform(vp)
    c = point(tms_couplings(s, vp))
    const = conjugate_coupling(vp, Branch.TWO_MODE_SQUEEZING)["const"].item()
    assert_rel(const.real, -(point(s).f_disp + c.f_prime), 1e-12)
    assert abs(const.imag) < 1e-15

    vpb = validate(batch(laser_set()))
    sb = point(stage1_transform(vpb))
    constb = conjugate_coupling(vpb, Branch.BEAM_SPLITTER)["const"].item()
    assert_rel(constb.real, -sb.f_disp, 1e-12)


def test_frequency_invariance_global_phase(rng):
    drawn = []
    for _ in range(50):  # a set, then its shift
        drawn.append(random_branch_params(rng, Branch.BEAM_SPLITTER))
        drawn.append(float(rng.uniform(0.0, 2.0 * math.pi)))
    vps, _ = stacked(Branch.BEAM_SPLITTER, drawn[::2])
    shift = np.array(drawn[1::2])
    shifted = validate(
        vps.as_physical().replace(phi_d1=vps.phi_d1 + shift, phi_d2=vps.phi_d2 + shift)
    )
    f0s = points(symplectic_frequencies(build_photonic_form(vps)))
    f1s = points(symplectic_frequencies(build_photonic_form(shifted)))
    for f0, f1 in zip(f0s, f1s):
        assert_rel(f0.nu1, f1.nu1, 1e-9, atol=1e-9)
        assert_rel(f0.nu2, f1.nu2, 1e-9, atol=1e-9)


def test_rwa_report_trivial_zero_dropped_weight():
    p = laser_set().replace(lambda1=0.0, lambda2=0.0)
    report = _report(p, Branch.BEAM_SPLITTER)
    assert report.dropped_abs == 0.0
    assert report.dropped_ratio == 0.0
    assert report.coeff_defect < 1e-12


def test_rwa_report_strong_drive_within_1pc():
    report = _report(strong_drive_set(), Branch.TWO_MODE_SQUEEZING)
    assert report.stable
    assert all(d.rel_dev <= 0.01 for d in report.freq_devs)
    assert report.dropped_ratio < 0.1  # dropped coherent hopping vs its gap


def test_rwa_report_laser_set_within_1pc():
    report = _report(laser_set(), Branch.BEAM_SPLITTER)
    assert report.stable
    assert all(d.rel_dev <= 0.01 for d in report.freq_devs)
    assert report.dropped_ratio < 0.1  # dropped pair term vs its gap


def test_sigma_metric_definition():
    assert np.allclose(SIGMA, np.diag([1, 1, -1, -1]))
    # symplectic defect of the identity is zero
    assert symplectic_defect(np.eye(4, dtype=complex)) == 0.0
