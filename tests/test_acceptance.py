"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the table.
"""
import math

import numpy as np
from scipy.optimize import brentq

from sqom import (
    Axis,
    GridSpec,
    SweepSpec,
    extract_contours,
    laser,
    run_grid,
    run_sweep,
    stage1_transform,
    validate,
)
from sqom.cli import main
from sqom.second_stage import bs_couplings, tms_couplings
from sqom.sweep import laser_rows
from sqom.verify import (
    _identity_errors_bs,
    _identity_errors_tms,
    random_sets,
    random_valid_params,
    validated,
)

from conftest import (
    CONFIGS,
    batch,
    boundary_set,
    laser_set,
    on_one_point,
    oracle_report,
    point,
    strong_drive_set,
)

laser_point = on_one_point(laser.laser_point)

N_RANDOM = 1000
IDENTITY_RTOL = 1e-10
ORACLE_RTOL = 1e-9
METRIC_TOL = 1e-12


def _report(n, label):
    print(f"ACCEPTANCE {n} [{label}]: PASS")


def test_criterion_1_exact_identity_suite(rng):
    drawn = random_valid_params(rng, ["tms", "bs"] * N_RANDOM)  # both branches alternately
    errors = {
        **_identity_errors_tms(*validated("tms", *drawn["tms"])),
        **_identity_errors_bs(*validated("bs", *drawn["bs"])),
    }
    worst = max(np.max(err) for err in errors.values())
    assert worst < IDENTITY_RTOL, f"worst identity error {worst}"
    _report(1, f"exact identities, {N_RANDOM} sets/branch, worst={worst:.3e}")


def test_criterion_2_oracle_equivalence(rng):
    worst_coeff, worst_metric = 0.0, 0.0
    for branch in ("tms", "bs"):
        vps, _ = random_sets(rng, branch, N_RANDOM)
        (coeff, metric), _ = oracle_report(vps, branch)
        worst_coeff = max(worst_coeff, np.max(coeff))
        worst_metric = max(worst_metric, np.max(metric))
    assert worst_coeff < ORACLE_RTOL, f"worst coefficient defect {worst_coeff}"
    assert worst_metric < METRIC_TOL, f"worst metric defect {worst_metric}"
    _report(
        2,
        f"oracle equivalence, coeff defect {worst_coeff:.3e}, "
        f"metric defect {worst_metric:.3e}",
    )


def test_criterion_3_rwa_audit():
    vp2 = validate(batch(strong_drive_set()))
    _, dev2 = oracle_report(vp2, "tms")
    devs2 = dev2[:, 0].tolist()
    assert all(d <= 0.01 for d in devs2), devs2

    vp3 = validate(batch(laser_set()))
    _, dev3 = oracle_report(vp3, "bs")
    devs3 = dev3[:, 0].tolist()
    assert all(d <= 0.01 for d in devs3), devs3
    _report(
        3,
        "rwa audit, freq deviations "
        f"tms={max(devs2):.4%} bs={max(devs3):.4%} (<= 1%)",
    )


def test_criterion_4_strong_drive_coupling_curves():
    steps = 81  # odd: pi is a grid point, samples mirror exactly
    rows = run_sweep(
        strong_drive_set(), SweepSpec(Axis("delta_phi", 0.0, 2.0 * math.pi, steps))
    )
    g1 = np.array([r["tms_g1"] for r in rows])
    g2 = np.array([r["tms_g2"] for r in rows])
    assert not np.isnan(g1).any()
    for i in range(steps):
        j = steps - 1 - i
        assert abs(g1[i] - g1[j]) <= 1e-10 * max(g1[i], 1e-300)
        assert abs(g2[i] - g2[j]) <= 1e-10 * max(g2[i], 1e-300)
    mid = steps // 2
    assert g1.argmax() == mid and g2.argmax() == mid
    kappa = strong_drive_set().kappa
    assert g2[mid] > g1[mid] > kappa
    _report(
        4,
        f"strong-drive curves: peak at pi, G2={g2[mid]:.4f} > G1={g1[mid]:.4f} "
        f"> kappa={kappa}",
    )


def test_criterion_5_threshold_dips():
    steps = 721
    spec = SweepSpec(Axis("delta_phi", 0.0, 2.0 * math.pi, steps))
    rows = laser_rows(run_sweep(laser_set(), spec), spec)
    dphi = np.array([r["delta_phi"] for r in rows])
    pth = np.array([r["p_threshold"] for r in rows])
    det = np.array([r["detuning"] for r in rows])
    nth = np.array([r["n_threshold"] for r in rows])
    assert not np.isnan(pth).any()

    minima = [
        i
        for i in range(1, steps - 1)
        if pth[i] < pth[i - 1] and pth[i] < pth[i + 1]
    ]
    assert len(minima) == 2, f"expected exactly two dips, got {len(minima)}"
    lo, hi = minima
    step = dphi[1] - dphi[0]
    assert abs((dphi[lo] + dphi[hi]) - 2.0 * math.pi) <= step  # symmetric about pi

    kappa = laser_set().kappa
    for i in (lo, hi):
        assert abs(det[i]) < kappa
        assert nth[i] <= 1.0

    def wdiff(x):
        vp = validate(batch(laser_set(delta_phi=float(x))))
        c = point(bs_couplings(stage1_transform(vp), vp))
        return c.w1 - c.w2 - 1.0

    root_lo = brentq(wdiff, 0.1, math.pi, xtol=1e-13)
    root_hi = brentq(wdiff, math.pi, 2.0 * math.pi - 0.1, xtol=1e-13)
    assert abs(dphi[lo] - root_lo) <= step
    assert abs(dphi[hi] - root_hi) <= step
    _report(
        5,
        f"two threshold dips at {dphi[lo]:.4f}/{dphi[hi]:.4f} "
        f"(roots {root_lo:.4f}/{root_hi:.4f}), N+ <= 1 at both",
    )


def test_criterion_6_laser_formula_suite():
    gm, kappa = 0.001, 0.05
    # on resonance with |gp12| = 1 and kappa = 4 the gain is N+ exactly
    assert laser_point(1.0, 2.0, 1.0, 1.0, 4.0, gm, n_plus=gm).n_b == 1.0

    th = laser_point(0.04, 2.3, 1.0, 1.0, kappa, gm)
    gain = laser_point(0.04, 2.3, 1.0, 1.0, kappa, gm, n_plus=th.n_threshold).gain
    assert abs(gain - gm) <= 1e-12 * gm
    assert th.p_threshold == th.n_threshold * kappa * 2.3

    scan = [
        laser_point(0.04, 2.0 + d, 1.0, 1.0, kappa, gm, n_plus=1.0).gain
        for d in np.linspace(-1.0, 1.0, 201)
    ]
    assert np.argmax(scan) == 100  # resonance W1 - W2 = omega_m
    _report(6, "laser formulas: n_b(threshold)=1, gain roundtrip, P=N*kappa*W1, peak at resonance")


def test_criterion_7_regime_boundary_grid():
    spec = GridSpec(
        Axis("lambda1", 197.2, 199.9, 41),
        Axis("delta_phi", 0.0, 2.0 * math.pi, 41),
        outputs=("f1", "f2", "branch"),
    )
    rows = run_grid(boundary_set(), spec)
    xs, ys = spec.x.values(), spec.y.values()
    f1 = np.full((41, 41), np.nan)
    f2 = np.full((41, 41), np.nan)
    tms = np.zeros((41, 41), dtype=bool)
    for r in rows:
        f1[r["y_index"], r["x_index"]] = r["f1"]
        f2[r["y_index"], r["x_index"]] = r["f2"]
        tms[r["y_index"], r["x_index"]] = r["branch"] == "tms"

    contours_f1 = extract_contours(xs, ys, f1, [10.0])
    contours_f2 = extract_contours(xs, ys, f2, [0.0])
    assert contours_f1[10.0], "f1 = 10 equipotential must exist in this window"
    assert contours_f2[0.0], "f2 = 0 boundary must exist in this window"

    violations = 0
    for yi in range(41):
        for xi in range(41):
            if tms[yi, xi]:
                if not (f1[yi, xi] >= 10.0 and f2[yi, xi] > 0.0):
                    violations += 1
            elif np.isfinite(f1[yi, xi]):
                if f1[yi, xi] >= 10.0 and f2[yi, xi] > 0.0:
                    violations += 1
    assert violations == 0
    n_tms = int(tms.sum())
    _report(7, f"regime boundaries: {n_tms} tms points, 0 side violations")


def test_criterion_8_single_opa_limits():
    base = laser_set().replace(lambda1=0.0)
    jps = []
    for dphi in np.linspace(0.0, 2.0 * math.pi, 101):
        vp = validate(batch(base.replace(phi_d1=float(dphi))))
        s = stage1_transform(vp)
        c, s = point(tms_couplings(s, vp)), point(s)
        jps.append(abs(c.j_prime))
        assert abs(abs(c.j_prime) - 2.0 * base.j_hop * math.sinh(s.r_d2)) < 1e-12
    assert max(jps) - min(jps) < 1e-12

    bare = laser_set().replace(lambda1=0.0, lambda2=0.0, j_hop=0.0)
    vp = validate(batch(bare))
    s = stage1_transform(vp)
    c, s = point(bs_couplings(s, vp)), point(s)
    assert c.g2 == bare.g0
    assert c.g1 == 0.0 and abs(c.gp12) == 0.0 and abs(c.g12) == 0.0
    assert s.g_s2 == bare.g0 and s.g_p2 == 0.0 and s.f_disp == 0.0

    with_hop = laser_set().replace(lambda1=0.0, lambda2=0.0)
    vph = validate(batch(with_hop))
    ch = point(bs_couplings(stage1_transform(vph), vph))
    assert abs((ch.g1 + ch.g2) - with_hop.g0) < 1e-18  # no enhancement factor
    _report(8, "single-OPA limits: |J'| phase-independent, bare pipeline recovers g0")


def test_criterion_9_determinism(tmp_path):
    args = [
        "sweep", "--config", str(CONFIGS / "laser.json"), "--axis", "delta_phi",
        "--from", "0", "--to", "6.283185307179586", "--steps", "101",
    ]
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _report(9, "determinism: repeated sweep runs byte-identical")
