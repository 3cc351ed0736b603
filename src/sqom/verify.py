"""Self-verification: exact identities and oracle agreement on random sets.

The closed-form couplings obey exact algebraic identities (independent of
any rotating-wave argument), and every coefficient must agree with the
brute-force conjugation oracle. This module samples random valid parameter
sets, runs both families of checks plus the symplectic-metric preservation
test, and reports one row per check for the `verify` CLI subcommand.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .branch_bs import bs_couplings
from .branch_tms import tms_couplings
from .errors import TmsUnstable
from .oracle import METRIC_TOL
from .params import PhysicalParams, ValidatedParams, validate
from .regime import Branch
from .stage1 import stage1_transform

IDENTITY_RTOL = 1e-10


def random_valid_params(rng: np.random.Generator) -> ValidatedParams:
    """A random stable parameter set with well-separated squeezed frequencies.

    Detunings of either sign in [1, 100], drives up to 0.495|delta| (so the
    squeezing parameters stay moderate and the exact identities are probed
    far from float cancellation), uniform phases, log-uniform g0. Sets whose
    squeezed frequencies nearly coincide are resampled: there the label
    split omega_s1 - omega_s2 is dominated by rounding and no finite
    tolerance is meaningful.
    """
    while True:
        d1 = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 100.0)
        d2 = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 100.0)
        p = PhysicalParams(
            delta1=float(d1),
            delta2=float(d2),
            lambda1=float(rng.uniform(0.0, 0.495 * abs(d1))),
            lambda2=float(rng.uniform(0.0, 0.495 * abs(d2))),
            j_hop=float(rng.uniform(0.0, 2.0)),
            g0=float(10.0 ** rng.uniform(-4.0, -1.0)),
            kappa=0.05,
            gamma_m=0.001,
            phi_d1=float(rng.uniform(0.0, 2.0 * math.pi)),
            phi_d2=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        vp = validate(p)
        s = stage1_transform(vp)
        if abs(s.omega_diff) >= 0.01 * max(1.0, abs(s.omega_s1) + abs(s.omega_s2)):
            return vp


def random_branch_params(rng: np.random.Generator, branch: Branch) -> ValidatedParams:
    """Random set on which the requested second-stage transformation exists.

    For the two-mode-squeezing branch the hopping is rescaled so that
    |J'| = 2*j_hop*|lam2| lands strictly inside (0.05, 0.95) of the
    stability interval (0, omega_s1+omega_s2). Sets whose frequency sum
    nearly cancels are skipped for the same reason near-degenerate
    differences are: the sum then carries only ~1e-11 relative accuracy
    and no identity built on it can be checked tighter than that.
    """
    while True:
        vp = random_valid_params(rng)
        if branch is Branch.BEAM_SPLITTER:
            return vp
        s = stage1_transform(vp)
        if s.omega_sum < 0.01 * max(1.0, abs(s.omega_s1) + abs(s.omega_s2)):
            continue
        if abs(s.lam2) < 1e-9:
            continue
        u = rng.uniform(0.05, 0.95)
        j_hop = u * s.omega_sum / (2.0 * abs(s.lam2))
        return validate(vp.as_physical().replace(j_hop=j_hop))


@dataclass(frozen=True)
class CheckRow:
    check: str
    status: str  # pass / fail / info
    max_error: float
    tolerance: float
    detail: str


def _rel(err: float, scale: float) -> float:
    return err / max(scale, 1e-300)


def _identity_errors_tms(vp: ValidatedParams) -> dict[str, float]:
    s = stage1_transform(vp)
    c = tms_couplings(s, vp)
    g0 = vp.g0
    ch2 = math.cosh(2.0 * s.r_d2)
    return {
        "g_s2^2-4g_p2^2=g0^2": _rel(abs(s.g_s2**2 - 4.0 * s.g_p2**2 - g0**2), g0**2),
        "|lam1|^2-|lam2|^2=1": abs(abs(s.lam1) ** 2 - abs(s.lam2) ** 2 - 1.0),
        "G2-G1=g0*cosh(2r_d2)": _rel(abs((c.g2 - c.g1) - g0 * ch2), g0 * ch2),
        "|G12|^2=G1*G2": _rel(abs(abs(c.g12) ** 2 - c.g1 * c.g2), max(c.g1 * c.g2, g0**2)),
        "W1-W2=ws1-ws2": _rel(abs((c.w1 - c.w2) - s.omega_diff), abs(s.omega_diff)),
        "W1+W2=sqrt(S^2-|J'|^2)": _rel(
            abs((c.w1 + c.w2) - math.sqrt(s.omega_sum**2 - abs(c.j_prime) ** 2)),
            abs(c.w1 + c.w2),
        ),
        "eta=tanh^2(r)": abs(c.eta - math.tanh(c.r) ** 2),
    }


def _identity_errors_bs(vp: ValidatedParams) -> dict[str, float]:
    s = stage1_transform(vp)
    c = bs_couplings(s, vp)
    g0 = vp.g0
    ch2 = math.cosh(2.0 * s.r_d2)
    hyp = math.hypot(s.omega_diff, abs(c.j_prime))
    return {
        "G1+G2=g0*cosh(2r_d2)": _rel(abs((c.g1 + c.g2) - g0 * ch2), g0 * ch2),
        "|Gp12|^2=G1*G2": _rel(abs(abs(c.gp12) ** 2 - c.g1 * c.g2), max(c.g1 * c.g2, g0**2)),
        "W1+W2=ws1+ws2": _rel(abs((c.w1 + c.w2) - s.omega_sum), max(abs(s.omega_sum), 1.0)),
        "|W1-W2|=avoided-crossing": _rel(abs(abs(c.w1 - c.w2) - hyp), hyp),
    }


def run_verification(
    vp: ValidatedParams, n_random: int, seed: int, oracle_rtol: float
) -> list[CheckRow]:
    """All checks at the configured point plus `n_random` random sets per branch."""
    rng = np.random.default_rng(seed)
    rows: list[CheckRow] = []

    def add(check: str, err: float, tol: float, detail: str = "", status: str | None = None):
        if status is None:
            status = "pass" if err <= tol else "fail"
        rows.append(CheckRow(check, status, err, tol, detail))

    # --- exact identities on random sets ------------------------------------
    worst: dict[str, float] = {}
    for i in range(n_random):
        tvp = random_branch_params(rng, Branch.TWO_MODE_SQUEEZING)
        for name, err in _identity_errors_tms(tvp).items():
            worst[name] = max(worst.get(name, 0.0), err)
        bvp = random_branch_params(rng, Branch.BEAM_SPLITTER)
        for name, err in _identity_errors_bs(bvp).items():
            worst[name] = max(worst.get(name, 0.0), err)
    for name, err in sorted(worst.items()):
        add(f"identity[{name}]", err, IDENTITY_RTOL, f"{n_random} random sets")

    # --- oracle agreement -----------------------------------------------------
    for branch, label in (
        (Branch.TWO_MODE_SQUEEZING, "tms"),
        (Branch.BEAM_SPLITTER, "bs"),
    ):
        worst_coeff = 0.0
        worst_metric = 0.0
        for i in range(n_random):
            rvp = random_branch_params(rng, branch)
            report = oracle.rwa_error_report(rvp, branch)
            worst_coeff = max(worst_coeff, report.coeff_defect)
            worst_metric = max(worst_metric, report.metric_defect)
        add(f"oracle_coefficients[{label}]", worst_coeff, oracle_rtol, f"{n_random} random sets")
        add(f"symplectic_metric[{label}]", worst_metric, METRIC_TOL, f"{n_random} random sets")

    # --- the configured point: both reports share one photonic form ------------
    s = stage1_transform(vp)
    form = oracle.build_photonic_form(vp)
    freqs = oracle.symplectic_frequencies(form)
    for branch, label in (
        (Branch.TWO_MODE_SQUEEZING, "tms"),
        (Branch.BEAM_SPLITTER, "bs"),
    ):
        try:
            report = oracle.rwa_error_report(vp, branch, s, form, freqs)
        except TmsUnstable:
            add(f"config_point[{label}]", math.nan, math.nan,
                "branch transformation undefined here (TmsUnstable)", status="info")
            continue
        add(f"config_point_coefficients[{label}]", report.coeff_defect, oracle_rtol)
        add(f"config_point_metric[{label}]", report.metric_defect, METRIC_TOL)
        add(f"rwa_dropped_term[{label}]", report.dropped_ratio, math.nan,
            f"{report.dropped_name}: |coupling|={report.dropped_abs:.6g}, gap={report.gap:.6g}",
            status="info")
        for k, dev in enumerate(report.freq_devs):
            add(f"rwa_freq_dev[{label}][{k}]", dev.rel_dev, math.nan,
                f"analytic |W|={dev.analytic_abs:.9g}, exact nu={dev.exact:.9g}", status="info")
    return rows


def all_passed(rows: list[CheckRow]) -> bool:
    return all(r.status != "fail" for r in rows)
