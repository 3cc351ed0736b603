"""Self-verification: exact identities and oracle agreement on random sets.

The closed-form couplings obey exact algebraic identities (independent of
any rotating-wave argument), and every coefficient must agree with the
brute-force conjugation oracle. This module samples random valid parameter
sets, runs both families of checks plus the symplectic-metric preservation
test, and reports one row per check for the `verify` CLI subcommand.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from . import oracle
from .branch_bs import bs_couplings
from .branch_tms import tms_couplings
from .elementwise import cabs, cosh, hypot, py_max, square, stack, tanh
from .oracle import METRIC_TOL
from .params import PhysicalParams, ValidatedParams, validate
from .regime import Branch
from .stage1 import Stage1Result, stage1_transform

IDENTITY_RTOL = 1e-10


def _squeezed(delta: float, lambda_amp: float) -> tuple[float, float, float]:
    """omega_s, cosh(r_d) and sinh(r_d) of one cavity, as stage1_transform
    computes them, on floats."""
    r = 0.25 * math.log((delta + 2.0 * lambda_amp) / (delta - 2.0 * lambda_amp))
    return (delta - 2.0 * lambda_amp) * math.exp(2.0 * r), math.cosh(r), math.sinh(r)


def random_valid_params(rng: np.random.Generator) -> PhysicalParams:
    """A random stable parameter set (floats) with well-separated squeezed
    frequencies.

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
        w1 = _squeezed(p.delta1, p.lambda1)[0]
        w2 = _squeezed(p.delta2, p.lambda2)[0]
        if abs(w1 - w2) >= 0.01 * max(1.0, abs(w1) + abs(w2)):
            return p


def random_branch_params(
    rng: np.random.Generator, branch: Branch
) -> tuple[PhysicalParams, float]:
    """A random set on which the requested second-stage transformation
    exists, and the hopping fraction u (NaN for the beam-splitter branch).

    For the two-mode-squeezing branch `random_sets` rescales the hopping so
    that |J'| = 2*j_hop*|lam2| lands at the fraction u, strictly inside
    (0.05, 0.95), of the stability interval (0, omega_s1+omega_s2). Sets
    whose frequency sum nearly cancels are skipped for the same reason
    near-degenerate differences are: the sum then carries only ~1e-11
    relative accuracy and no identity built on it can be checked tighter
    than that.
    """
    while True:
        p = random_valid_params(rng)
        if branch is Branch.BEAM_SPLITTER:
            return p, math.nan
        w1, c1, s1 = _squeezed(p.delta1, p.lambda1)
        w2, c2, s2 = _squeezed(p.delta2, p.lambda2)
        if w1 + w2 < 0.01 * max(1.0, abs(w1) + abs(w2)):
            continue
        lam2 = c1 * s2 * cmath.exp(1j * p.phi_d2) + s1 * c2 * cmath.exp(1j * p.phi_d1)
        if abs(lam2) < 1e-9:
            continue
        return p, rng.uniform(0.05, 0.95)


def stacked(branch: Branch, drawn: list) -> tuple[ValidatedParams, Stage1Result]:
    """Sets drawn by `random_branch_params` as one validated batch and its
    stage 1 result; two-mode-squeezing sets get their rescaled hopping."""
    sets, u = zip(*drawn) if drawn else ((), ())
    vp = validate(stack(PhysicalParams, sets))
    s = stage1_transform(vp)
    if branch is Branch.TWO_MODE_SQUEEZING:
        vp = replace(vp, j_hop=np.array(u) * s.omega_sum / (2.0 * cabs(s.lam2)))
    return vp, s


def random_sets(
    rng: np.random.Generator, branch: Branch, n: int
) -> tuple[ValidatedParams, Stage1Result]:
    """n random sets of `branch`, drawn one after another, as one batch."""
    return stacked(branch, [random_branch_params(rng, branch) for _ in range(n)])


@dataclass(frozen=True)
class CheckRow:
    check: str
    status: str  # pass / fail / info
    max_error: float
    tolerance: float
    detail: str


def _rel(err, scale):
    return err / py_max(scale, 1e-300)


def _worst(errors: np.ndarray) -> float:
    """The largest error, 0 for no sets; as max(), a NaN error never wins."""
    return float(np.fmax.reduce(errors, initial=0.0))


def _identity_errors_tms(vp: ValidatedParams, s: Stage1Result) -> dict[str, np.ndarray]:
    c = tms_couplings(s, vp)
    g0, g0sq, ch2 = vp.g0, square(vp.g0), cosh(2.0 * s.r_d2)
    return {
        "g_s2^2-4g_p2^2=g0^2": _rel(abs(square(s.g_s2) - 4.0 * square(s.g_p2) - g0sq), g0sq),
        "|lam1|^2-|lam2|^2=1": abs(square(cabs(s.lam1)) - square(cabs(s.lam2)) - 1.0),
        "G2-G1=g0*cosh(2r_d2)": _rel(abs((c.g2 - c.g1) - g0 * ch2), g0 * ch2),
        "|G12|^2=G1*G2": _rel(abs(square(cabs(c.g12)) - c.g1 * c.g2), py_max(c.g1 * c.g2, g0sq)),
        "W1-W2=ws1-ws2": _rel(abs((c.w1 - c.w2) - s.omega_diff), abs(s.omega_diff)),
        "W1+W2=sqrt(S^2-|J'|^2)": _rel(
            abs((c.w1 + c.w2) - np.sqrt(square(s.omega_sum) - square(cabs(c.j_prime)))),
            abs(c.w1 + c.w2),
        ),
        "eta=tanh^2(r)": abs(c.eta - square(tanh(c.r))),
    }


def _identity_errors_bs(vp: ValidatedParams, s: Stage1Result) -> dict[str, np.ndarray]:
    c = bs_couplings(s, vp)
    g0, g0sq, ch2 = vp.g0, square(vp.g0), cosh(2.0 * s.r_d2)
    hyp = hypot(s.omega_diff, cabs(c.j_prime))
    return {
        "G1+G2=g0*cosh(2r_d2)": _rel(abs((c.g1 + c.g2) - g0 * ch2), g0 * ch2),
        "|Gp12|^2=G1*G2": _rel(abs(square(cabs(c.gp12)) - c.g1 * c.g2), py_max(c.g1 * c.g2, g0sq)),
        "W1+W2=ws1+ws2": _rel(abs((c.w1 + c.w2) - s.omega_sum), py_max(abs(s.omega_sum), 1.0)),
        "|W1-W2|=avoided-crossing": _rel(abs(abs(c.w1 - c.w2) - hyp), hyp),
    }


def run_verification(
    vp: ValidatedParams, n_random: int, seed: int, oracle_rtol: float
) -> list[CheckRow]:
    """All checks at the configured point (a batch of one) plus `n_random`
    random sets per branch.

    The sets are drawn one at a time with plain floats, so the random stream
    is read in a fixed order: the identity sets of both branches alternately,
    then the oracle sets of each branch. Each family of checks then runs once
    on the stacked sets of a branch.
    """
    rng = np.random.default_rng(seed)
    rows: list[CheckRow] = []

    def add(check: str, err: float, tol: float, detail: str = "", status: str | None = None):
        if status is None:
            status = "pass" if err <= tol else "fail"
        rows.append(CheckRow(check, status, err, tol, detail))

    # --- exact identities on random sets ------------------------------------
    drawn = [
        (random_branch_params(rng, Branch.TWO_MODE_SQUEEZING),
         random_branch_params(rng, Branch.BEAM_SPLITTER))
        for _ in range(n_random)
    ]
    if drawn:
        tms_sets, bs_sets = zip(*drawn)
        errors = {
            **_identity_errors_tms(*stacked(Branch.TWO_MODE_SQUEEZING, tms_sets)),
            **_identity_errors_bs(*stacked(Branch.BEAM_SPLITTER, bs_sets)),
        }
        for name, err in sorted(errors.items()):
            add(f"identity[{name}]", _worst(err), IDENTITY_RTOL, f"{n_random} random sets")

    # --- oracle agreement -----------------------------------------------------
    for branch, label in (
        (Branch.TWO_MODE_SQUEEZING, "tms"),
        (Branch.BEAM_SPLITTER, "bs"),
    ):
        sets, stage1 = random_sets(rng, branch, n_random)
        report = oracle.rwa_error_report(sets, branch, stage1)
        add(f"oracle_coefficients[{label}]", _worst(report.coeff_defect), oracle_rtol,
            f"{n_random} random sets")
        add(f"symplectic_metric[{label}]", _worst(report.metric_defect), METRIC_TOL,
            f"{n_random} random sets")

    # --- the configured point: both reports share one photonic form ------------
    s = stage1_transform(vp)
    form = oracle.build_photonic_form(vp)
    freqs = oracle.symplectic_frequencies(form)
    for branch, label, c in (
        (Branch.TWO_MODE_SQUEEZING, "tms", tms_couplings(s, vp)),
        (Branch.BEAM_SPLITTER, "bs", bs_couplings(s, vp)),
    ):
        if branch is Branch.TWO_MODE_SQUEEZING and math.isnan(c.r.item()):
            add(f"config_point[{label}]", math.nan, math.nan,
                "branch transformation undefined here (TmsUnstable)", status="info")
            continue
        report = oracle.rwa_error_report(vp, branch, s, c, form, freqs)
        add(f"config_point_coefficients[{label}]", report.coeff_defect.item(), oracle_rtol)
        add(f"config_point_metric[{label}]", report.metric_defect.item(), METRIC_TOL)
        add(f"rwa_dropped_term[{label}]", report.dropped_ratio.item(), math.nan,
            f"{report.dropped_name}: |coupling|={report.dropped_abs.item():.6g}, "
            f"gap={report.gap.item():.6g}",
            status="info")
        for k, dev in enumerate(report.freq_devs):
            add(f"rwa_freq_dev[{label}][{k}]", dev.rel_dev.item(), math.nan,
                f"analytic |W|={dev.analytic_abs.item():.9g}, exact nu={dev.exact.item():.9g}",
                status="info")
    return rows


def all_passed(rows: list[CheckRow]) -> bool:
    return all(r.status != "fail" for r in rows)
