"""Self-verification: exact identities and oracle agreement on random sets.

The closed-form couplings obey exact algebraic identities (independent of
any rotating-wave argument), and every coefficient must agree with the
brute-force conjugation oracle. This module samples random valid parameter
sets, runs both families of checks plus the symplectic-metric preservation
test, and reports one row per check for the `verify` CLI subcommand. The
random sets' oracle checks read no frequency, so they solve no form; the
configured point's one form gives its frequency-deviation rows.
"""
from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import oracle
from .elementwise import cabs, cosh, hypot, py_max, square, stack, tanh
from .errors import NUMERICAL_DEGENERACY, TMS_UNSTABLE
from .oracle import METRIC_TOL
from .params import PhysicalParams, validate
from .regime import Branch
from .second_stage import bs_couplings, tms_couplings
from .stage1 import Stage1Result, stage1_transform

IDENTITY_RTOL = 1e-10


def _squeezed(delta: float, lambda_amp: float) -> tuple[float, float, float]:
    """omega_s, cosh(r_d) and sinh(r_d) of one cavity, as stage1_transform
    computes them, on floats."""
    r = 0.25 * math.log((delta + 2.0 * lambda_amp) / (delta - 2.0 * lambda_amp))
    return (delta - 2.0 * lambda_amp) * math.exp(2.0 * r), math.cosh(r), math.sinh(r)


def _tms_exists(q1: tuple, q2: tuple, phi_d1: float, phi_d2: float) -> bool:
    """Whether the two-mode-squeezing transformation can be drawn on a set,
    given each cavity's `_squeezed` values and drive phase: the frequency sum
    must not nearly cancel and the pair coupling lam2 must not vanish."""
    (w1, c1, s1), (w2, c2, s2) = q1, q2
    if w1 + w2 < 0.01 * max(1.0, abs(w1) + abs(w2)):
        return False
    lam2 = c1 * s2 * cmath.exp(1j * phi_d2) + s1 * c2 * cmath.exp(1j * phi_d1)
    return abs(lam2) >= 1e-9


def random_valid_params(
    rng: np.random.Generator, accept: Callable[..., bool] | None = None
) -> PhysicalParams:
    """A random stable parameter set (floats) with well-separated squeezed
    frequencies.

    Detunings of either sign in [1, 100], drives up to 0.495|delta| (so the
    squeezing parameters stay moderate and the exact identities are probed
    far from float cancellation), uniform phases, log-uniform g0. Sets whose
    squeezed frequencies nearly coincide are resampled: there the label
    split omega_s1 - omega_s2 is dominated by rounding and no finite
    tolerance is meaningful. So is a set that `accept(q1, q2, phi_d1, phi_d2)`
    refuses, where q1 and q2 are each cavity's `_squeezed` values.

    Each attempt reads the generator in a fixed order: two 32-bit draws of
    the bit generator, whose top bits are the signs of delta1 and delta2 as
    `rng.integers(2)` computes them, then `rng.random(8)` for the detuning
    magnitudes, lambda1, lambda2, j_hop, log10(g0), phi_d1 and phi_d2. Both
    32-bit draws take one 64-bit word, so on a generator that keeps no half
    word (a fresh one; each attempt leaves none) the sets and the state after
    them are bit for bit those of `rng.choice([-1.0, 1.0])` per sign and one
    `rng.uniform(low, high)`, which is `low + (high - low) * u`, per value.
    """
    bits = rng.bit_generator.ctypes  # numpy's typed C function pointers and state
    while True:
        s1, s2 = bits.next_uint32(bits.state) >> 31, bits.next_uint32(bits.state) >> 31
        m1, m2, u1, u2, uj, ug, up1, up2 = rng.random(8).tolist()
        d1 = (-1.0, 1.0)[s1] * (1.0 + (100.0 - 1.0) * m1)
        d2 = (-1.0, 1.0)[s2] * (1.0 + (100.0 - 1.0) * m2)
        lambda1 = 0.0 + (0.495 * abs(d1) - 0.0) * u1
        lambda2 = 0.0 + (0.495 * abs(d2) - 0.0) * u2
        phi_d1 = 0.0 + (2.0 * math.pi - 0.0) * up1
        phi_d2 = 0.0 + (2.0 * math.pi - 0.0) * up2
        q1 = _squeezed(d1, lambda1)
        q2 = _squeezed(d2, lambda2)
        w1, w2 = q1[0], q2[0]
        if abs(w1 - w2) < 0.01 * max(1.0, abs(w1) + abs(w2)):
            continue
        if accept is None or accept(q1, q2, phi_d1, phi_d2):
            return PhysicalParams(
                delta1=d1,
                delta2=d2,
                lambda1=lambda1,
                lambda2=lambda2,
                j_hop=0.0 + (2.0 - 0.0) * uj,
                g0=10.0 ** (-4.0 + (-1.0 - -4.0) * ug),
                kappa=0.05,
                gamma_m=0.001,
                phi_d1=phi_d1,
                phi_d2=phi_d2,
            )


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

    A beam-splitter set is one `random_valid_params` draw. A
    two-mode-squeezing set is drawn the same way, a refused set redrawn,
    and u is then `0.05 + (0.95 - 0.05) * rng.random()`, as
    `rng.uniform(0.05, 0.95)` computes it.
    """
    if branch is Branch.BEAM_SPLITTER:
        return random_valid_params(rng), math.nan
    return random_valid_params(rng, _tms_exists), 0.05 + (0.95 - 0.05) * rng.random()


def stacked(branch: Branch, drawn: list) -> tuple[PhysicalParams, Stage1Result]:
    """Sets drawn by `random_branch_params` as one validated batch and its
    stage 1 result; two-mode-squeezing sets get their rescaled hopping."""
    sets, u = zip(*drawn) if drawn else ((), ())
    vp = validate(stack(PhysicalParams, sets))
    s = stage1_transform(vp)
    if branch is Branch.TWO_MODE_SQUEEZING:
        vp = vp.replace(j_hop=np.array(u) * s.omega_sum / (2.0 * cabs(s.lam2)))
    return vp, s


def random_sets(
    rng: np.random.Generator, branch: Branch, n: int
) -> tuple[PhysicalParams, Stage1Result]:
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
    """The largest error, 0 for no sets; a NaN error wins, so the check
    fails on it."""
    return float(np.max(errors, initial=0.0))


def _identity_errors_tms(vp: PhysicalParams, s: Stage1Result) -> dict[str, np.ndarray]:
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


def _identity_errors_bs(vp: PhysicalParams, s: Stage1Result) -> dict[str, np.ndarray]:
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
    vp: PhysicalParams, n_random: int, seed: int, oracle_rtol: float
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

    # --- oracle agreement: the two defects, no form to solve ------------------
    for branch, label, couplings in (
        (Branch.TWO_MODE_SQUEEZING, "tms", tms_couplings),
        (Branch.BEAM_SPLITTER, "bs", bs_couplings),
    ):
        sets, stage1 = random_sets(rng, branch, n_random)
        report, = oracle.rwa_error_report(sets, stage1, [couplings(stage1, sets)])
        add(f"oracle_coefficients[{label}]", _worst(report.coeff_defect), oracle_rtol,
            f"{n_random} random sets")
        add(f"symplectic_metric[{label}]", _worst(report.metric_defect), METRIC_TOL,
            f"{n_random} random sets")

    # --- the configured point: both branches share its exact frequencies ------
    s = stage1_transform(vp)
    freqs = oracle.symplectic_frequencies(oracle.build_photonic_form(vp))
    unpaired = "" if freqs.paired.item() else (
        f"exact frequencies cannot be paired here ({NUMERICAL_DEGENERACY})")
    checked = {}
    for label, c in (("tms", tms_couplings(s, vp)), ("bs", bs_couplings(s, vp))):
        unchecked = (label == "tms" and math.isnan(c.r.item())
                     and f"branch transformation undefined here ({TMS_UNSTABLE})") or unpaired
        if unchecked:
            add(f"config_point[{label}]", math.nan, math.nan, unchecked, status="info")
        else:
            checked[label] = c
    # only the tms branch, or both, can be unchecked: the rows keep branch order
    reports = oracle.rwa_error_report(vp, s, list(checked.values())) if checked else []
    for (label, c), report in zip(checked.items(), reports):
        add(f"config_point_coefficients[{label}]", report.coeff_defect.item(), oracle_rtol)
        add(f"config_point_metric[{label}]", report.metric_defect.item(), METRIC_TOL)
        # the term the branch drops: coherent hopping beats at the frequency
        # difference, the pair term at the sum
        name, factor, beat = (("coherent_hopping", s.lam1, s.omega_diff) if label == "tms"
                              else ("pair_squeezing", s.lam2, s.omega_sum))
        dropped, gap = vp.j_hop.item() * abs(factor.item()), abs(beat.item())
        add(f"rwa_dropped_term[{label}]", dropped / gap if gap else math.inf, math.nan,
            f"{name}: |coupling|={dropped:.6g}, gap={gap:.6g}", status="info")
        analytic, dev = oracle.frequency_deviation(c.w1, c.w2, freqs)
        exact = (freqs.nu2.item(), freqs.nu1.item())
        for k in range(2):
            add(f"rwa_freq_dev[{label}][{k}]", dev[k].item(), math.nan,
                f"analytic |W|={analytic[k].item():.9g}, exact nu={exact[k]:.9g}",
                status="info")
    return rows


def all_passed(rows: list[CheckRow]) -> bool:
    return all(r.status != "fail" for r in rows)
