"""Self-verification: exact identities and oracle agreement on random sets.

The closed-form couplings obey exact algebraic identities (independent of
any rotating-wave argument), and every coefficient must agree with the
brute-force conjugation oracle. This module samples random valid parameter
sets, runs both families of checks plus the symplectic-metric preservation
test, and reports one row per check for the `verify` CLI subcommand: a dict
keyed in the CSV's column order. The sampler takes a branch by its CSV name,
"tms" (two-mode squeezing) or "bs" (beam splitter). The random sets' oracle
checks read no frequency, so they solve no form; the configured point's one
form gives its frequency-deviation rows. The random sets are read from
look-ahead blocks of the generator's raw 64-bit words.
"""
from __future__ import annotations

import cmath
import math
from collections.abc import Sequence

import numpy as np

from . import oracle
from .elementwise import cabs, cosh, hypot, py_max, square, stack, tanh
from .errors import NUMERICAL_DEGENERACY, TMS_UNSTABLE
from .oracle import METRIC_TOL
from .params import PhysicalParams, validate
from .second_stage import bs_couplings, tms_couplings
from .stage1 import Stage1Result, stage1_transform

IDENTITY_RTOL = 1e-10


# an attempt at a set reads at most ten words (one for both signs, eight
# doubles, a two-mode-squeezing set's hopping fraction); blocks are read ahead
_ATTEMPT_WORDS, _BLOCK_WORDS = 10, 1024


def random_valid_params(
    rng: np.random.Generator, branches: Sequence[str]
) -> dict[str, tuple[PhysicalParams, np.ndarray]]:
    """One random set per entry of `branches`, drawn in order, on which that
    branch's transformation exists; per branch drawn, the sets as one batch
    and their hopping fractions u (NaN for the beam-splitter branch).

    Detunings of either sign in [1, 100], drives up to 0.495|delta| (so the
    squeezing stays moderate and the exact identities are probed far from
    float cancellation), uniform phases, log-uniform g0. A set is redrawn
    where its squeezed frequencies nearly coincide (the label split
    omega_s1 - omega_s2 is then rounding), a two-mode-squeezing set also
    where their sum nearly cancels (it then carries only ~1e-11 relative
    accuracy) or lam2 vanishes. `validated` puts |J'| = 2*j_hop*|lam2| at
    the fraction u, inside (0.05, 0.95), of the stability interval
    (0, omega_s1+omega_s2).

    Each attempt reads two 32-bit draws, whose top bits are the signs as
    `rng.integers(2)` takes them, then eight doubles; an accepted
    two-mode-squeezing set reads one more double for u. So from a fresh
    generator the sets and the state after them are bit for bit those of one
    `rng.choice([-1.0, 1.0])` per sign and one `rng.uniform(low, high)`,
    `low + (high - low) * u`, per value. The words come from `random_raw`
    blocks, each no larger than the sets left can use, at most `_BLOCK_WORDS`:
    a double is `(w >> 11) * 2**-53`; a 32-bit draw takes the pending half
    word, else the low half of a fresh word, keeping its high half pending.
    At the end the state saved before the last block is restored with the
    reader's half word, and the words of that block that were used are read
    again. A bit generator with no half word (MT19937) raises TypeError.
    """
    bits = rng.bit_generator
    saved = bits.state
    if "has_uint32" not in saved:
        raise TypeError(f"{saved['bit_generator']} keeps no half word (PCG64 does)")
    pending, half = saved["has_uint32"], saved["uinteger"]
    drawn = {branch: [] for branch in branches}
    words = []  # each word as its double
    i = tail = 0  # the next word of the block, the words it kept from the last one
    for k, branch in enumerate(branches):
        tms = branch == "tms"
        while True:
            if len(words) - i < _ATTEMPT_WORDS:
                saved, tail = bits.state, len(words) - i
                size = min(_BLOCK_WORDS, _ATTEMPT_WORDS * (len(branches) - k))
                words = words[i:] + ((bits.random_raw(size) >> 11) * 2.0**-53).tolist()
                i = 0
            # a double keeps the top 53 bits of its word: bit 31 is bit 20 there
            top = int(words[i] * 2.0**53)
            s1, s2 = (half >> 31, (top >> 20) & 1) if pending else ((top >> 20) & 1, top >> 52)
            half = top >> 21
            m1, m2, u1, u2, uj, ug, up1, up2 = words[i + 1:i + 9]
            i += 9
            d1 = (-1.0, 1.0)[s1] * (1.0 + (100.0 - 1.0) * m1)
            d2 = (-1.0, 1.0)[s2] * (1.0 + (100.0 - 1.0) * m2)
            lambda1 = 0.0 + (0.495 * abs(d1) - 0.0) * u1
            lambda2 = 0.0 + (0.495 * abs(d2) - 0.0) * u2
            # r_d and omega_s of each cavity, as stage1_transform computes them
            a1, a2 = d1 - 2.0 * lambda1, d2 - 2.0 * lambda2
            r1 = 0.25 * math.log((d1 + 2.0 * lambda1) / a1)
            r2 = 0.25 * math.log((d2 + 2.0 * lambda2) / a2)
            w1, w2 = a1 * math.exp(2.0 * r1), a2 * math.exp(2.0 * r2)
            near = 0.01 * max(1.0, abs(w1) + abs(w2))
            if abs(w1 - w2) < near:
                continue
            phi_d1 = 0.0 + (2.0 * math.pi - 0.0) * up1
            phi_d2 = 0.0 + (2.0 * math.pi - 0.0) * up2
            u = math.nan
            if tms:
                if w1 + w2 < near:
                    continue
                lam2 = (math.cosh(r1) * math.sinh(r2) * cmath.exp(1j * phi_d2)
                        + math.sinh(r1) * math.cosh(r2) * cmath.exp(1j * phi_d1))
                if abs(lam2) < 1e-9:
                    continue
                u = 0.05 + (0.95 - 0.05) * words[i]
                i += 1
            drawn[branch].append((
                d1, d2, lambda1, lambda2, 0.0 + (2.0 - 0.0) * uj,
                10.0 ** (-4.0 + (-1.0 - -4.0) * ug), 0.05, 0.001, phi_d1, phi_d2, 1.0, u,
            ))
            break
    if words:
        saved.update(has_uint32=pending, uinteger=half)
        bits.state = saved
        bits.random_raw(i - tail)
    # one row per field of PhysicalParams, in field order, then u
    columns = {b: np.array(rows).reshape(-1, 12).T.copy() for b, rows in drawn.items()}
    return {b: (PhysicalParams(*c[:-1]), c[-1]) for b, c in columns.items()}


def random_branch_params(rng: np.random.Generator, branch: str) -> tuple[PhysicalParams, float]:
    """One `random_valid_params` set of `branch`, as floats, and its u."""
    sets, u = random_valid_params(rng, [branch])[branch]
    return PhysicalParams(**{k: v.item() for k, v in vars(sets).items()}), u.item()


def validated(
    branch: str, sets: PhysicalParams, u: np.ndarray
) -> tuple[PhysicalParams, Stage1Result]:
    """Sets drawn by `random_valid_params` as one validated batch and its
    stage 1 result; two-mode-squeezing sets get their rescaled hopping."""
    vp = validate(sets)
    s = stage1_transform(vp)
    if branch == "tms":
        vp = vp.replace(j_hop=u * s.omega_sum / (2.0 * cabs(s.lam2)))
    return vp, s


def random_sets(
    rng: np.random.Generator, branch: str, n: int
) -> tuple[PhysicalParams, Stage1Result]:
    """n random sets of `branch`, drawn one after another, as one batch."""
    drawn = random_valid_params(rng, [branch] * n).get(branch)
    return validated(branch, *(drawn or (stack(PhysicalParams, []), np.empty(0))))


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
) -> list[dict]:
    """All checks at the configured point (a batch of one) plus `n_random`
    random sets per branch.

    Each phase draws its sets in one `random_valid_params` call, so the
    random stream is read in a fixed order: the identity sets of both
    branches alternately, then the oracle sets of each branch. Each family
    of checks then runs once on the batch of a branch.
    """
    rng = np.random.default_rng(seed)
    rows: list[dict] = []

    def add(check: str, err: float, tol: float, detail: str = "", status: str | None = None):
        if status is None:  # pass / fail / info
            status = "pass" if err <= tol else "fail"
        rows.append({"check": check, "status": status, "max_error": err, "tolerance": tol,
                     "detail": detail})

    # --- exact identities on random sets ------------------------------------
    drawn = random_valid_params(rng, ["tms", "bs"] * n_random)
    if n_random:
        errors = {
            **_identity_errors_tms(*validated("tms", *drawn["tms"])),
            **_identity_errors_bs(*validated("bs", *drawn["bs"])),
        }
        for name, err in sorted(errors.items()):
            add(f"identity[{name}]", _worst(err), IDENTITY_RTOL, f"{n_random} random sets")

    # --- oracle agreement: the two defects, no form to solve ------------------
    for label, couplings in (("tms", tms_couplings), ("bs", bs_couplings)):
        sets, stage1 = random_sets(rng, label, n_random)
        coeff, metric = oracle.rwa_error_report(sets, stage1, [couplings(stage1, sets)])
        add(f"oracle_coefficients[{label}]", _worst(coeff), oracle_rtol, f"{n_random} random sets")
        add(f"symplectic_metric[{label}]", _worst(metric), METRIC_TOL, f"{n_random} random sets")

    # --- the configured point: both branches, one oracle batch, one form -----
    s = stage1_transform(vp)
    freqs = oracle.symplectic_frequencies(oracle.build_photonic_form(vp))
    unpaired = "" if freqs.paired.item() else (
        f"exact frequencies cannot be paired here ({NUMERICAL_DEGENERACY})")
    couplings = {"tms": tms_couplings(s, vp), "bs": bs_couplings(s, vp)}
    defects = zip(*oracle.rwa_error_report(vp, s, list(couplings.values())))
    for (label, c), (coeff, metric) in zip(couplings.items(), defects):
        unchecked = (label == "tms" and math.isnan(c.r.item())
                     and f"branch transformation undefined here ({TMS_UNSTABLE})") or unpaired
        if unchecked:
            add(f"config_point[{label}]", math.nan, math.nan, unchecked, status="info")
            continue
        add(f"config_point_coefficients[{label}]", coeff.item(), oracle_rtol)
        add(f"config_point_metric[{label}]", metric.item(), METRIC_TOL)
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


def all_passed(rows: list[dict]) -> bool:
    return all(r["status"] != "fail" for r in rows)
