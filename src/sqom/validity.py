"""Rotating-wave validity bookkeeping shared by both second-stage branches.

Each retained interaction term oscillates at some frequency mismatch; the
term is negligible (or safely kept) only if its coupling magnitude is small
against that mismatch. A mismatch below `resonance_floor` is not a validity
ratio at all but a frequency-matching working point, and is flagged as such
instead of producing a huge ratio.

Like the couplings they are built from, the ratios and flags are bools and
floats for one point, or arrays over many points.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

from .elementwise import ops

SMALLNESS_DEFAULT = 0.1
RESONANCE_FLOOR_DEFAULT = 1e-9


@dataclass(frozen=True)
class RwaTerm:
    name: str
    coupling_abs: float
    gap: float           # min over sign choices of the frequency mismatch
    ratio: float         # coupling_abs / gap; +inf on a resonance hit
    small: bool          # ratio below the smallness threshold
    resonance_hit: bool  # gap below the resonance floor


@dataclass(frozen=True)
class ValidityReport:
    terms: tuple[RwaTerm, ...]
    smallness: float
    resonance_floor: float

    @property
    def all_small(self) -> bool:
        return reduce(operator.and_, (t.small | t.resonance_hit for t in self.terms))

    @property
    def any_resonance(self) -> bool:
        return reduce(operator.or_, (t.resonance_hit for t in self.terms))

    @property
    def max_ratio(self) -> float:
        """Largest ratio over the terms without a resonance hit, 0 if none."""
        xp = ops(self.terms[0].ratio)
        best, seen = 0.0, False
        for t in self.terms:
            # as max(): the first candidate, then any strictly larger one
            take = xp.not_(t.resonance_hit) & (xp.not_(seen) | (t.ratio > best))
            best = xp.where(take, t.ratio, best)
            seen = seen | xp.not_(t.resonance_hit)
        return best

    def term(self, name: str) -> RwaTerm:
        for t in self.terms:
            if t.name == name:
                return t
        raise KeyError(name)


def make_term(
    name: str,
    coupling_abs: float,
    gaps: list[float],
    smallness: float,
    resonance_floor: float,
) -> RwaTerm:
    xp = ops(coupling_abs)
    gap = abs(gaps[0])
    for g in gaps[1:]:
        # as min(): keep the first of equal gaps
        gap = xp.where(abs(g) < gap, abs(g), gap)
    hit = gap < resonance_floor
    ratio = xp.div(coupling_abs, gap, hit, math.inf)
    return RwaTerm(
        name=name,
        coupling_abs=coupling_abs,
        gap=gap,
        ratio=ratio,
        small=xp.not_(hit) & (ratio <= smallness),
        resonance_hit=hit,
    )


def build_report(
    w1: float,
    w2: float,
    omega_m: float,
    g1: float,
    g2: float,
    g11_abs: float,
    g22_abs: float,
    g12_abs: float,
    gp12_abs: float,
    smallness: float = SMALLNESS_DEFAULT,
    resonance_floor: float = RESONANCE_FLOOR_DEFAULT,
) -> ValidityReport:
    """Ratios for every interaction term of the effective Hamiltonian.

    Radiation-pressure terms G_j A_j^dag A_j (b^dag + b) oscillate only via
    the mechanical sideband, so their scale is omega_m itself. Parametric
    terms G_jk A_j A_k beat at W_j + W_k -/+ omega_m, and the three-mode term
    G_p12 A_1^dag A_2 at W_1 - W_2 -/+ omega_m.
    """
    terms = (
        make_term("g1", g1, [omega_m], smallness, resonance_floor),
        make_term("g2", g2, [omega_m], smallness, resonance_floor),
        make_term("g11", g11_abs, [2 * w1 - omega_m, 2 * w1 + omega_m], smallness, resonance_floor),
        make_term("g22", g22_abs, [2 * w2 - omega_m, 2 * w2 + omega_m], smallness, resonance_floor),
        make_term("g12", g12_abs, [w1 + w2 - omega_m, w1 + w2 + omega_m], smallness, resonance_floor),
        make_term("gp12", gp12_abs, [w1 - w2 - omega_m, w1 - w2 + omega_m], smallness, resonance_floor),
    )
    return ValidityReport(terms=terms, smallness=smallness, resonance_floor=resonance_floor)


def rwa_validity(
    c,
    omega_m: float = 1.0,
    smallness: float = SMALLNESS_DEFAULT,
    resonance_floor: float = RESONANCE_FLOOR_DEFAULT,
) -> ValidityReport:
    """Smallness ratios for every term kept or dropped around a branch.

    `c` is the TmsCouplings or BsCouplings of either branch; both share the
    coupling shape (w1, w2, g1, g2, g11, g22, g12, gp12). For the
    beam-splitter branch a resonance hit on the gp12 term marks the
    triple-resonance working point of the phonon laser rather than a
    validity failure.
    """
    cabs = ops(c.w1).cabs
    return build_report(
        w1=c.w1,
        w2=c.w2,
        omega_m=omega_m,
        g1=c.g1,
        g2=c.g2,
        g11_abs=cabs(c.g11),
        g22_abs=cabs(c.g22),
        g12_abs=cabs(c.g12),
        gp12_abs=cabs(c.gp12),
        smallness=smallness,
        resonance_floor=resonance_floor,
    )
