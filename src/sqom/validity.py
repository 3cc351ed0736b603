"""Rotating-wave validity bookkeeping shared by both second-stage branches.

Each retained interaction term oscillates at some frequency mismatch; the
term is negligible (or safely kept) only if its coupling magnitude is small
against that mismatch. A mismatch below `resonance_floor` is not a validity
ratio at all but a frequency-matching working point, and is flagged as such
instead of producing a huge ratio.

Like the couplings they are built from, the ratios and flags are arrays over
the points.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .elementwise import cabs, div

RESONANCE_FLOOR_DEFAULT = 1e-9


@dataclass(frozen=True)
class RwaTerm:
    name: str
    coupling_abs: float
    gap: float           # min over sign choices of the frequency mismatch
    ratio: float         # coupling_abs / gap; +inf on a resonance hit
    resonance_hit: bool  # gap below the resonance floor


@dataclass(frozen=True)
class ValidityReport:
    terms: tuple[RwaTerm, ...]

    @property
    def any_resonance(self) -> bool:
        return reduce(operator.or_, (t.resonance_hit for t in self.terms))

    @property
    def max_ratio(self) -> float:
        """Largest ratio over the terms without a resonance hit, 0 if none."""
        best, seen = 0.0, np.False_
        for t in self.terms:
            # as max(): the first candidate, then any strictly larger one
            take = ~t.resonance_hit & (~seen | (t.ratio > best))
            best = np.where(take, t.ratio, best)
            seen = seen | ~t.resonance_hit
        return best

    def term(self, name: str) -> RwaTerm:
        for t in self.terms:
            if t.name == name:
                return t
        raise KeyError(name)


def make_term(name: str, coupling_abs: float, gaps: list[float], resonance_floor: float) -> RwaTerm:
    gap = abs(gaps[0])
    for g in gaps[1:]:
        # as min(): keep the first of equal gaps
        gap = np.where(abs(g) < gap, abs(g), gap)
    hit = gap < resonance_floor
    ratio = div(coupling_abs, gap, hit, math.inf)
    return RwaTerm(name=name, coupling_abs=coupling_abs, gap=gap, ratio=ratio, resonance_hit=hit)


def rwa_validity(
    c,
    omega_m: float = 1.0,
    resonance_floor: float = RESONANCE_FLOOR_DEFAULT,
) -> ValidityReport:
    """Ratios for every interaction term kept or dropped around a branch.

    `c` is the TmsCouplings or BsCouplings of either branch; both share the
    coupling shape (w1, w2, g1, g2, g11, g22, g12, gp12). Radiation-pressure
    terms G_j A_j^dag A_j (b^dag + b) oscillate only via the mechanical
    sideband, so their scale is omega_m itself. Parametric terms
    G_jk A_j A_k beat at W_j + W_k -/+ omega_m, and the three-mode term
    G_p12 A_1^dag A_2 at W_1 - W_2 -/+ omega_m. For the beam-splitter branch
    a resonance hit on the gp12 term marks the triple-resonance working
    point of the phonon laser rather than a validity failure.
    """
    w1, w2, floor = c.w1, c.w2, resonance_floor
    return ValidityReport(terms=(
        make_term("g1", c.g1, [omega_m], floor),
        make_term("g2", c.g2, [omega_m], floor),
        make_term("g11", cabs(c.g11), [2 * w1 - omega_m, 2 * w1 + omega_m], floor),
        make_term("g22", cabs(c.g22), [2 * w2 - omega_m, 2 * w2 + omega_m], floor),
        make_term("g12", cabs(c.g12), [w1 + w2 - omega_m, w1 + w2 + omega_m], floor),
        make_term("gp12", cabs(c.gp12), [w1 - w2 - omega_m, w1 - w2 + omega_m], floor),
    ))
