"""Rotating-wave validity bookkeeping shared by both branches of `second_stage`.

Each retained interaction term oscillates at some frequency mismatch; the
term is negligible (or safely kept) only if its coupling magnitude is small
against that mismatch. A mismatch below `resonance_floor` is not a validity
ratio at all but a frequency-matching working point, and is flagged as such
instead of producing a huge ratio.

A report holds each quantity as one `(6, N)` array: a row per term, in the
order of `TERMS`, and a column per point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elementwise import cabs, div
from .params import PipelineOptions
from .regime import TERMS  # the rows of a report


@dataclass(frozen=True)
class ValidityReport:
    coupling_abs: np.ndarray
    gap: np.ndarray            # min over sign choices of the frequency mismatch
    ratio: np.ndarray          # coupling_abs / gap; +inf on a resonance hit
    resonance_hit: np.ndarray  # gap below the resonance floor

    @property
    def any_resonance(self) -> np.ndarray:
        return self.resonance_hit.any(axis=0)

    @property
    def max_ratio(self) -> np.ndarray:
        """max() over the ratios of the terms without a resonance hit, in the
        order of TERMS; 0 where every term hits. As max(): a NaN first
        candidate stays, a later NaN never wins, and of equal maxima the
        first is kept (-0.0 before 0.0)."""
        ratio, hit = self.ratio, self.resonance_hit
        points = np.arange(ratio.shape[1])
        first = hit.argmin(axis=0)  # the first candidate; 0 where every term hits
        # argmax takes the first NaN, else the first maximum: a hit and a later NaN lose
        lose = hit | np.isnan(ratio)
        lose[first, points] = False
        best = np.where(lose, -math.inf, ratio)
        return np.where(hit[first, points], 0.0, best[best.argmax(axis=0), points])


def rwa_validity(
    c,
    omega_m: float = 1.0,
    resonance_floor: float = PipelineOptions.resonance_floor,
) -> ValidityReport:
    """Ratios for every interaction term kept or dropped around a branch.

    `c` is the `second_stage` TmsCouplings or BsCouplings of either branch;
    both share the coupling shape (w1, w2, g1, g2, g11, g22, g12, gp12).
    Radiation-pressure terms G_j A_j^dag A_j (b^dag + b) oscillate only via
    the mechanical sideband, so their scale is omega_m itself. Parametric
    terms G_jk A_j A_k beat at W_j + W_k -/+ omega_m, and the three-mode term
    G_p12 A_1^dag A_2 at W_1 - W_2 -/+ omega_m. For the beam-splitter branch
    a resonance hit on the gp12 term marks the triple-resonance working
    point of the phonon laser rather than a validity failure.
    """
    w1, w2, n = c.w1, c.w2, len(c.w1)
    beats = np.array((2 * w1, 2 * w2, w1 + w2, w1 - w2))
    below, above = abs(beats - omega_m), abs(beats + omega_m)
    gap = np.empty((6, n))
    # as min(): keep the first of equal gaps
    gap[:2], gap[2:] = abs(omega_m), np.where(above < below, above, below)
    parametric = cabs(np.concatenate((c.g11, c.g22, c.g12, c.gp12)))
    coupling_abs = np.concatenate((c.g1, c.g2, parametric)).reshape(6, n)
    hit = gap < resonance_floor
    return ValidityReport(
        coupling_abs=coupling_abs,
        gap=gap,
        ratio=div(coupling_abs, gap, hit, math.inf),
        resonance_hit=hit,
    )
