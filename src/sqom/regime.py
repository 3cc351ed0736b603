"""Regime discriminants and second-stage branch selection.

f1 compares the pair (squeezing) hopping term against the coherent one,
weighted by their rotating-frame detunings: the pair term oscillates at
omega_s1 + omega_s2, the coherent one at omega_s1 - omega_s2. Large f1 keeps
the pair term (two-mode-squeezing branch); small f1 keeps the coherent term
(beam-splitter branch). f2 is the stability margin of the two-mode-squeezing
stage.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .elementwise import cabs, div
from .params import PhysicalParams, PipelineOptions

if TYPE_CHECKING:
    from .stage1 import Stage1Result

# the interaction terms of either second-stage branch, in the order of the
# rows of a validity report: two radiation-pressure terms, four parametric ones
TERMS = ("g1", "g2", "g11", "g22", "g12", "gp12")


# the branch names by code 0, 1, 2: each point's cell shares one of three str objects
_BRANCHES = np.array(("tms", "bs", "intermediate"), dtype=object)


@dataclass(frozen=True)
class RegimeReport:
    f1: float
    f2: float
    branch: np.ndarray  # "tms", "bs" or "intermediate", as the CSV's branch column
    # f1 is reported as +inf with this flag set when its denominator
    # vanishes (omega_s1 + omega_s2 = 0); |lam1| >= 1 always, so the
    # hopping factor itself can never degenerate.
    f1_degenerate: bool = False


def classify(
    s: Stage1Result,
    p: PhysicalParams,
    f1_hi: float = PipelineOptions.f1_hi,
    f1_lo: float = PipelineOptions.f1_lo,
) -> RegimeReport:
    """Compute f1, f2 and pick the applicable rotating-wave branch.

    The thresholds default to the equipotential levels used to delimit the
    two validity regions: "tms" (two-mode squeezing) where f1 >= f1_hi and
    f2 > 0, "bs" (beam splitter) where f1 <= f1_lo, "intermediate" elsewhere,
    a first-class outcome (both branches can still be evaluated there, each
    carrying its own validity ratios). `branch` is an object array of those
    `str` names, the cells of the CSV's branch column.
    """
    lam2_abs = cabs(s.lam2)
    num = lam2_abs * abs(s.omega_diff)
    den = cabs(s.lam1) * abs(s.omega_sum)
    degenerate = den == 0.0
    f1 = div(num, den, degenerate, math.inf)
    f2 = abs(s.omega_sum) - 2.0 * p.j_hop * lam2_abs

    branch = _BRANCHES[np.where((f1 >= f1_hi) & (f2 > 0.0), 0, np.where(f1 <= f1_lo, 1, 2))]
    return RegimeReport(f1=f1, f2=f2, branch=branch, f1_degenerate=degenerate)
