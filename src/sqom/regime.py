"""Regime discriminants and second-stage branch selection.

f1 compares the pair (squeezing) hopping term against the coherent one,
weighted by their rotating-frame detunings: the pair term oscillates at
omega_s1 + omega_s2, the coherent one at omega_s1 - omega_s2. Large f1 keeps
the pair term (two-mode-squeezing branch); small f1 keeps the coherent term
(beam-splitter branch). f2 is the stability margin of the two-mode-squeezing
stage.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .elementwise import cabs, div

if TYPE_CHECKING:  # params takes the threshold defaults from here
    from .params import ValidatedParams
    from .stage1 import Stage1Result

F1_HI_DEFAULT = 10.0
F1_LO_DEFAULT = 0.1


class Branch(enum.Enum):
    TWO_MODE_SQUEEZING = "tms"
    BEAM_SPLITTER = "bs"
    INTERMEDIATE = "intermediate"


@dataclass(frozen=True)
class RegimeReport:
    f1: float
    f2: float
    branch: Branch
    # f1 is reported as +inf with this flag set when its denominator
    # vanishes (omega_s1 + omega_s2 = 0); |lam1| >= 1 always, so the
    # hopping factor itself can never degenerate.
    f1_degenerate: bool = False


def classify(
    s: Stage1Result,
    p: ValidatedParams,
    f1_hi: float = F1_HI_DEFAULT,
    f1_lo: float = F1_LO_DEFAULT,
) -> RegimeReport:
    """Compute f1, f2 and pick the applicable rotating-wave branch.

    The thresholds default to the equipotential levels used to delimit the
    two validity regions; the band in between is reported as INTERMEDIATE,
    a first-class outcome (both branches can still be evaluated there, each
    carrying its own validity ratios). `branch` is an object array of Branch
    members.
    """
    lam2_abs = cabs(s.lam2)
    num = lam2_abs * abs(s.omega_diff)
    den = cabs(s.lam1) * abs(s.omega_sum)
    degenerate = den == 0.0
    f1 = div(num, den, degenerate, math.inf)
    f2 = abs(s.omega_sum) - 2.0 * p.j_hop * lam2_abs

    branch = np.where(
        (f1 >= f1_hi) & (f2 > 0.0),
        Branch.TWO_MODE_SQUEEZING,
        np.where(f1 <= f1_lo, Branch.BEAM_SPLITTER, Branch.INTERMEDIATE),
    )
    return RegimeReport(f1=f1, f2=f2, branch=branch, f1_degenerate=degenerate)
