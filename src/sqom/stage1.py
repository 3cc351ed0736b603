"""First transformation stage: single-mode squeezing of each driven cavity.

Each cavity's parametric drive is absorbed by a Bogoliubov rotation
a_j = cosh(r_dj) a_sj - e^{-i phi_dj} sinh(r_dj) a_sj^dag, which diagonalizes
the photonic part cavity by cavity. The photon hopping then reappears as a
coherent term lam1 * a_s1 a_s2^dag + h.c. and a pair term
-lam2 * a_s1 a_s2 + h.c. (times j_hop), and the radiation-pressure coupling
splits into an enhanced number coupling g_s2, an induced single-mode
parametric coupling g_p2, a displacement force -f_disp and a constant c_const.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .elementwise import cis, cosh, div, exp, log, rmul, sinh
from .params import ValidatedParams


@dataclass(frozen=True)
class Stage1Result:
    """Every coefficient of the singly-squeezed frame."""

    r_d1: float
    r_d2: float
    omega_s1: float
    omega_s2: float
    g_s2: float
    g_p2: float
    lam1: complex
    lam2: complex
    f_disp: float
    c_const: float

    @property
    def omega_sum(self) -> float:
        return self.omega_s1 + self.omega_s2

    @property
    def omega_diff(self) -> float:
        return self.omega_s1 - self.omega_s2


def squeeze_param(delta: float, lambda_amp: float) -> float:
    """Single-mode squeezing parameter r_d = (1/4) ln[(delta+2L)/(delta-2L)].

    Defined for |delta| > 2*lambda_amp; the log argument is then strictly
    positive for either sign of delta, and sign(r_d) = sign(delta) whenever
    lambda_amp > 0. An unstable point (validate's Stage1Unstable) gives NaN.
    """
    unstable = ~(abs(delta) > 2.0 * lambda_amp)
    ratio = div(delta + 2.0 * lambda_amp, delta - 2.0 * lambda_amp, unstable, math.nan)
    return 0.25 * log(ratio)


def stage1_transform(p: ValidatedParams) -> Stage1Result:
    """Apply the per-cavity squeezing transformation and collect coefficients.

    The transformed frequencies use the defining relation
    omega_sj = (delta_j - 2*lambda_j) * exp(2 r_dj), which equals
    sign(delta_j) * sqrt(delta_j^2 - 4 lambda_j^2); a negative detuning
    therefore yields a negative omega_sj, which downstream stages consume
    as a signed value.
    """
    r_d1 = squeeze_param(p.delta1, p.lambda1)
    r_d2 = squeeze_param(p.delta2, p.lambda2)
    omega_s1 = (p.delta1 - 2.0 * p.lambda1) * exp(2.0 * r_d1)
    omega_s2 = (p.delta2 - 2.0 * p.lambda2) * exp(2.0 * r_d2)

    c1, s1 = cosh(r_d1), sinh(r_d1)
    c2, s2 = cosh(r_d2), sinh(r_d2)

    # cosh(2r) and sinh(2r)/2 forms; robust for delta2 < 0 where the
    # closed form g0*delta2/sqrt(delta2^2-4*lambda2^2) flips sign.
    g_s2 = p.g0 * (s2 * s2 + c2 * c2)
    g_p2 = p.g0 * c2 * s2

    e1 = cis(p.phi_d1)
    e2 = cis(p.phi_d2)
    lam1 = c1 * c2 + rmul(s1 * s2, cis(p.phi_d1 - p.phi_d2))
    lam2 = rmul(c1 * s2, e2) + rmul(s1 * c2, e1)

    f_disp = p.g0 * s2 * s2
    c_const = (
        p.delta1 * s1 * s1
        - 2.0 * p.lambda1 * c1 * s1
        + p.delta2 * s2 * s2
        - 2.0 * p.lambda2 * c2 * s2
    )
    return Stage1Result(
        r_d1=r_d1,
        r_d2=r_d2,
        omega_s1=omega_s1,
        omega_s2=omega_s2,
        g_s2=g_s2,
        g_p2=g_p2,
        lam1=lam1,
        lam2=lam2,
        f_disp=f_disp,
        c_const=c_const,
    )
