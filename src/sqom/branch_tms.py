"""Second stage, two-mode-squeezing branch (f1 >> 1).

The retained pair term -(J'/2) a_s1 a_s2 + h.c. (J' = 2 j_hop * lam2) is
absorbed by the two-mode Bogoliubov rotation

    a_sj = cosh(r) A_j + e^{-i Phi} sinh(r) A_k^dag   (j != k),

with Phi = arg(J') and r = (1/4) ln[(S+|J'|)/(S-|J'|)], S = omega_s1+omega_s2.
Note the + sign on the sinh term: with the pair coupling written as
-(J'/2) a_s1 a_s2, the rotation phase that actually cancels the pair term is
arg(-J') = Phi + pi, which we fold into the sign. The exact-conjugation oracle
pins this convention, and the constant c_prime below only comes out right
with it.

The stage exists only for S > |J'|; S <= 0 is rejected rather than
analytically continued (the log form would give r < 0 there, a regime with
no physical anchor in this model). A point outside it (TmsUnstable in the sweep's
tms_error column) comes back with r = NaN, and NaN in every coupling derived
from r.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .elementwise import cabs, cis, cosh, div, log, phase, rmul, sinh
from .params import ValidatedParams
from .stage1 import Stage1Result
from .validity import rwa_validity as rwa_validity_tms  # noqa: F401 (public name)


@dataclass(frozen=True)
class TmsCouplings:
    """Effective Hamiltonian coefficients in the doubly-squeezed frame.

    The Hamiltonian reads (with n_j = A_j^dag A_j, x_b = b^dag + b):

        sum_j W_j n_j - sum_j G_j n_j x_b
        + [(g11 A_1^2 + g22 A_2^2 + g12 A_1 A_2) + h.c.] x_b
        - (gp12 A_1^dag A_2 + h.c.) x_b
        - (f_disp + f_prime) x_b + c_const + c_prime.
    """

    r: float
    phi_big: float
    j_prime: complex
    w1: float
    w2: float
    g1: float
    g2: float
    g11: complex
    g22: complex
    g12: complex
    gp12: complex
    f_prime: float
    c_prime: float
    eta: float


def tms_couplings(s: Stage1Result, p: ValidatedParams) -> TmsCouplings:
    """Two-mode-squeezing supermode frequencies and optomechanical couplings.

    A point with omega_s1 + omega_s2 <= |J'| (which includes every case with
    omega_s1 + omega_s2 <= 0) is unstable: its r and couplings are NaN.
    """
    j_prime = rmul(2.0 * p.j_hop, s.lam2)
    jp = cabs(j_prime)
    s_sum = s.omega_sum
    unstable = ~(s_sum > jp)

    phi = phase(j_prime)
    r = 0.25 * log(div(s_sum + jp, s_sum - jp, unstable, math.nan))
    ch, sh = cosh(r), sinh(r)
    half_sh2 = sh * ch  # sinh(2r)/2

    w1 = s.omega_s1 * ch * ch + s.omega_s2 * sh * sh - jp * half_sh2
    w2 = s.omega_s2 * ch * ch + s.omega_s1 * sh * sh - jp * half_sh2

    ch2rd2 = cosh(2.0 * s.r_d2)
    sh2rd2 = sinh(2.0 * s.r_d2)
    g0 = p.g0

    g1 = g0 * ch2rd2 * sh * sh
    g2 = g0 * ch2rd2 * ch * ch
    # The signs of g12 and gp12 carry the arg(-J') fold of the rotation;
    # their magnitudes satisfy |g12|^2 = g1*g2 and |gp12| = |tanh(2 r_d2)|*|g12|.
    g12 = rmul(-g0 * ch2rd2 * sh * ch, cis(phi))
    g11 = rmul(g0 * sh2rd2 * sh * sh * 0.5, cis(2.0 * phi - p.phi_d2))
    g22 = rmul(g0 * sh2rd2 * ch * ch * 0.5, cis(p.phi_d2))
    gp12 = rmul(-g0 * sh2rd2 * sh * ch, cis(p.phi_d2 - phi))

    f_prime = g0 * ch2rd2 * sh * sh
    c_prime = s_sum * sh * sh - jp * sh * ch
    return TmsCouplings(
        r=r,
        phi_big=phi,
        j_prime=j_prime,
        w1=w1,
        w2=w2,
        g1=g1,
        g2=g2,
        g11=g11,
        g22=g22,
        g12=g12,
        gp12=gp12,
        f_prime=f_prime,
        c_prime=c_prime,
        eta=div(g1, g2, unstable, math.nan),  # 0/0 = NaN for g0 = 0
    )

