"""Second stage: the rotation that follows the stage-1 squeezing.

The retained coupling between the squeezed modes, with J' = 2 j_hop * lam
and Phi = arg(J'), is removed by one of two rotations. Both are written with
a cosine-like c and a sine-like s, and share the frame rows (the fields of
`BranchCouplings`, which `TmsCouplings` and `BsCouplings` extend)

    W_1 = omega_s1 c^2 + omega_s2 s^2 - |J'| s c,
    W_2 = omega_s2 c^2 + omega_s1 s^2 -/+ |J'| s c    (- TMS, + BS),
    G_1 = g0 cosh(2 r_d2) s^2,    G_2 = g0 cosh(2 r_d2) c^2.

Two-mode-squeezing branch (TMS, f1 >> 1). The retained pair term
-(J'/2) a_s1 a_s2 + h.c. (J' = 2 j_hop * lam2) is absorbed by the two-mode
Bogoliubov rotation (c = cosh(r), s = sinh(r))

    a_sj = cosh(r) A_j + e^{-i Phi} sinh(r) A_k^dag   (j != k),

with r = (1/4) ln[(S+|J'|)/(S-|J'|)], S = omega_s1+omega_s2.
Note the + sign on the sinh term: with the pair coupling written as
-(J'/2) a_s1 a_s2, the rotation phase that actually cancels the pair term is
arg(-J') = Phi + pi, which we fold into the sign. The exact-conjugation oracle
pins this convention, and the constant c_prime below only comes out right
with it.

The TMS stage exists only for S > |J'|; S <= 0 is rejected rather than
analytically continued (the log form would give r < 0 there, a regime with
no physical anchor in this model). A point outside it (TmsUnstable in the sweep's
tms_error column) comes back with r = NaN, and NaN in every coupling derived
from r.

Beam-splitter branch (BS, f1 << 1). The retained coherent term
(J'/2) a_s1 a_s2^dag + h.c. (J' = 2 j_hop * lam1) is removed by the unitary
mixing (c = cos(theta/2), s = sin(theta/2))

    a_s1 = cos(theta/2) A_1 + e^{-i Phi} sin(theta/2) A_2,
    a_s2 = cos(theta/2) A_2 - e^{i Phi} sin(theta/2) A_1,

with tan(theta) = |J'| / (omega_s2 - omega_s1). The mixing
angle is taken on the principal branch theta in (-pi/2, pi/2], so that each
supermode A_j continues its parent mode a_sj adiabatically: W_1 - W_2 then
carries the sign of omega_s1 - omega_s2, and the avoided-crossing identity
|W_1 - W_2| = sqrt((omega_s1-omega_s2)^2 + |J'|^2) holds. (The opposite
branch of the arctangent merely swaps the two supermode labels.) Mixing is
unitary, so this stage has no stability precondition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elementwise import atan2, cabs, cis, cis_neg, cos, cosh, div, log, phase, rmul, sin, sinh
from .params import PhysicalParams
from .stage1 import Stage1Result
from .validity import rwa_validity

# the names perfbench/tracing.py wraps in sweep, one per branch
rwa_validity_tms = rwa_validity_bs = rwa_validity


@dataclass(frozen=True)
class BranchCouplings:
    """The frame rows and optomechanical couplings both branches share.

    With n_j = A_j^dag A_j and x_b = b^dag + b, either branch's Hamiltonian
    holds

        sum_j W_j n_j - sum_j G_j n_j x_b
        + [(g11 A_1^2 + g22 A_2^2 + g12 A_1 A_2) + h.c.] x_b
        -/+ (gp12 A_1^dag A_2 + h.c.) x_b    (- TMS, + BS)

    plus the branch's own scalar terms, with j_prime = J' and phi = arg(J').
    """

    phi: float
    j_prime: complex
    w1: float
    w2: float
    g1: float
    g2: float
    g11: complex
    g22: complex
    g12: complex
    gp12: complex


@dataclass(frozen=True)
class TmsCouplings(BranchCouplings):
    """The doubly-squeezed frame: rotation r, scalar terms
    -(f_disp + f_prime) x_b + c_const + c_prime, and eta = g1 / g2."""

    r: float
    f_prime: float
    c_prime: float
    eta: float


@dataclass(frozen=True)
class BsCouplings(BranchCouplings):
    """The supermode frame: mixing angle theta, scalar terms
    -f_disp x_b + c_const. gp12 hosts the triply-resonant phonon-laser
    interaction when W_1 - W_2 matches omega_m."""

    theta: float


def _j_prime(p: PhysicalParams, lam):
    """J' = 2 j_hop * lam, |J'| and Phi = arg(J')."""
    j_prime = rmul(2.0 * p.j_hop, lam)
    return j_prime, cabs(j_prime), phase(j_prime)


def _frame(s: Stage1Result, p: PhysicalParams, jp, ch, sh):
    """The rows both rotations share, for cosine-like `ch` and sine-like `sh`:
    W_1, W_2 before its hopping term, that term |J'| sh ch, G_1, G_2, and
    cosh and sinh of 2 r_d2."""
    hop = jp * (sh * ch)
    w1 = s.omega_s1 * ch * ch + s.omega_s2 * sh * sh - hop
    w2_bare = s.omega_s2 * ch * ch + s.omega_s1 * sh * sh
    two_rd2 = 2.0 * s.r_d2
    ch2rd2, sh2rd2 = cosh(two_rd2), sinh(two_rd2)
    g1 = p.g0 * ch2rd2 * sh * sh
    g2 = p.g0 * ch2rd2 * ch * ch
    return w1, w2_bare, hop, g1, g2, ch2rd2, sh2rd2


def tms_couplings(s: Stage1Result, p: PhysicalParams) -> TmsCouplings:
    """Two-mode-squeezing supermode frequencies and optomechanical couplings.

    A point with omega_s1 + omega_s2 <= |J'| (which includes every case with
    omega_s1 + omega_s2 <= 0) is unstable: its r and couplings are NaN.
    """
    j_prime, jp, phi = _j_prime(p, s.lam2)
    s_sum = s.omega_sum
    unstable = ~(s_sum > jp)
    r = 0.25 * log(div(s_sum + jp, s_sum - jp, unstable, math.nan))
    ch, sh = cosh(r), sinh(r)
    w1, w2_bare, hop, g1, g2, ch2rd2, sh2rd2 = _frame(s, p, jp, ch, sh)
    g0 = p.g0
    return TmsCouplings(
        r=r,
        phi=phi,
        j_prime=j_prime,
        w1=w1,
        w2=w2_bare - hop,
        g1=g1,
        g2=g2,
        g11=rmul(g0 * sh2rd2 * sh * sh * 0.5, cis(2.0 * phi - p.phi_d2)),
        # not the BS spelling 0.5 * g0 * ...: the two round apart where g0 is subnormal
        g22=rmul(g0 * sh2rd2 * ch * ch * 0.5, cis(p.phi_d2)),
        # The signs of g12 and gp12 carry the arg(-J') fold of the rotation; their
        # magnitudes satisfy |g12|^2 = g1*g2 and |gp12| = |tanh(2 r_d2)|*|g12|.
        g12=rmul(-g0 * ch2rd2 * sh * ch, cis(phi)),
        gp12=rmul(-g0 * sh2rd2 * sh * ch, cis(p.phi_d2 - phi)),
        f_prime=g1,  # the same product, g0 * cosh(2 r_d2) * sinh(r)^2
        c_prime=s_sum * sh * sh - jp * sh * ch,
        eta=div(g1, g2, unstable, math.nan),  # 0/0 = NaN for g0 = 0
    )


def mixing_angle(j_prime_abs: float, omega_s1: float, omega_s2: float) -> float:
    """Principal-branch mixing angle; pi/2 at frequency degeneracy."""
    theta = atan2(j_prime_abs, omega_s2 - omega_s1)
    return np.where(theta > 0.5 * math.pi, theta - math.pi, theta)


def bs_couplings(s: Stage1Result, p: PhysicalParams) -> BsCouplings:
    """Beam-splitter supermode frequencies and optomechanical couplings."""
    j_prime, jp, phi = _j_prime(p, s.lam1)
    theta = mixing_angle(jp, s.omega_s1, s.omega_s2)
    ch, sh = cos(0.5 * theta), sin(0.5 * theta)
    w1, w2_bare, hop, g1, g2, ch2rd2, sh2rd2 = _frame(s, p, jp, ch, sh)
    g0 = p.g0
    sin_t = 2.0 * (sh * ch)
    return BsCouplings(
        theta=theta,
        phi=phi,
        j_prime=j_prime,
        w1=w1,
        w2=w2_bare + hop,
        g1=g1,
        g2=g2,
        g11=rmul(0.5 * g0 * sh2rd2 * sh * sh, cis(2.0 * phi + p.phi_d2)),
        g22=rmul(0.5 * g0 * sh2rd2 * ch * ch, cis(p.phi_d2)),
        g12=rmul(-0.5 * g0 * sh2rd2 * sin_t, cis(p.phi_d2 + phi)),
        gp12=rmul(0.5 * g0 * ch2rd2 * sin_t, cis_neg(phi)),
    )
