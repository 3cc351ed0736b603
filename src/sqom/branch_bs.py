"""Second stage, beam-splitter branch (f1 << 1).

The retained coherent term (J'/2) a_s1 a_s2^dag + h.c. (J' = 2 j_hop * lam1)
is removed by the unitary mixing

    a_s1 = cos(theta/2) A_1 + e^{-i Phi} sin(theta/2) A_2,
    a_s2 = cos(theta/2) A_2 - e^{i Phi} sin(theta/2) A_1,

with Phi = arg(J') and tan(theta) = |J'| / (omega_s2 - omega_s1). The mixing
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

from .elementwise import atan2, cabs, cis, cis_neg, cos, cosh, phase, rmul, sin, sinh
from .params import ValidatedParams
from .stage1 import Stage1Result
from .validity import rwa_validity as rwa_validity_bs  # noqa: F401 (public name)


@dataclass(frozen=True)
class BsCouplings:
    """Effective Hamiltonian coefficients in the supermode frame.

    The Hamiltonian reads (n_j = A_j^dag A_j, x_b = b^dag + b):

        sum_j W_j n_j - sum_j G_j n_j x_b
        + [(g11 A_1^2 + g22 A_2^2 + g12 A_1 A_2) + h.c.] x_b
        + (gp12 A_1^dag A_2 + h.c.) x_b - f_disp x_b + c_const.

    gp12 hosts the triply-resonant phonon-laser interaction when
    W_1 - W_2 matches omega_m.
    """

    theta: float
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


def mixing_angle(j_prime_abs: float, omega_s1: float, omega_s2: float) -> float:
    """Principal-branch mixing angle; pi/2 at frequency degeneracy."""
    theta = atan2(j_prime_abs, omega_s2 - omega_s1)
    return np.where(theta > 0.5 * math.pi, theta - math.pi, theta)


def bs_couplings(s: Stage1Result, p: ValidatedParams) -> BsCouplings:
    """Beam-splitter supermode frequencies and optomechanical couplings."""
    j_prime = rmul(2.0 * p.j_hop, s.lam1)
    jp = cabs(j_prime)
    phi = phase(j_prime)
    theta = mixing_angle(jp, s.omega_s1, s.omega_s2)
    ch, sh = cos(0.5 * theta), sin(0.5 * theta)
    half_sin = sh * ch  # sin(theta)/2
    sin_t = 2.0 * half_sin

    w1 = s.omega_s1 * ch * ch + s.omega_s2 * sh * sh - jp * half_sin
    w2 = s.omega_s2 * ch * ch + s.omega_s1 * sh * sh + jp * half_sin

    two_rd2 = 2.0 * s.r_d2
    ch2rd2, sh2rd2 = cosh(two_rd2), sinh(two_rd2)
    g0 = p.g0

    g1 = g0 * ch2rd2 * sh * sh
    g2 = g0 * ch2rd2 * ch * ch
    g12 = rmul(-0.5 * g0 * sh2rd2 * sin_t, cis(p.phi_d2 + phi))
    g11 = rmul(0.5 * g0 * sh2rd2 * sh * sh, cis(2.0 * phi + p.phi_d2))
    g22 = rmul(0.5 * g0 * sh2rd2 * ch * ch, cis(p.phi_d2))
    gp12 = rmul(0.5 * g0 * ch2rd2 * sin_t, cis_neg(phi))

    return BsCouplings(
        theta=theta,
        phi=phi,
        j_prime=j_prime,
        w1=w1,
        w2=w2,
        g1=g1,
        g2=g2,
        g11=g11,
        g22=g22,
        g12=g12,
        gp12=gp12,
    )

