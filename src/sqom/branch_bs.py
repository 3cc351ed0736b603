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

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .elementwise import ops
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


def mixing_angle(j_prime_abs: float, omega_s1: float, omega_s2: float) -> float:
    """Principal-branch mixing angle; pi/2 at frequency degeneracy."""
    xp = ops(j_prime_abs)
    theta = xp.atan2(j_prime_abs, omega_s2 - omega_s1)
    return xp.where(theta > 0.5 * math.pi, theta - math.pi, theta)


def bs_couplings(s: Stage1Result, p: ValidatedParams) -> BsCouplings:
    """Beam-splitter supermode frequencies and optomechanical couplings."""
    xp = ops(p.j_hop)
    j_prime = xp.rmul(2.0 * p.j_hop, s.lam1)
    jp = xp.cabs(j_prime)
    phi = xp.phase(j_prime)
    theta = mixing_angle(jp, s.omega_s1, s.omega_s2)
    ch, sh = xp.cos(0.5 * theta), xp.sin(0.5 * theta)
    half_sin = sh * ch  # sin(theta)/2
    sin_t = 2.0 * half_sin

    w1 = s.omega_s1 * ch * ch + s.omega_s2 * sh * sh - jp * half_sin
    w2 = s.omega_s2 * ch * ch + s.omega_s1 * sh * sh + jp * half_sin

    ch2rd2 = xp.cosh(2.0 * s.r_d2)
    sh2rd2 = xp.sinh(2.0 * s.r_d2)
    g0 = p.g0

    g1 = g0 * ch2rd2 * sh * sh
    g2 = g0 * ch2rd2 * ch * ch
    g12 = xp.rmul(-0.5 * g0 * sh2rd2 * sin_t, xp.cis(p.phi_d2 + phi))
    g11 = xp.rmul(0.5 * g0 * sh2rd2 * sh * sh, xp.cis(2.0 * phi + p.phi_d2))
    g22 = xp.rmul(0.5 * g0 * sh2rd2 * ch * ch, xp.cis(p.phi_d2))
    gp12 = xp.rmul(0.5 * g0 * ch2rd2 * sin_t, xp.cis_neg(phi))

    return BsCouplings(
        theta=theta,
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
    )


def bs_raw_coefficients(s: Stage1Result, c: BsCouplings) -> dict[str, complex]:
    """Normal-ordered monomial coefficients of the coupling operator.

    Same key scheme as the two-mode-squeezing branch; the beam-splitter
    rotation is number conserving, so the scalar part stays -f_disp.
    """
    return {
        "n11": complex(-c.g1),
        "n22": complex(-c.g2),
        "n12": c.gp12,
        "p11": c.g11,
        "p22": c.g22,
        "p12": c.g12,
        "const": complex(-s.f_disp),
    }


def bs_map_blocks(c: BsCouplings) -> tuple[np.ndarray, np.ndarray]:
    """(U, V) blocks of the mixing: a_s = U A + V A^dag (V = 0, unitary)."""
    ch, sh = math.cos(0.5 * c.theta), math.sin(0.5 * c.theta)
    e = cmath.exp(-1j * c.phi_big)
    U = np.array([[ch, sh * e], [-sh * e.conjugate(), ch]], dtype=complex)
    return U, np.zeros((2, 2), dtype=complex)
