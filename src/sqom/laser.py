"""Phonon-laser gain, stimulated phonon number, and threshold.

The triply-resonant term gp12 A_1^dag A_2 b + h.c. converts population
inversion between the supermodes into phonon gain with a Lorentzian profile
of width kappa centred on the resonance W_1 - W_2 = omega_m:

    gain = |gp12|^2 (N+ - N-) kappa / [(W_1 - W_2 - omega_m)^2 + (kappa/2)^2]

Lasing sets in at gain = gamma_m; the stimulated phonon number
n_b = exp[2 (gain - gamma_m) / gamma_m] equals 1 exactly at threshold. The
threshold pump power is P_th = N+ kappa W_1 evaluated at the threshold
density, so P_th/N_th = kappa W_1 identically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elementwise import div, exp, square

EXP_CAP = 700.0
KAPPA_HIERARCHY = 10.0


@dataclass(frozen=True)
class LaserInput:
    """Working point of the laser interaction.

    n_minus defaults to 0: with an undriven idle supermode the inversion is
    simply the pump density.
    """

    gp12_abs: float
    w1: float
    w2: float
    n_plus: float = 1.0
    n_minus: float = 0.0


@dataclass(frozen=True)
class PhononNumber:
    value: float
    capped: bool


@dataclass(frozen=True)
class ThresholdResult:
    n_threshold: float
    p_threshold: float
    # The power formula P = N kappa W_1 loses meaning for W_1 <= 0; the
    # value is still reported, with this flag raised instead of an error.
    w1_nonpositive: bool


@dataclass(frozen=True)
class LaserResult:
    gain: float
    n_b: float
    n_b_capped: bool
    n_threshold: float
    p_threshold: float
    w1_nonpositive: bool
    kappa_over_gamma_m: float
    weak_sideband_hierarchy: bool


def mechanical_gain(inp: LaserInput, omega_m: float, kappa: float) -> float:
    """Lorentzian mechanical gain; the denominator is strictly positive."""
    if np.any(kappa <= 0.0):
        raise ValueError(f"kappa must be > 0, got {kappa}")
    detuning = inp.w1 - inp.w2 - omega_m
    dn = inp.n_plus - inp.n_minus
    return square(inp.gp12_abs) * dn * kappa / (square(detuning) + 0.25 * square(kappa))


def phonon_number(gain: float, gamma_m: float) -> PhononNumber:
    """Stimulated phonon number exp[2(gain - gamma_m)/gamma_m].

    The exponent is capped at EXP_CAP (700, just below float overflow) because
    the formula grows astronomically immediately above threshold; the cap is
    reported via the flag.
    """
    if np.any(gamma_m <= 0.0):
        raise ValueError(f"gamma_m must be > 0, got {gamma_m}")
    exponent = 2.0 * (gain - gamma_m) / gamma_m
    capped = exponent > EXP_CAP
    return PhononNumber(value=exp(np.where(capped, EXP_CAP, exponent)), capped=capped)


def threshold(
    gp12_abs: float,
    w1: float,
    w2: float,
    omega_m: float,
    kappa: float,
    gamma_m: float,
) -> ThresholdResult:
    """Pump density and power where gain = gamma_m.

    At gp12_abs = 0 the threshold is infinite: such a point (ZeroCoupling in
    the sweep's laser_error column) gets NaN density and power.
    """
    zero = gp12_abs == 0.0
    if np.any((kappa <= 0.0) | (gamma_m <= 0.0)):
        raise ValueError("kappa and gamma_m must be > 0")
    detuning = w1 - w2 - omega_m
    lorentz = square(detuning) + 0.25 * square(kappa)
    n_th = div(gamma_m * lorentz, square(gp12_abs) * kappa, zero, math.nan)
    return ThresholdResult(
        n_threshold=n_th,
        p_threshold=n_th * kappa * w1,
        w1_nonpositive=w1 <= 0.0,
    )


def laser_point(
    inp: LaserInput,
    omega_m: float,
    kappa: float,
    gamma_m: float,
) -> LaserResult:
    """Gain, phonon number and threshold for one working point.

    The gain formula presumes kappa >> gamma_m (the optical field follows the
    mechanics adiabatically); the ratio is reported and flagged when it falls
    below KAPPA_HIERARCHY, without refusing the evaluation.
    """
    gain = mechanical_gain(inp, omega_m, kappa)
    nb = phonon_number(gain, gamma_m)
    th = threshold(inp.gp12_abs, inp.w1, inp.w2, omega_m, kappa, gamma_m)
    ratio = kappa / gamma_m
    return LaserResult(
        gain=gain,
        n_b=nb.value,
        n_b_capped=nb.capped,
        n_threshold=th.n_threshold,
        p_threshold=th.p_threshold,
        w1_nonpositive=th.w1_nonpositive,
        kappa_over_gamma_m=ratio,
        weak_sideband_hierarchy=ratio < KAPPA_HIERARCHY,
    )
