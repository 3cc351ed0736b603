"""Phonon-laser gain, stimulated phonon number, and threshold.

The triply-resonant term gp12 A_1^dag A_2 b + h.c. converts population
inversion between the supermodes into phonon gain with a Lorentzian profile
of width kappa centred on the resonance W_1 - W_2 = omega_m:

    gain = |gp12|^2 (N+ - N-) kappa / [(W_1 - W_2 - omega_m)^2 + (kappa/2)^2]

Lasing sets in at gain = gamma_m; the stimulated phonon number
n_b = exp[2 (gain - gamma_m) / gamma_m] equals 1 exactly at threshold. The
threshold pump power is P_th = N+ kappa W_1 evaluated at the threshold
density, so P_th/N_th = kappa W_1 identically.

Out of scope: n_b is the below-saturation (linear-gain) estimate. It keeps
the inversion N+ - N- fixed, so no gain depletion by the phonons limits its
growth above threshold, and nothing here models saturation. Its exponent is
cut at EXP_CAP only to stay a finite float; a capped n_b (flagged
n_b_capped) is no physical phonon number.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elementwise import div, exp, square
from .params import N_MINUS_DEFAULT, N_PLUS_DEFAULT

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
    n_plus: float = N_PLUS_DEFAULT
    n_minus: float = N_MINUS_DEFAULT


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
    """The laser block of one point per element.

    w1_nonpositive, kappa_over_gamma_m and weak_sideband_hierarchy have no
    CSV column: `sweep._flatten` keeps only the fields named in the column
    schema, so a sweep row never carries them.
    """

    gain: float
    n_b: float
    n_b_capped: bool
    n_threshold: float
    p_threshold: float
    w1_nonpositive: bool
    kappa_over_gamma_m: float
    weak_sideband_hierarchy: bool


def _require_positive(name: str, value) -> None:
    if np.any(value <= 0.0):
        raise ValueError(f"{name} must be > 0, got {value}")


def _lorentzian(w1, w2, omega_m, kappa):
    """The gain profile's denominator (W_1 - W_2 - omega_m)^2 + (kappa/2)^2."""
    return square(w1 - w2 - omega_m) + 0.25 * square(kappa)


def _gain(inp: LaserInput, gp12_sq, kappa, lorentz):
    return gp12_sq * (inp.n_plus - inp.n_minus) * kappa / lorentz


def mechanical_gain(inp: LaserInput, omega_m: float, kappa: float) -> float:
    """Lorentzian mechanical gain; the denominator is strictly positive."""
    _require_positive("kappa", kappa)
    return _gain(inp, square(inp.gp12_abs), kappa, _lorentzian(inp.w1, inp.w2, omega_m, kappa))


def _phonon_number(gain, gamma_m) -> PhononNumber:
    exponent = 2.0 * (gain - gamma_m) / gamma_m
    capped = exponent > EXP_CAP
    return PhononNumber(value=exp(np.where(capped, EXP_CAP, exponent)), capped=capped)


def phonon_number(gain: float, gamma_m: float) -> PhononNumber:
    """Stimulated phonon number exp[2(gain - gamma_m)/gamma_m].

    The exponent is capped at EXP_CAP (700, just below float overflow) because
    the formula grows astronomically immediately above threshold; the cap is
    reported via the flag.
    """
    _require_positive("gamma_m", gamma_m)
    return _phonon_number(gain, gamma_m)


def _threshold(gp12_abs, gp12_sq, w1, kappa, gamma_m, lorentz) -> ThresholdResult:
    n_th = div(gamma_m * lorentz, gp12_sq * kappa, gp12_abs == 0.0, math.nan)
    # |gp12|^2 can underflow to 0 (an infinite threshold); inf * 0 is NaN and
    # a product past the float range inf, as in CPython, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        p_threshold = n_th * kappa * w1
    return ThresholdResult(n_threshold=n_th, p_threshold=p_threshold, w1_nonpositive=w1 <= 0.0)


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
    if np.any((kappa <= 0.0) | (gamma_m <= 0.0)):
        raise ValueError("kappa and gamma_m must be > 0")
    lorentz = _lorentzian(w1, w2, omega_m, kappa)
    return _threshold(gp12_abs, square(gp12_abs), w1, kappa, gamma_m, lorentz)


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
    _require_positive("kappa", kappa)
    _require_positive("gamma_m", gamma_m)
    # the gain and the threshold share the Lorentzian and |gp12|^2
    gp12_sq = square(inp.gp12_abs)
    lorentz = _lorentzian(inp.w1, inp.w2, omega_m, kappa)
    gain = _gain(inp, gp12_sq, kappa, lorentz)
    nb = _phonon_number(gain, gamma_m)
    th = _threshold(inp.gp12_abs, gp12_sq, inp.w1, kappa, gamma_m, lorentz)
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
