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
from .params import PipelineOptions

EXP_CAP = 700.0  # just below the exponent where exp overflows


@dataclass(frozen=True)
class LaserResult:
    """The laser block of one point per element."""

    gain: float
    n_b: float
    n_b_capped: bool
    n_threshold: float
    p_threshold: float


def laser_point(
    gp12_abs: float,
    w1: float,
    w2: float,
    omega_m: float,
    kappa: float,
    gamma_m: float,
    n_plus: float = PipelineOptions.n_plus,
    n_minus: float = PipelineOptions.n_minus,
) -> LaserResult:
    """Gain, phonon number and threshold for one working point: the laser
    coupling |gp12| between supermodes of frequencies w1 and w2, pumped to
    density n_plus over the idle one's n_minus.

    n_minus defaults to 0: with an undriven idle supermode the inversion is
    simply the pump density. kappa and gamma_m must be > 0 and finite, as
    `validate` demands.

    The gain formula presumes kappa >> gamma_m (the optical field follows the
    mechanics adiabatically). At gp12_abs = 0 the threshold is infinite:
    such a point (ZeroCoupling in the sweep's laser_error column) gets NaN
    density and power.
    """
    for name, value in (("kappa", kappa), ("gamma_m", gamma_m)):
        if not np.all((value > 0.0) & np.isfinite(value)):
            raise ValueError(f"{name} must be > 0 and finite, got {value}")
    gp12_sq = square(gp12_abs)
    # the gain profile's denominator (W_1 - W_2 - omega_m)^2 + (kappa/2)^2
    lorentz = square(w1 - w2 - omega_m) + 0.25 * square(kappa)
    gain = gp12_sq * (n_plus - n_minus) * kappa / lorentz
    exponent = 2.0 * (gain - gamma_m) / gamma_m
    capped = exponent > EXP_CAP
    n_th = div(gamma_m * lorentz, gp12_sq * kappa, gp12_abs == 0.0, math.nan)
    # |gp12|^2 can underflow to 0 (an infinite threshold); inf * 0 is NaN and
    # a product past the float range inf, as in CPython, without a warning.
    # The power formula P = N kappa W_1 loses meaning for W_1 <= 0; the value
    # is still reported.
    with np.errstate(over="ignore", invalid="ignore"):
        p_threshold = n_th * kappa * w1
    return LaserResult(
        gain=gain,
        n_b=exp(np.where(capped, EXP_CAP, exponent)),
        n_b_capped=capped,
        n_threshold=n_th,
        p_threshold=p_threshold,
    )
