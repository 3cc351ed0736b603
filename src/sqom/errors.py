"""Exception types shared across the package."""
import math


class SqomError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SqomError):
    """Bad configuration input: unknown keys, wrong types, missing fields."""


# inf passes the bounds below and NaN never compares: such a value must be finite
class NonPositiveParameter(ConfigError):
    """A strictly positive rate (kappa, gamma_m) was <= 0 or not finite."""

    def __init__(self, field: str, value: float):
        self.field = field
        self.value = value
        bound = "> 0" if math.isfinite(value) else "finite"
        super().__init__(f"{field} must be {bound}, got {value!r}")


class NegativeParameter(ConfigError):
    """A non-negative amplitude (lambda_j, j_hop, g0) was < 0 or not finite."""

    def __init__(self, field: str, value: float):
        self.field = field
        self.value = value
        bound = (">= 0 (sign freedom lives in the drive phases)" if math.isfinite(value)
                 else "finite")
        super().__init__(f"{field} must be {bound}, got {value!r}")


class Stage1Unstable(SqomError):
    """|Delta_j| <= 2*Lambda_j: the single-cavity parametric stage is unstable."""

    def __init__(self, cavity: int, delta: float, lambda_amp: float):
        self.cavity = cavity
        self.delta = delta
        self.lambda_amp = lambda_amp
        super().__init__(
            f"cavity {cavity}: |delta|={abs(delta)} must exceed 2*lambda={2 * lambda_amp} "
            "for a stable squeezing stage"
        )


class TmsUnstable(SqomError):
    """Two-mode-squeezing stage undefined: omega_s1 + omega_s2 <= |J'| (named
    in a row's error columns, where the stage's numbers are NaN)."""


class ZeroCoupling(SqomError):
    """Threshold requested with |G_p12| = 0; the threshold is infinite."""


class NumericalDegeneracy(SqomError):
    """Symplectic eigenvalues could not be grouped into +/- pairs (named in
    `verify`'s detail text where `SymplecticFrequencies.paired` is False)."""
