"""Exception types shared across the package, and the failure names no
exception carries."""
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


# The names of failures a row or a verify check reports in place of its
# numbers; none of them is raised.
TMS_UNSTABLE = "TmsUnstable"  # omega_s1 + omega_s2 <= |J'|: no two-mode-squeezing stage
ZERO_COUPLING = "ZeroCoupling"  # |G_p12| = 0: an infinite laser threshold
NUMERICAL_DEGENERACY = "NumericalDegeneracy"  # SymplecticFrequencies.paired is False
