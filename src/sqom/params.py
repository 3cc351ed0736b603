"""Dimensionless system parameters, their validation and the pipeline options.

Every rate is expressed in units of the mechanical frequency, which is pinned
to exactly 1. Cavity j carries a pump detuning delta_j, an intracavity
parametric drive of amplitude lambda_j >= 0 and phase phi_dj, and the two
cavities exchange photons at rate j_hop. The optomechanical cavity (index 2)
couples to the mechanical mode with single-photon strength g0.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .elementwise import mod
from .errors import (
    ConfigError,
    NegativeParameter,
    NonPositiveParameter,
    SqomError,
    Stage1Unstable,
)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensionless parameter set (units of omega_m unless stated); `validate`
    checks it and returns it.

    A config holds floats. `validate` and the physics stages take the same
    dataclass with an equal-length numpy array in every field, one point per
    element (`elementwise.broadcast` makes a batch of one).
    """

    delta1: float
    delta2: float
    lambda1: float
    lambda2: float
    j_hop: float
    g0: float
    kappa: float
    gamma_m: float
    phi_d1: float = 0.0
    phi_d2: float = 0.0
    omega_m: float = 1.0

    def replace(self, **changes) -> "PhysicalParams":
        return replace(self, **changes)


@dataclass(frozen=True, eq=False)
class PipelineOptions:
    """Knobs shared by every evaluation: the regime thresholds on f1 (a config
    may set them), the supermode densities of the laser block and the
    frequency gap below which a validity term is a resonance hit. The CLI
    takes its defaults from here.

    `n_plus` and `n_minus` may each be a float or an array of one value per
    point of the evaluated batch: the laser block is elementwise, so a point
    gets the cells it gets when evaluated alone with its own densities.
    Options compare and hash by identity, as an array field could not."""

    f1_hi: float = 10.0
    f1_lo: float = 0.1
    n_plus: float = 1.0
    n_minus: float = 0.0
    resonance_floor: float = 1e-9


def canonical_delta_phi(phi_d1: float, phi_d2: float) -> float:
    """Phase difference folded into [0, 2*pi)."""
    d = mod(phi_d1 - phi_d2, TWO_PI)
    # float mod of a tiny negative argument can round up to the modulus itself
    return np.where(d >= TWO_PI, 0.0, d)


def _checks(raw: PhysicalParams):
    """Yield (ok, error type, key, value) per check, in the order validate
    applies them; `ok` is a bool array over the points."""
    for field in ("kappa", "gamma_m"):
        value = getattr(raw, field)
        yield (value > 0.0) & np.isfinite(value), NonPositiveParameter, field, value
    yield raw.omega_m == 1.0, ConfigError, "omega_m", raw.omega_m
    for field in ("lambda1", "lambda2", "j_hop", "g0"):
        value = getattr(raw, field)
        yield (value >= 0.0) & np.isfinite(value), NegativeParameter, field, value
    for field in ("delta1", "delta2", "phi_d1", "phi_d2"):
        value = getattr(raw, field)
        yield np.isfinite(value), ConfigError, field, value
    for cavity, pair in enumerate([(raw.delta1, raw.lambda1), (raw.delta2, raw.lambda2)], 1):
        yield abs(pair[0]) > 2.0 * pair[1], Stage1Unstable, cavity, pair


def _error(error: type, key, value, i: int) -> SqomError:
    """The exception a check that fails at point i raises, with the point's
    values as Python floats."""
    if error is Stage1Unstable:
        return Stage1Unstable(key, *(v.item(i) for v in value))
    value = value.item(i)
    if error is not ConfigError:
        return error(key, value)
    if key == "omega_m":
        return ConfigError(
            f"omega_m is the unit of every rate and must be exactly 1, got {value!r}"
        )
    return ConfigError(f"{key} must be finite, got {value!r}")


def validation_errors(raw: PhysicalParams) -> np.ndarray:
    """Per point, the name of the error validate raises there, or '' where
    the point is valid."""
    names = np.full(len(raw.kappa), "", dtype=object)
    # the first failed check names the error, so apply them last to first
    for ok, error, _, _ in reversed(list(_checks(raw))):
        names[~ok] = error.__name__
    return names


def validate(raw: PhysicalParams, errors: np.ndarray | None = None) -> PhysicalParams:
    """Check stability and sign conventions; return `raw` itself.

    Every point must pass; the first failing point raises the error of its
    first failed check (`validation_errors(raw)`, which a caller may pass).

    Raises
    ------
    NonPositiveParameter
        for kappa or gamma_m <= 0 or not finite.
    ConfigError
        if omega_m differs from 1 (all rates are normalized to omega_m,
        so any other value indicates an inconsistent configuration).
    NegativeParameter
        for lambda_j, j_hop or g0 < 0 or not finite.
    Stage1Unstable
        when |delta_j| <= 2*lambda_j for either cavity. The inequality is
        strict with no margin: operating arbitrarily close to the boundary
        is legitimate and simply produces a large squeezing parameter.
    """
    bad = np.flatnonzero(validation_errors(raw) if errors is None else errors)
    if bad.size:
        i = bad[0]
        error, key, value = next((e, k, v) for ok, e, k, v in _checks(raw) if not ok[i])
        raise _error(error, key, value, i)
    return raw


# --- configuration files -----------------------------------------------------

# a config key is optional exactly where its field has a default; of the
# pipeline options, a config sets the regime thresholds
_REQUIRED_KEYS = tuple(f.name for f in fields(PhysicalParams) if f.default is MISSING)
_OPTIONAL_KEYS = {f.name: f.default for f in fields(PhysicalParams) if f.default is not MISSING}
_OPTIONAL_KEYS.update(f1_hi=PipelineOptions.f1_hi, f1_lo=PipelineOptions.f1_lo)
# field order: an error names the first bad key, whatever the hash seed
_KEYS = _REQUIRED_KEYS + tuple(_OPTIONAL_KEYS)


def parse_config(data: dict) -> tuple[PhysicalParams, PipelineOptions]:
    """The parameter point and the options of a parsed JSON object; unknown
    keys are an error."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)} (typo guard)")
    missing = sorted(k for k in _REQUIRED_KEYS if k not in data)
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")
    values = {}
    for key in _KEYS:
        value = data.get(key, _OPTIONAL_KEYS.get(key))
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
        try:
            values[key] = float(value)
        except OverflowError:  # a JSON integer past the float range
            raise ConfigError(f"config key {key!r} is too large for a float") from None
    f1_hi = values.pop("f1_hi")
    f1_lo = values.pop("f1_lo")
    if not (0.0 <= f1_lo <= f1_hi):
        raise ConfigError(f"need 0 <= f1_lo <= f1_hi, got f1_lo={f1_lo}, f1_hi={f1_hi}")
    return PhysicalParams(**values), PipelineOptions(f1_hi=f1_hi, f1_lo=f1_lo)


def load_config(path: str | Path) -> tuple[PhysicalParams, PipelineOptions]:
    """Read a JSON config file (see README for the schema): its parameter
    point and its options, as `parse_config` returns them."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer longer than sys.get_int_max_str_digits()
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(data)
