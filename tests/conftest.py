"""Shared fixtures: reference parameter sets and comparison helpers."""
import math
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from sqom import PhysicalParams
from sqom.elementwise import broadcast


def batch(p):
    """A parameter set of floats as a batch of one point."""
    return broadcast(p, 1)


def arr(*values):
    """Floats as one array, a point per value."""
    return np.array(values, dtype=float)


def points(result):
    """Each point of a dataclass of arrays, as the same dataclass of Python
    scalars (fields that are not arrays are kept)."""
    names = [f.name for f in fields(result) if isinstance(getattr(result, f.name), np.ndarray)]
    columns = zip(*(getattr(result, name).tolist() for name in names))
    return [replace(result, **dict(zip(names, values))) for values in columns]


def point(result):
    """The one point of a batch of one, as a dataclass of Python scalars."""
    (only,) = points(result)
    return only


def on_one_point(fn):
    """`fn` called on a batch of one: float arguments, and the float fields
    of a dataclass argument, become length-1 arrays; the result comes back
    as Python scalars."""
    def wrap(x):
        if is_dataclass(x):
            return replace(x, **{f.name: wrap(getattr(x, f.name)) for f in fields(x)})
        return arr(x) if isinstance(x, float) else x

    def call(*args, **kwargs):
        result = fn(*map(wrap, args), **{k: wrap(v) for k, v in kwargs.items()})
        return point(result) if is_dataclass(result) else result.item()

    return call


def strong_drive_set(delta_phi: float = math.pi, lambda1: float = 1997.96) -> PhysicalParams:
    """Strong-drive set with opposite detunings (two-mode-squeezing regime)."""
    return PhysicalParams(
        delta1=-4000.0,
        delta2=4000.0,
        lambda1=lambda1,
        lambda2=1997.0,
        j_hop=0.95,
        g0=0.005,
        kappa=0.05,
        gamma_m=0.001,
        phi_d1=delta_phi,
        phi_d2=0.0,
    )


def laser_set(delta_phi: float = math.pi) -> PhysicalParams:
    """Moderate-drive set with same-sign detunings (beam-splitter regime)."""
    return PhysicalParams(
        delta1=20.0,
        delta2=100.0,
        lambda1=9.94,
        lambda2=49.99,
        j_hop=0.1,
        g0=0.002,
        kappa=0.05,
        gamma_m=0.001,
        phi_d1=delta_phi,
        phi_d2=0.0,
    )


def boundary_set(delta_phi: float = math.pi, lambda1: float = 198.305) -> PhysicalParams:
    """Set used for the regime-boundary grid and the pair-resonance hunt."""
    return PhysicalParams(
        delta1=-400.0,
        delta2=400.0,
        lambda1=lambda1,
        lambda2=198.0,
        j_hop=0.3,
        g0=0.005,
        kappa=0.05,
        gamma_m=0.001,
        phi_d1=delta_phi,
        phi_d2=0.0,
    )


@pytest.fixture
def strong_drive():
    return strong_drive_set


@pytest.fixture
def laser_params():
    return laser_set


@pytest.fixture
def boundary_params():
    return boundary_set


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def assert_rel(actual, expected, rtol, atol=0.0, msg=""):
    err = abs(actual - expected)
    bound = rtol * max(abs(actual), abs(expected)) + atol
    assert err <= bound, f"{msg} |{actual} - {expected}| = {err} > {bound}"
