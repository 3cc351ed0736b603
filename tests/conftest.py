"""Shared fixtures: reference parameter sets and comparison helpers."""
import io
import math
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from sqom import (
    PhysicalParams,
    build_photonic_form,
    rwa_error_report,
    stage1_transform,
    symplectic_frequencies,
)
from sqom.elementwise import broadcast
from sqom.oracle import frequency_deviation
from sqom.params import load_config
from sqom.second_stage import bs_couplings, tms_couplings
from sqom.sweep import Table, write_csv


def batch(p):
    """A parameter set of floats as a batch of one point."""
    return broadcast(p, 1)


def arr(*values):
    """Floats as one array, a point per value."""
    return np.array(values, dtype=float)


def points(result):
    """Each point of a dataclass of arrays, as the same dataclass of Python
    scalars (fields that are not arrays are kept). A point is the last axis:
    a `(K, N)` field, such as a report's rows, gives each point a list of K."""
    names = [f.name for f in fields(result) if isinstance(getattr(result, f.name), np.ndarray)]
    columns = zip(*(getattr(result, name).T.tolist() for name in names))
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


def oracle_stages(vp, branch):
    """The stages the oracle is handed for a validated batch: its stage-1
    result, the couplings of `branch` and its exact frequencies."""
    s = stage1_transform(vp)
    couplings = tms_couplings if branch == "tms" else bs_couplings
    return s, couplings(s, vp), symplectic_frequencies(build_photonic_form(vp))


def oracle_report(vp, branch):
    """The oracle's coefficient and metric defects of `branch` alone for a
    validated batch, each over the points, and the `(2, N)` deviation of the
    branch's |W| from the exact frequencies."""
    s, c, freqs = oracle_stages(vp, branch)
    (coeff,), (metric,) = rwa_error_report(vp, s, [c])
    return (coeff, metric), frequency_deviation(c.w1, c.w2, freqs)[1]


def rows_to_csv(rows, columns=None):
    """`write_csv` of `rows` (a Table or row dicts) under `columns`, all of
    them by default, as text; a key a row dict lacks is an empty cell."""
    if columns is not None:
        rows = (Table({c: rows[c] for c in columns}) if isinstance(rows, Table)
                else [{c: row.get(c) for c in columns} for row in rows])
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()


# The reference sets, one home for tests, scripts and CI: drive phases 0.
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
STRONG_DRIVE, BOUNDARY, LASER = (
    load_config(CONFIGS / f"{name}.json")[0] for name in ("strong_drive", "boundary", "laser")
)


def strong_drive_set(delta_phi: float = math.pi, lambda1: float = 1997.96) -> PhysicalParams:
    """Strong-drive set with opposite detunings (two-mode-squeezing regime)."""
    return STRONG_DRIVE.replace(phi_d1=delta_phi, lambda1=lambda1)


def laser_set(delta_phi: float = math.pi) -> PhysicalParams:
    """Moderate-drive set with same-sign detunings (beam-splitter regime)."""
    return LASER.replace(phi_d1=delta_phi)


def boundary_set(delta_phi: float = math.pi, lambda1: float = 198.305) -> PhysicalParams:
    """Set used for the regime-boundary grid and the pair-resonance hunt."""
    return BOUNDARY.replace(phi_d1=delta_phi, lambda1=lambda1)


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
