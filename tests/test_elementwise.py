"""Every physics function gives the same bits on an array as point by point.

The columnar sweep evaluates all points of a sweep in one call of each stage,
while the oracle, `verify` and most tests call the same functions on floats.
These properties pin that both paths agree exactly: floats are compared
through `float.hex`, so a flipped last bit, a signed zero or a moved NaN
fails. A point where the scalar call raises a per-point refusal must come
back as NaN from the array call.

g0 = 0 is drawn too: the two-mode-squeezing eta = g1/g2 is then 0/0, NaN on
both paths.
"""
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqom import (
    LaserInput,
    PhysicalParams,
    SqomError,
    TmsUnstable,
    ZeroCoupling,
    canonical_delta_phi,
    classify,
    laser_point,
    stage1_transform,
    validate,
)
from sqom.branch_bs import bs_couplings, mixing_angle, rwa_validity_bs
from sqom.branch_tms import rwa_validity_tms, tms_couplings
from sqom.elementwise import Array, Scalar
from sqom.params import validation_errors
from sqom.stage1 import squeeze_param

NAN = math.nan
PHASES = st.sampled_from([0.0, -0.0, math.pi, 2.0 * math.pi]) | st.floats(-10.0, 10.0)
RATES = st.sampled_from([0.05, 0.001, 0.0, -0.0, -0.01, NAN, math.inf]) | st.floats(1e-4, 1.0)


def _bits(value):
    if isinstance(value, complex):
        return (value.real.hex(), value.imag.hex())
    if isinstance(value, float):
        return value.hex()
    return value


def _element(value, i):
    return value[i : i + 1].tolist()[0] if isinstance(value, np.ndarray) else value


def assert_same(array_result, scalar_result, i):
    """Field i of a dataclass of arrays equals the scalar dataclass, bit for bit."""
    for f in fields(scalar_result):
        a = getattr(array_result, f.name)
        b = getattr(scalar_result, f.name)
        if isinstance(b, tuple):  # the terms of a validity report
            for ta, tb in zip(a, b):
                assert_same(ta, tb, i)
        else:
            assert _bits(_element(a, i)) == _bits(b), (f.name, _element(a, i), b)


def assert_same_validity(array_report, scalar_report, i):
    assert_same(array_report, scalar_report, i)
    for prop in ("max_ratio", "any_resonance", "all_small"):
        got = _element(getattr(array_report, prop), i)
        assert _bits(got) == _bits(getattr(scalar_report, prop)), prop


@st.composite
def drives(draw, delta):
    half = 0.5 * abs(delta)
    mode = draw(st.sampled_from(["free", "edge", "over", "zero"]))
    if mode == "zero":
        return 0.0
    if mode == "edge":  # 2*lambda within 1e-12 below |delta|, or exactly on it
        return 0.5 * (abs(delta) - draw(st.floats(0.0, 1e-12)))
    if mode == "over":  # past the stage-1 boundary
        return half * draw(st.floats(1.0, 1.5))
    return half * draw(st.floats(0.0, 0.999))


@st.composite
def points(draw):
    delta1 = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 500.0))
    delta2 = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 500.0))
    return PhysicalParams(
        delta1=delta1,
        delta2=delta2,
        lambda1=draw(drives(delta1)),
        lambda2=draw(drives(delta2)),
        j_hop=draw(st.sampled_from([0.0, 0.1]) | st.floats(0.0, 50.0)),
        g0=draw(st.sampled_from([0.0]) | st.floats(1e-4, 0.1)),
        kappa=draw(RATES),
        gamma_m=draw(RATES),
        phi_d1=draw(PHASES),
        phi_d2=draw(PHASES),
    )


def _arrays(items):
    """One dataclass of arrays from a list of scalar dataclasses."""
    cls = type(items[0])
    return cls(**{f.name: np.array([getattr(p, f.name) for p in items]) for f in fields(cls)})


def _valid(items):
    return [p for p in items if validation_errors(_arrays([p]))[0] == ""]


POINT_LISTS = st.lists(points(), min_size=1, max_size=12)
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@given(st.lists(st.tuples(ANY_FLOAT, ANY_FLOAT), min_size=1, max_size=64))
@settings(max_examples=100, deadline=None)
def test_array_namespace_matches_scalar_namespace(pairs):
    """Each elementwise operation, on any floats: specials, subnormals, signed zeros."""
    x = np.array([a for a, _ in pairs])
    y = np.array([b for _, b in pairs])
    z = np.empty(len(pairs), dtype=complex)
    z.real, z.imag = x, y
    cases = {
        name: ((x,), (lambda i, f=getattr(Scalar, name): f(x[i].item())))
        for name in ("exp", "log", "cosh", "sinh", "cos", "sin", "cis", "cis_neg", "square")
    }
    cases.update(
        atan2=((x, y), lambda i: Scalar.atan2(x[i].item(), y[i].item())),
        mod=((x, 2.0 * math.pi), lambda i: Scalar.mod(x[i].item(), 2.0 * math.pi)),
        cabs=((z,), lambda i: Scalar.cabs(z[i].item())),
        phase=((z,), lambda i: Scalar.phase(z[i].item())),
        rmul=((x, z[::-1]), lambda i: Scalar.rmul(x[i].item(), z[::-1][i].item())),
    )
    for name, (args, scalar) in cases.items():
        want = []
        for i in range(len(pairs)):
            try:
                want.append(_bits(scalar(i)))
            except (ValueError, OverflowError) as exc:
                want = type(exc)
                break
        if isinstance(want, type):  # a domain error: the array call raises it too
            try:
                getattr(Array, name)(*args)
            except want:
                continue
            raise AssertionError(f"{name} did not raise {want.__name__}")
        got = [_bits(v) for v in getattr(Array, name)(*args).tolist()]
        assert got == want, name


@given(POINT_LISTS)
@settings(max_examples=40, deadline=None)
def test_validation_names_the_scalar_error(items):
    names = validation_errors(_arrays(items)).tolist()
    for p, name in zip(items, names):
        try:
            validate(p)
        except SqomError as exc:
            assert name == type(exc).__name__
        else:
            assert name == ""


@given(POINT_LISTS)
@settings(max_examples=60, deadline=None)
def test_stage_functions_array_equals_pointwise(items):
    good = _valid(items)
    if not good:
        return
    vp = validate(_arrays(good))
    s = stage1_transform(vp)
    regime = classify(s, vp)
    tms = tms_couplings(s, vp)
    bs = bs_couplings(s, vp)
    tms_validity = rwa_validity_tms(tms, vp.omega_m)
    bs_validity = rwa_validity_bs(bs, vp.omega_m)
    laser = laser_point(
        LaserInput(Array.cabs(bs.gp12), bs.w1, bs.w2), vp.omega_m, vp.kappa, vp.gamma_m
    )
    for i, p in enumerate(good):
        vpi = validate(p)
        assert_same(vp, vpi, i)
        assert _bits(canonical_delta_phi(p.phi_d1, p.phi_d2)) == _bits(vp.delta_phi[i])
        assert _bits(squeeze_param(p.delta2, p.lambda2)) == _bits(s.r_d2[i])
        si = stage1_transform(vpi)
        assert_same(s, si, i)
        assert_same(regime, classify(si, vpi), i)
        try:
            tmsi = tms_couplings(si, vpi)
        except TmsUnstable:
            assert math.isnan(tms.r[i])
        else:
            assert_same(tms, tmsi, i)
            assert_same_validity(tms_validity, rwa_validity_tms(tmsi, vpi.omega_m), i)
        bsi = bs_couplings(si, vpi)
        assert_same(bs, bsi, i)
        assert_same_validity(bs_validity, rwa_validity_bs(bsi, vpi.omega_m), i)
        theta = mixing_angle(abs(bsi.j_prime), si.omega_s1, si.omega_s2)
        assert _bits(theta) == _bits(bs.theta[i])
        try:  # j_hop = 0 gives gp12 = 0, where the threshold is refused
            laseri = laser_point(
                LaserInput(abs(bsi.gp12), bsi.w1, bsi.w2), vpi.omega_m, vpi.kappa, vpi.gamma_m
            )
        except ZeroCoupling:
            assert math.isnan(laser.n_threshold[i])
        else:
            assert_same(laser, laseri, i)


LASER_POINTS = st.lists(
    st.tuples(
        # |gp12|^2 must not underflow: the scalar threshold would divide by 0
        st.sampled_from([0.0, 1e-3]) | st.floats(1e-100, 0.1),
        st.floats(-5.0, 5.0),
        st.floats(-5.0, 5.0),
        st.floats(1e-3, 1.0),
        st.sampled_from([1e-3, 1e-6]) | st.floats(1e-6, 0.1),
    ),
    min_size=1,
    max_size=64,
)


@given(LASER_POINTS, st.floats(0.0, 5.0), st.floats(0.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_laser_array_equals_pointwise(items, n_plus, n_minus):
    g, w1, w2, kappa, gamma_m = (np.array(col) for col in zip(*items))
    res = laser_point(LaserInput(g, w1, w2, n_plus, n_minus), 1.0, kappa, gamma_m)
    for i, (gi, w1i, w2i, ki, gmi) in enumerate(items):
        try:
            want = laser_point(LaserInput(gi, w1i, w2i, n_plus, n_minus), 1.0, ki, gmi)
        except ZeroCoupling:
            assert math.isnan(res.n_threshold[i]) and math.isnan(res.p_threshold[i])
        else:
            assert_same(res, want, i)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.lists(st.tuples(ANY_FLOAT, st.sampled_from([0.0, -0.0]) | ANY_FLOAT), min_size=1))
@settings(max_examples=60, deadline=None)
def test_division_by_zero_matches_arrays(pairs):
    """A zero denominator gives IEEE's signed infinity or NaN on both paths."""
    num = np.array([a for a, _ in pairs])
    den = np.array([b for _, b in pairs])
    got = Array.div(num, den, False, NAN).tolist()
    for (a, b), g in zip(pairs, got):
        want = Scalar.div(a, b, False, NAN)
        assert math.isnan(g) if math.isnan(want) else _bits(g) == _bits(want), (a, b)
