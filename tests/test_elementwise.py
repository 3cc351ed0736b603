"""A point gives the same bits in any batch, and CPython's float math bits.

The columnar sweep evaluates all points of a sweep in one call of each stage,
`analyze` and the CLI's `verify` config point are batches of one, and
`verify` stacks its random sets. These properties pin that a batch equals its
points evaluated one by one as length-1 batches, and that every mapped libm
function equals `math`/`cmath` on each element: floats are compared through
`float.hex`, so a flipped last bit, a signed zero or a moved NaN fails. A
refused point (TmsUnstable, ZeroCoupling) comes back as NaN either way.

g0 = 0 is drawn too: the two-mode-squeezing eta = g1/g2 is then 0/0, NaN in
every batch.
"""
import cmath
import math
import re
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqom import (
    Branch,
    LaserInput,
    PhysicalParams,
    SqomError,
    canonical_delta_phi,
    classify,
    laser_point,
    rwa_error_report,
    stage1_transform,
    validate,
)
from sqom import elementwise
from sqom.branch_bs import bs_couplings, mixing_angle, rwa_validity_bs
from sqom.branch_tms import rwa_validity_tms, tms_couplings
from sqom.elementwise import cabs, div, stack, take
from sqom.errors import NumericalDegeneracy
from sqom.params import validation_errors
from sqom.stage1 import squeeze_param

from conftest import batch

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


def assert_same(batch_result, one_result, i):
    """Point i of a batch result equals a batch-of-one result, bit for bit."""
    for f in fields(one_result):
        a = getattr(batch_result, f.name)
        b = getattr(one_result, f.name)
        if isinstance(b, tuple):  # the terms of a validity report, frequency deviations
            for ta, tb in zip(a, b):
                assert_same(ta, tb, i)
        elif is_dataclass(b):  # the symplectic frequencies of an oracle report
            assert_same(a, b, i)
        else:
            assert _bits(_element(a, i)) == _bits(_element(b, 0)), (f.name, a, b)


def assert_same_validity(batch_report, one_report, i):
    assert_same(batch_report, one_report, i)
    for prop in ("max_ratio", "any_resonance"):
        got = _element(getattr(batch_report, prop), i)
        assert _bits(got) == _bits(_element(getattr(one_report, prop), 0)), prop


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


def _valid(items):
    return [p for p in items if validation_errors(batch(p))[0] == ""]


POINT_LISTS = st.lists(points(), min_size=1, max_size=12)
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)

# each mapped function of `elementwise` and what CPython computes on one element
MATH = {
    "exp": math.exp,
    "log": math.log,
    "cosh": math.cosh,
    "sinh": math.sinh,
    "tanh": math.tanh,
    "cos": math.cos,
    "sin": math.sin,
    "square": lambda v: v**2,
    "cis": lambda v: cmath.exp(1j * v),
    "cis_neg": lambda v: cmath.exp(-1j * v),
}


@given(st.lists(st.tuples(ANY_FLOAT, ANY_FLOAT), min_size=1, max_size=64))
@settings(max_examples=100, deadline=None)
def test_mapped_functions_match_math(pairs):
    """Each elementwise operation, on any floats: specials, subnormals, signed zeros."""
    x = np.array([a for a, _ in pairs])
    y = np.array([b for _, b in pairs])
    z = np.empty(len(pairs), dtype=complex)
    z.real, z.imag = x, y
    cases = {name: ((x,), (lambda i, f=f: f(x[i].item()))) for name, f in MATH.items()}
    cases.update(
        atan2=((x, y), lambda i: math.atan2(x[i].item(), y[i].item())),
        hypot=((x, y), lambda i: math.hypot(x[i].item(), y[i].item())),
        mod=((x, 2.0 * math.pi), lambda i: x[i].item() % (2.0 * math.pi)),
        cabs=((z,), lambda i: abs(z[i].item())),
        phase=((z,), lambda i: cmath.phase(z[i].item())),
        rmul=((x, z[::-1]), lambda i: x[i].item() * z[::-1][i].item()),
        py_max=((x, y), lambda i: max(x[i].item(), y[i].item())),
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
                getattr(elementwise, name)(*args)
            except want:
                continue
            raise AssertionError(f"{name} did not raise {want.__name__}")
        got = [_bits(v) for v in getattr(elementwise, name)(*args).tolist()]
        assert got == want, name


@given(POINT_LISTS)
@settings(max_examples=40, deadline=None)
def test_validation_names_the_scalar_error(items):
    names = validation_errors(stack(PhysicalParams, items)).tolist()
    for p, name in zip(items, names):
        try:
            validate(batch(p))
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
    vp = validate(stack(PhysicalParams, good))
    s = stage1_transform(vp)
    regime = classify(s, vp)
    tms = tms_couplings(s, vp)
    bs = bs_couplings(s, vp)
    tms_validity = rwa_validity_tms(tms, vp.omega_m)
    bs_validity = rwa_validity_bs(bs, vp.omega_m)
    laser = laser_point(LaserInput(cabs(bs.gp12), bs.w1, bs.w2), vp.omega_m, vp.kappa, vp.gamma_m)
    for i, p in enumerate(good):
        vpi = validate(batch(p))
        assert_same(vp, vpi, i)
        delta_phi = canonical_delta_phi(vpi.phi_d1, vpi.phi_d2)
        assert _bits(_element(delta_phi, 0)) == _bits(_element(vp.delta_phi, i))
        r_d2 = squeeze_param(vpi.delta2, vpi.lambda2)
        assert _bits(_element(r_d2, 0)) == _bits(_element(s.r_d2, i))
        si = stage1_transform(vpi)
        assert_same(s, si, i)
        assert_same(regime, classify(si, vpi), i)
        tmsi = tms_couplings(si, vpi)
        assert_same(tms, tmsi, i)  # a refused point is NaN in both
        assert_same_validity(tms_validity, rwa_validity_tms(tmsi, vpi.omega_m), i)
        bsi = bs_couplings(si, vpi)
        assert_same(bs, bsi, i)
        assert_same_validity(bs_validity, rwa_validity_bs(bsi, vpi.omega_m), i)
        theta = mixing_angle(cabs(bsi.j_prime), si.omega_s1, si.omega_s2)
        assert _bits(_element(theta, 0)) == _bits(_element(bs.theta, i))
        # j_hop = 0 gives gp12 = 0, where the threshold is NaN
        laseri = laser_point(
            LaserInput(cabs(bsi.gp12), bsi.w1, bsi.w2), vpi.omega_m, vpi.kappa, vpi.gamma_m
        )
        assert_same(laser, laseri, i)


@given(POINT_LISTS)
@settings(max_examples=30, deadline=None)
def test_oracle_batch_equals_pointwise(items):
    """The oracle report of a batch, point by point, for both branches; a
    point whose eigenvalues cannot be paired fails the batch with its message."""
    good = _valid(items)
    if not good:
        return
    vp = validate(stack(PhysicalParams, good))
    for branch in (Branch.TWO_MODE_SQUEEZING, Branch.BEAM_SPLITTER):
        alone = []
        for i in range(len(good)):
            try:
                alone.append(rwa_error_report(take(vp, [i]), branch))
            except NumericalDegeneracy as exc:
                with pytest.raises(NumericalDegeneracy, match=f"^{re.escape(str(exc))}$"):
                    rwa_error_report(vp, branch)
                return
        report = rwa_error_report(vp, branch)
        for i, one in enumerate(alone):
            assert_same(report, one, i)


LASER_POINTS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 1e-3]) | st.floats(0.0, 0.1),
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
    for i, values in enumerate(items):
        gi, w1i, w2i, ki, gmi = (np.array([v]) for v in values)
        want = laser_point(LaserInput(gi, w1i, w2i, n_plus, n_minus), 1.0, ki, gmi)
        assert_same(res, want, i)  # |gp12| = 0: NaN threshold in both


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.lists(st.tuples(ANY_FLOAT, st.sampled_from([0.0, -0.0]) | ANY_FLOAT), min_size=1))
@settings(max_examples=60, deadline=None)
def test_division_by_zero_matches_arrays(pairs):
    """A zero denominator gives IEEE's signed infinity or NaN, without a warning."""
    num = np.array([a for a, _ in pairs])
    den = np.array([b for _, b in pairs])
    got = div(num, den, False, NAN).tolist()
    for (a, b), g in zip(pairs, got):
        want = a / b if b else a * math.copysign(math.inf, b)
        assert math.isnan(g) if math.isnan(want) else _bits(g) == _bits(want), (a, b)
