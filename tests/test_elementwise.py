"""A point gives the same bits in any batch, and CPython's float math bits.

The columnar sweep evaluates all points of a sweep in one call of each stage,
`analyze` and the CLI's `verify` config point are batches of one, and
`verify` stacks its random sets. These properties pin that a batch equals its
points evaluated one by one as length-1 batches, and that every mapped libm
function equals `math`/`cmath` on each element: floats are compared through
`float.hex`, so a flipped last bit, a signed zero or a moved NaN fails. The
maps that call libm once per distinct bit pattern are compared by their raw
bits, so a NaN payload mixed up with another fails too. A refused point
(TmsUnstable, ZeroCoupling) comes back as NaN either way.

g0 = 0 is drawn too: the two-mode-squeezing eta = g1/g2 is then 0/0, NaN in
every batch.
"""
import cmath
import math
import struct
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqom import (
    PhysicalParams,
    PipelineOptions,
    SqomError,
    canonical_delta_phi,
    classify,
    laser_point,
    rwa_error_report,
    stage1_transform,
    validate,
)
from sqom import elementwise
from sqom.elementwise import cabs, div, rmul, stack, take
from sqom.params import validation_errors
from sqom.second_stage import bs_couplings, mixing_angle, tms_couplings
from sqom.stage1 import squeeze_param
from sqom.validity import rwa_validity

from conftest import batch, oracle_report, oracle_stages

NAN = math.nan
PHASES = st.sampled_from([0.0, -0.0, math.pi, 2.0 * math.pi]) | st.floats(-10.0, 10.0)
RATES = st.sampled_from([0.05, 0.001, 0.0, -0.0, -0.01, NAN, math.inf]) | st.floats(1e-4, 1.0)


def _bits(value):
    if isinstance(value, list):  # the rows of a report at one point
        return [*map(_bits, value)]
    if isinstance(value, complex):
        return (value.real.hex(), value.imag.hex())
    if isinstance(value, float):
        return value.hex()
    return value


def _element(value, i):
    """Point i of a field: the last axis indexes the points."""
    return value.T[i : i + 1].tolist()[0] if isinstance(value, np.ndarray) else value


def assert_same(batch_result, one_result, i):
    """Point i of a batch result equals a batch-of-one result, bit for bit."""
    for f in fields(one_result):
        a = getattr(batch_result, f.name)
        b = getattr(one_result, f.name)
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


def _square_or_inf(v):
    """v**2, or inf where that raises OverflowError (libm pow's result)."""
    try:
        return v**2
    except OverflowError:
        return math.inf


def _phase_or_atan2(z):
    """cmath.phase(z), or atan2(imag, real) where that raises OverflowError
    (libm atan2 underflowed, e.g. arg(3 + 5e-324j))."""
    try:
        return cmath.phase(z)
    except OverflowError:
        return math.atan2(z.imag, z.real)


# each mapped function of `elementwise` and what CPython computes on one element
MATH = {
    "exp": math.exp,
    "log": math.log,
    "cosh": math.cosh,
    "sinh": math.sinh,
    "tanh": math.tanh,
    "cos": math.cos,
    "sin": math.sin,
    "square": _square_or_inf,
    "cis": lambda v: cmath.exp(1j * v),
    "cis_neg": lambda v: cmath.exp(-1j * v),
}


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _raw_bits(value):
    """The bit pattern of a float, or of both parts of a complex: unlike
    `_bits`, two NaN payloads differ."""
    if isinstance(value, complex):
        return _raw_bits(value.real), _raw_bits(value.imag)
    return struct.unpack("<Q", struct.pack("<d", value))[0]


# a small pool, so that values repeat within a batch: signed zeros, NaN with
# two payloads, infinities, a subnormal, ordinary values and overflowing ones
POOL_VALUES = [
    0.0, -0.0, NAN, _float(0x7FF8_0000_0000_0001), math.inf, -math.inf, 5e-324,
    0.5, -1.25, 3.0, 710.0, 1e200,
]
REPEATED = st.lists(st.tuples(st.sampled_from(POOL_VALUES), st.sampled_from(POOL_VALUES)),
                    min_size=1, max_size=64)
# the maps that call libm once per distinct bit pattern; NaN payloads count
PER_BIT_PATTERN = {*MATH, "mod"}


@given(st.lists(st.tuples(ANY_FLOAT, ANY_FLOAT), min_size=1, max_size=64) | REPEATED)
@example(pairs=[(v, v) for v in POOL_VALUES] * 3)  # the whole pool: most maps raise
@example(pairs=[(v, -v) for v in [NAN, POOL_VALUES[3], 5e-324, 0.5, 3.0]] * 3)  # in every domain
@example(pairs=[(3.0, 5e-324)])  # arg underflows: cmath.phase raises, atan2 does not
@settings(max_examples=200, deadline=None)
def test_mapped_functions_match_math(pairs):
    """Each elementwise operation, on any floats: specials, subnormals, signed
    zeros, and batches that repeat values."""
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
        phase=((z,), lambda i: _phase_or_atan2(z[i].item())),
        rmul=((x, z[::-1]), lambda i: x[i].item() * z[::-1][i].item()),
        py_max=((x, y), lambda i: max(x[i].item(), y[i].item())),
    )
    for name, (args, scalar) in cases.items():
        bits = _raw_bits if name in PER_BIT_PATTERN else _bits
        want = []
        for i in range(len(pairs)):
            try:
                want.append(bits(scalar(i)))
            except (ValueError, OverflowError) as exc:
                want = type(exc)
                break
        if isinstance(want, type):  # a domain error: the array call raises it too
            try:
                getattr(elementwise, name)(*args)
            except want:
                continue
            raise AssertionError(f"{name} did not raise {want.__name__}")
        got = [bits(v) for v in getattr(elementwise, name)(*args).tolist()]
        assert got == want, name


# values that make NaN and infinite beats, zero beats (a tie between the two
# sign choices), gaps below the resonance floor and equal ratios
FOLD_POOL = [0.0, -0.0, NAN, math.inf, -math.inf, 5e-10, 0.5, -0.5, 1.0, 2.0, 1e200]
# w1, w2, omega_m, g1, g2 and the real and imaginary parts of g11, g22, g12, gp12
FOLD_POINT = st.tuples(*[st.sampled_from(FOLD_POOL)] * 13)


def _reference_validity(w1, w2, omega_m, g1, g2, *parts, floor=PipelineOptions.resonance_floor):
    """One point's report with Python's min() and max() on its floats: the
    gaps, ratios and hits in the order of TERMS, the largest ratio without a
    hit (0 if every term hits) and whether any term hits."""
    couplings = [g1, g2] + [abs(complex(re, im)) for re, im in zip(parts[::2], parts[1::2])]
    beats = (2 * w1, 2 * w2, w1 + w2, w1 - w2)
    gaps = [abs(omega_m)] * 2 + [min(abs(b - omega_m), abs(b + omega_m)) for b in beats]
    hits = [gap < floor for gap in gaps]
    ratios = [math.inf if hit else a / gap for a, gap, hit in zip(couplings, gaps, hits)]
    largest = max((r for r, hit in zip(ratios, hits) if not hit), default=0.0)
    return gaps, ratios, hits, largest, any(hits)


@given(st.lists(FOLD_POINT, min_size=1, max_size=64))
# every term hits: the largest ratio is 0
@example(items=[(0.0, 0.0, 0.0, 1.0, NAN, 1.0, 0.0, NAN, 0.0, math.inf, 0.0, 2.0, 0.0)] * 2)
@example(items=[(5e-10, -0.0, 5e-10, 0.5, 0.5, 0.5, 0.0, 0.0, 0.5, 0.5, 0.0, 0.0, -0.5)])
@settings(max_examples=200, deadline=None)
def test_validity_folds_match_python_min_max(items):
    """The report's row folds (the gap of each term, its ratio, the largest
    ratio and any resonance) against Python's min() and max() per point."""
    cols = [np.array(col) for col in zip(*items)]
    w1, w2, omega_m, g1, g2 = cols[:5]
    parametric = np.empty((4, len(items)), dtype=complex)
    parametric.real, parametric.imag = cols[5::2], cols[6::2]
    g11, g22, g12, gp12 = parametric
    c = SimpleNamespace(w1=w1, w2=w2, g1=g1, g2=g2, g11=g11, g22=g22, g12=g12, gp12=gp12)
    with np.errstate(all="ignore"):  # as in the pipeline: inf - inf is NaN
        report = rwa_validity(c, omega_m)
    got = zip(report.gap.T.tolist(), report.ratio.T.tolist(), report.resonance_hit.T.tolist(),
              report.max_ratio.tolist(), report.any_resonance.tolist())
    for item, (gaps, ratios, hits, largest, hit) in zip(items, got):
        want = _reference_validity(*item)
        assert [_bits(gaps), _bits(ratios), hits, _bits(largest), hit] == [
            _bits(want[0]), _bits(want[1]), want[2], _bits(want[3]), want[4]], item


def _complex(re, im):
    z = np.empty(len(re), dtype=complex)
    z.real, z.imag = re, im
    return z


@given(st.lists(st.tuples(*[st.sampled_from(POOL_VALUES) | ANY_FLOAT] * 6), min_size=1,
                max_size=16))
@settings(max_examples=150, deadline=None)
def test_stacked_products_equal_each_row(items):
    """`rmul` of a tuple of rows, as the oracle's form and maps make their
    paired entries, equals `rmul` of each row alone, bit for bit, with signed
    zeros, infinities, NaN and subnormals among the inputs. A NaN compares
    as NaN, as in the other `rmul` checks: which operand's payload numpy's
    addition keeps depends on the array's length."""
    x1, x2, re1, im1, re2, im2 = map(np.array, zip(*items))
    z1, z2 = _complex(re1, im1), _complex(re2, im2)
    for got, want in zip(rmul((x1, x2), (z1, z2)), (rmul(x1, z1), rmul(x2, z2))):
        assert _bits(got.tolist()) == _bits(want.tolist())


@given(st.lists(st.sampled_from(POOL_VALUES) | ANY_FLOAT, max_size=40))
@settings(max_examples=100, deadline=None)
def test_distinct_tells_floats_apart_by_bits(values):
    x = np.array(values, dtype=float)
    bits = x.view(np.int64).tolist()
    found = elementwise.distinct(x)
    if found is None:
        assert len(set(bits)) == len(bits)
        return
    unique, inverse = found
    assert sorted(unique.view(np.int64).tolist()) == sorted(set(bits))
    assert unique[inverse].view(np.int64).tolist() == bits


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
    tms_validity = rwa_validity(tms, vp.omega_m)
    bs_validity = rwa_validity(bs, vp.omega_m)
    laser = laser_point(cabs(bs.gp12), bs.w1, bs.w2, vp.omega_m, vp.kappa, vp.gamma_m)
    delta_phis = canonical_delta_phi(vp.phi_d1, vp.phi_d2)
    for i, p in enumerate(good):
        vpi = validate(batch(p))
        assert_same(vp, vpi, i)
        delta_phi = canonical_delta_phi(vpi.phi_d1, vpi.phi_d2)
        assert _bits(_element(delta_phi, 0)) == _bits(_element(delta_phis, i))
        r_d2 = squeeze_param(vpi.delta2, vpi.lambda2)
        assert _bits(_element(r_d2, 0)) == _bits(_element(s.r_d2, i))
        si = stage1_transform(vpi)
        assert_same(s, si, i)
        assert_same(regime, classify(si, vpi), i)
        tmsi = tms_couplings(si, vpi)
        assert_same(tms, tmsi, i)  # a refused point is NaN in both
        assert_same_validity(tms_validity, rwa_validity(tmsi, vpi.omega_m), i)
        bsi = bs_couplings(si, vpi)
        assert_same(bs, bsi, i)
        assert_same_validity(bs_validity, rwa_validity(bsi, vpi.omega_m), i)
        theta = mixing_angle(cabs(bsi.j_prime), si.omega_s1, si.omega_s2)
        assert _bits(_element(theta, 0)) == _bits(_element(bs.theta, i))
        # j_hop = 0 gives gp12 = 0, where the threshold is NaN
        laseri = laser_point(
            cabs(bsi.gp12), bsi.w1, bsi.w2, vpi.omega_m, vpi.kappa, vpi.gamma_m
        )
        assert_same(laser, laseri, i)


@given(POINT_LISTS)
@settings(max_examples=30, deadline=None)
def test_oracle_batch_equals_pointwise(items):
    """The oracle report, the frequency deviation and the exact frequencies
    of a batch, point by point, for both branches, the pairing mask
    included. The reports of both branches from one call equal each
    branch's report alone."""
    good = _valid(items)
    if not good:
        return
    vp = validate(stack(PhysicalParams, good))
    branches = ("tms", "bs")
    for branch in branches:
        alone = []
        for i in range(len(good)):
            one = take(vp, [i])
            alone.append((*oracle_report(one, branch), oracle_stages(one, branch)[2]))
        (defects, dev), freqs = oracle_report(vp, branch), oracle_stages(vp, branch)[2]
        for i, (one, one_dev, one_freqs) in enumerate(alone):
            for a, b in zip(defects, one):
                assert _bits(_element(a, i)) == _bits(_element(b, 0)), (a, b)
            assert _bits(_element(dev, i)) == _bits(_element(one_dev, 0)), (dev, one_dev)
            assert_same(freqs, one_freqs, i)
    s = stage1_transform(vp)
    both = rwa_error_report(vp, s, [tms_couplings(s, vp), bs_couplings(s, vp)])
    for k, (alone, _) in enumerate(oracle_report(vp, branch) for branch in branches):
        for name, a, b in zip(("coeff_defect", "metric_defect"), both, alone):
            for i in range(len(good)):
                assert _bits(_element(a[k], i)) == _bits(_element(b, i)), (name, a[k], b)


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
# |gp12|^2 underflows to 0: an infinite threshold times w1 = 0
@example(items=[(5e-324, 0.0, 0.0, 1.0, 0.001)], n_plus=0.0, n_minus=0.0)
@settings(max_examples=60, deadline=None)
def test_laser_array_equals_pointwise(items, n_plus, n_minus):
    g, w1, w2, kappa, gamma_m = (np.array(col) for col in zip(*items))
    res = laser_point(g, w1, w2, 1.0, kappa, gamma_m, n_plus, n_minus)
    for i, values in enumerate(items):
        gi, w1i, w2i, ki, gmi = (np.array([v]) for v in values)
        want = laser_point(gi, w1i, w2i, 1.0, ki, gmi, n_plus, n_minus)
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
