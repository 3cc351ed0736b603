"""Elementwise math over numpy arrays that gives CPython's float bits.

Every physics function takes its parameters as equal-length numpy arrays,
one point per element (`broadcast` makes a batch of one). A point's results
must not depend on its batch, down to the 17th significant digit and the
sign of a zero, and must equal CPython's `math`/`cmath` on its floats.

The exactness rule: numpy may touch a value that can reach a CSV cell only
through operations that round exactly like CPython's: +, -, * and / on float
arrays, complex + complex, complex + real, comparisons and `where`. Numpy's
own transcendental functions, `**`, complex products and complex `abs` do not
match libm in the last bit on every host, so this module maps the `math`/
`cmath` function over `arr.tolist()`, and spells a real-times-complex product
out the way CPython computes it.

One libm call per distinct bit pattern: a map of one float array (and `mod`)
calls the function once per distinct bit pattern of its input and scatters
the results back. libm is a pure function of its input's bits, so every
output bit is the same as with one call per element; keying on bits keeps
-0.0 apart from 0.0 and one NaN payload apart from another. Maps of two
arguments or of complex input call the function once per element.

A per-point failure (an unstable two-mode-squeezing stage, a threshold at
zero coupling) is not raised: those points are NaN, and the sweep names the
error in its error columns.
"""
from __future__ import annotations

import cmath
import math
import operator
from dataclasses import fields, replace
from itertools import repeat

import numpy as np


def _cis(x):
    return cmath.exp(1j * x)


def _cis_neg(x):
    return cmath.exp(-1j * x)


def _square(x):
    try:
        return x**2
    except OverflowError:  # CPython's raise where libm pow returned inf
        return math.inf


def _phase(z):
    try:
        return cmath.phase(z)
    except OverflowError:  # CPython's raise where libm atan2 underflowed
        return math.atan2(z.imag, z.real)


def distinct(x: np.ndarray):
    """(values, inverse) with `values[inverse]` equal to the 1-D array `x`,
    `values` its distinct elements; None when no element repeats, or `x` has
    fewer than two, or is not of a fixed-width kind (float, int, bool, str).

    Floats are compared by their bits, so -0.0 stays apart from 0.0 and one
    NaN payload from another. One sort and one comparison of neighbours
    decide, so an array of distinct elements costs no more; only one with a
    repeat pays for `searchsorted`.
    """
    kind = x.dtype.kind
    if len(x) < 2 or kind not in "fiubU":
        return None
    keys = x.view(np.int64) if kind == "f" else x
    order = keys.copy()
    order.sort()
    new = order[1:] != order[:-1]
    if np.count_nonzero(new) == len(new):
        return None
    values = np.concatenate((order[:1], order[1:][new]))
    return values.view(x.dtype), np.searchsorted(values, keys)


def _once_per_value(apply, x):
    """apply(x) for a function `apply` of one array that acts per element,
    called on the distinct values of `x` only (see `distinct`)."""
    found = distinct(x)
    if found is None:
        return apply(x)
    values, inverse = found
    return apply(values)[inverse]


def _mapped(fn, dtype=float):
    def each(x):
        return np.fromiter(map(fn, x.tolist()), dtype, len(x))

    def apply(x):
        return each(x) if len(x) < 2 else _once_per_value(each, x)

    apply.__doc__ = f"{fn.__name__} of each element, as CPython computes it on the floats"
    return apply


def _mapped2(fn):
    def apply(x, y):
        return np.fromiter(map(fn, x.tolist(), y.tolist()), float, len(x))

    apply.__doc__ = f"{fn.__name__} of each pair of elements, as CPython computes it"
    return apply


exp = _mapped(math.exp)
log = _mapped(math.log)
cosh = _mapped(math.cosh)
sinh = _mapped(math.sinh)
tanh = _mapped(math.tanh)
cos = _mapped(math.cos)
sin = _mapped(math.sin)
atan2 = _mapped2(math.atan2)
hypot = _mapped2(math.hypot)
cabs = _mapped(abs)
phase = _mapped(_phase)  # arg(z)
cis = _mapped(_cis, complex)  # exp(1j*x)
cis_neg = _mapped(_cis_neg, complex)  # exp(-1j*x)
square = _mapped(_square)  # x**2 is libm pow, which differs from x*x


def rmul(x, z):
    """complex(x, 0.0) * z as CPython multiplies them; a tuple of rows is one stacked array."""
    x, z = np.asarray(x), np.asarray(z)
    zr, zi = z.real, z.imag
    # CPython's product neither warns nor raises on an infinite part or an
    # overflow, so numpy's warnings are silenced here and not left to callers
    with np.errstate(over="ignore", invalid="ignore"):
        re = x * zr - 0.0 * zi
        out = np.empty(re.shape, dtype=complex)
        out.real, out.imag = re, x * zi + 0.0 * zr
    return out


def mod(x, m: float):
    """x % m per element, with Python's float modulo."""
    return _once_per_value(
        lambda v: np.fromiter(map(operator.mod, v.tolist(), repeat(m)), float, len(v)), x
    )


def div(num, den, skip, fill):
    """num / den, or `fill` where `skip` holds. A zero `den` gives IEEE's
    signed infinity or NaN, without a warning."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(skip, fill, num / den)


def py_max(a, b):
    """Python's max(a, b) per element: b only where b > a, so a NaN in b
    never wins and a NaN in a always does."""
    return np.where(b > a, b, a)


def take(obj, index):
    """A dataclass of arrays restricted to `index` (a mask or positions)."""
    return replace(obj, **{f.name: getattr(obj, f.name)[index] for f in fields(obj)})


def stack(cls, items):
    """A list of dataclasses of scalars as one dataclass `cls` of arrays."""
    return cls(**{f.name: np.array([getattr(x, f.name) for x in items], dtype=float)
                  for f in fields(cls)})


def broadcast(obj, n: int):
    """A dataclass of scalars as the same dataclass of length-n arrays, each
    of the dtype `np.full` gives its scalar."""
    return type(obj)(**{name: np.array(value).repeat(n) for name, value in vars(obj).items()})
