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
    return x**2


def _mapped(fn, dtype=float):
    def apply(*args):
        return np.fromiter(map(fn, *(a.tolist() for a in args)), dtype, len(args[0]))

    apply.__doc__ = f"{fn.__name__} of each element, as CPython computes it on the floats"
    return apply


exp = _mapped(math.exp)
log = _mapped(math.log)
cosh = _mapped(math.cosh)
sinh = _mapped(math.sinh)
tanh = _mapped(math.tanh)
cos = _mapped(math.cos)
sin = _mapped(math.sin)
atan2 = _mapped(math.atan2)
hypot = _mapped(math.hypot)
cabs = _mapped(abs)
phase = _mapped(cmath.phase)
cis = _mapped(_cis, complex)  # exp(1j*x)
cis_neg = _mapped(_cis_neg, complex)  # exp(-1j*x)
square = _mapped(_square)  # x**2 is libm pow, which differs from x*x


def rmul(x, z):
    """Real times complex, as CPython multiplies them: complex(x, 0.0) * z."""
    out = np.empty(np.broadcast(x, z).shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        out.real = x * z.real - 0.0 * z.imag
        out.imag = x * z.imag + 0.0 * z.real
    return out


def mod(x, m: float):
    """x % m per element, with Python's float modulo."""
    return np.fromiter(map(operator.mod, x.tolist(), repeat(m)), float, len(x))


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
    """A dataclass of scalars as the same dataclass of length-n arrays."""
    return replace(obj, **{f.name: np.full(n, getattr(obj, f.name)) for f in fields(obj)})
