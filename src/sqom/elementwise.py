"""Elementwise math that gives the same bits for a float and for an array.

Every physics function of the package takes either Python floats or equal
length numpy arrays in its parameter fields, and runs one formula for both.
The columnar sweep relies on this: a row of a sweep must equal the scalar
evaluation of its point bit for bit, down to the 17th significant digit and
the sign of a zero.

The exactness rule: numpy may touch a value that can reach a CSV cell only
through operations that round exactly like CPython's: +, -, * and / on float
arrays, complex + complex, complex + real, comparisons and `where`. Numpy's
own transcendental functions, `**`, complex products and complex `abs` do not
match libm in the last bit on every host, so the array namespace maps the
very `math`/`cmath` function the scalar code calls over `arr.tolist()`, and
spells a real-times-complex product out the way CPython computes it.

`ops(x)` picks the namespace for a value: `Scalar` for a Python number,
`Array` for a numpy array. A per-point refusal (an exception such as
`TmsUnstable`) is raised by `Scalar.refuse`; `Array.refuse` returns the mask
instead, and the function fills the refused points with NaN.
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


class Scalar:
    """Python floats and complex numbers: math, cmath and plain operators."""

    exp = staticmethod(math.exp)
    log = staticmethod(math.log)
    cosh = staticmethod(math.cosh)
    sinh = staticmethod(math.sinh)
    cos = staticmethod(math.cos)
    sin = staticmethod(math.sin)
    atan2 = staticmethod(math.atan2)
    isfinite = staticmethod(math.isfinite)
    cabs = staticmethod(abs)
    phase = staticmethod(cmath.phase)
    cis = staticmethod(_cis)  # exp(1j*x)
    cis_neg = staticmethod(_cis_neg)  # exp(-1j*x)
    square = staticmethod(_square)  # x**2, i.e. libm pow
    rmul = staticmethod(operator.mul)  # real * complex
    mod = staticmethod(operator.mod)
    not_ = staticmethod(operator.not_)
    any = staticmethod(bool)

    @staticmethod
    def where(cond, a, b):
        return a if cond else b

    @staticmethod
    def div(num, den, skip, fill):
        """num / den, or `fill` where `skip` holds (the division is then not
        evaluated). A zero `den` gives IEEE's signed infinity or NaN, as on arrays."""
        if skip:
            return fill
        return num / den if den else num * math.copysign(math.inf, den)

    @staticmethod
    def refuse(bad, error, *args):
        """Raise error(*args) when `bad`; return `bad` otherwise."""
        if bad:
            raise error(*args)
        return bad


def _mapped(fn, dtype=float):
    def apply(*args):
        if not isinstance(args[0], np.ndarray):
            return fn(*args)
        return np.fromiter(map(fn, *(a.tolist() for a in args)), dtype, len(args[0]))

    apply.__doc__ = f"{fn.__name__} of each element, as the scalar code computes it"
    return apply


def _rmul(x, z):
    # CPython multiplies a float by a complex as complex(x, 0.0) * z
    out = np.empty(np.broadcast(x, z).shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        out.real = x * z.real - 0.0 * z.imag
        out.imag = x * z.imag + 0.0 * z.real
    return out


def _mod(x, m):
    return np.fromiter(map(operator.mod, x.tolist(), repeat(m)), float, len(x))


def _div(num, den, skip, fill):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(skip, fill, num / den)


def _refuse(bad, error, *args):
    return bad


class Array:
    """numpy arrays: exact arithmetic in numpy, libm calls mapped per element."""

    exp = staticmethod(_mapped(math.exp))
    log = staticmethod(_mapped(math.log))
    cosh = staticmethod(_mapped(math.cosh))
    sinh = staticmethod(_mapped(math.sinh))
    cos = staticmethod(_mapped(math.cos))
    sin = staticmethod(_mapped(math.sin))
    atan2 = staticmethod(_mapped(math.atan2))
    isfinite = staticmethod(np.isfinite)
    cabs = staticmethod(_mapped(abs))
    phase = staticmethod(_mapped(cmath.phase))
    cis = staticmethod(_mapped(_cis, complex))
    cis_neg = staticmethod(_mapped(_cis_neg, complex))
    square = staticmethod(_mapped(_square))
    rmul = staticmethod(_rmul)
    mod = staticmethod(_mod)
    not_ = staticmethod(np.logical_not)
    any = staticmethod(np.any)
    where = staticmethod(np.where)
    div = staticmethod(_div)
    refuse = staticmethod(_refuse)


def ops(x) -> type[Scalar] | type[Array]:
    """The namespace matching `x`: Array for a numpy array, Scalar otherwise."""
    return Array if isinstance(x, np.ndarray) else Scalar


def take(obj, index):
    """A dataclass of arrays restricted to `index` (a mask or positions)."""
    return replace(obj, **{f.name: getattr(obj, f.name)[index] for f in fields(obj)})


def item(obj):
    """A dataclass of length-1 arrays as the same dataclass of Python scalars."""
    return replace(obj, **{f.name: getattr(obj, f.name).item() for f in fields(obj)})


def broadcast(obj, n: int):
    """A dataclass of scalars as the same dataclass of length-n arrays."""
    return replace(obj, **{f.name: np.full(n, getattr(obj, f.name)) for f in fields(obj)})
