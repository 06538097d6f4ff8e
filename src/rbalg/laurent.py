"""Laurent polynomials in the seeds of a symbolic search group.

The shape search solves a seeded family once, with symbols s1..sk for its
seeds (see ``classify``).  Its values are Laurent monomials c * s^e, its
equations' coefficients and its residuals Laurent polynomials, all with
raw coefficients (``Fraction`` over Q, int over GF(p), reduced only by
``% p``, as raw values are).  ``Laurent`` supports what the solver and
``rbcheck``'s kernel do to raw values: sums, products, ``% p`` and
truth, and over Q ``numerator`` and ``denominator``, so ``rbcheck`` can
scale it to ints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List

SLOT = 32  # bits per seed in a packed exponent vector
EXPONENT_CAP = 1 << (SLOT - 4)  # a solved value's exponents stay below it


class Fallback(Exception):
    """A symbolic group meets a step its grid instances may take apart."""


class Laurent(dict):
    """{packed exponent vector: raw coefficient}.  The vector (e1..ek)
    packs into the int sum of e_i * 2^(SLOT*(i-1)), in balanced digits, so
    a product of monomials adds keys and the constant term has key 0.
    Never empty: a sum or product that cancels exactly is the int 0."""

    __slots__ = ()

    @classmethod
    def seed(cls, i: int, one) -> "Laurent":
        """s_(i+1), with the field's raw 1 as coefficient."""
        return cls({1 << SLOT * i: one})

    def __add__(self, other):
        if type(other) is not Laurent:
            if not other:
                return self
            other = {0: other}
        out = Laurent(self)
        for e, c in other.items():
            c += out.pop(e, 0)
            if c:
                out[e] = c
        return out or 0

    __radd__ = __add__

    def __neg__(self):
        return Laurent({e: -c for e, c in self.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other if other else -self

    def __mul__(self, other):
        if type(other) is not Laurent:
            return Laurent({e: c * other for e, c in self.items()}) if other else 0
        out = Laurent()
        for e1, c1 in self.items():
            for e2, c2 in other.items():
                c = out.pop(e1 + e2, 0) + c1 * c2
                if c:
                    out[e1 + e2] = c
        return out or 0

    __rmul__ = __mul__

    def __mod__(self, p):
        return Laurent({e: r for e, c in self.items() if (r := c % p)}) or 0

    @property
    def denominator(self) -> int:
        return math.lcm(*(c.denominator for c in self.values()))

    @property
    def numerator(self) -> "Laurent":
        d = self.denominator
        return Laurent({e: c.numerator * (d // c.denominator) for e, c in self.items()})


def exponents(key: int) -> List[int]:
    """The balanced digits of a packed exponent vector, e1 first, trailing
    zeros dropped."""
    half, out = 1 << (SLOT - 1), []
    while key:
        e = (key + half) % (2 * half) - half
        out.append(e)
        key = (key - e) >> SLOT
    return out


def quotient(a, b, p):
    """a / b for raw values or Laurent monomials, b nonzero: a Laurent
    monomial, or a raw value when the seeds cancel.  An exponent at the cap
    raises ``Fallback``: the solver and the check add at most four solved
    exponents, which then stay within their digit of the packed key."""
    (ea, ca), = a.items() if type(a) is Laurent else ((0, a),)
    (eb, cb), = b.items() if type(b) is Laurent else ((0, b),)
    c = Fraction(ca) / cb if p is None else ca * pow(cb, -1, p) % p
    if any(abs(e) >= EXPONENT_CAP for e in exponents(ea - eb)):
        raise Fallback
    return Laurent({ea - eb: c}) if ea != eb else c
