"""Exact scalar arithmetic over the rationals and over prime fields GF(p).

Every coefficient in the library is a :class:`FieldElement` tied to a
:class:`FieldSpec`.  Rational values are backed by arbitrary-precision
:class:`fractions.Fraction` (always in lowest terms with positive
denominator); prime-field values are reduced residues in ``[0, p)``.
Elements are immutable, canonical and hashable, so equal values always
have identical representations and can serve as dict keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

from .errors import (
    DivisionByZero,
    MixedFieldSpecs,
    NonInvertibleModP,
    ZeroDenominator,
)

PRIME_LIMIT = 1 << 31


class FieldKind(Enum):
    RATIONALS = "Q"
    PRIME = "Fp"


def _check_prime(p: int) -> None:
    # Trial division; fine for the 31-bit desk-scale cap.
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"field characteristic must be an integer >= 2, got {p!r}")
    if p >= PRIME_LIMIT:
        raise ValueError(f"prime {p} exceeds the 31-bit limit")
    if p % 2 == 0 and p != 2:
        raise ValueError(f"{p} is not prime (divisible by 2)")
    d = 3
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"{p} is not prime (divisible by {d})")
        d += 2


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient domain: the rationals, or GF(p) for a prime p."""

    kind: FieldKind
    p: Union[int, None] = None

    def __post_init__(self):
        if self.kind is FieldKind.PRIME:
            if self.p is None:
                raise ValueError("a prime field needs a characteristic")
            _check_prime(self.p)
        elif self.p is not None:
            raise ValueError("the rational field takes no characteristic")

    # -- element constructors -------------------------------------------

    def element(self, numerator: int, denominator: int = 1) -> "FieldElement":
        """Canonical element representing numerator/denominator."""
        if denominator == 0:
            raise ZeroDenominator(f"{numerator}/0 is not a field element")
        if self.kind is FieldKind.RATIONALS:
            return FieldElement(self, Fraction(numerator, denominator))
        if denominator % self.p == 0:
            raise NonInvertibleModP(
                f"denominator {denominator} is divisible by {self.p}"
            )
        value = numerator * pow(denominator, -1, self.p) % self.p
        return FieldElement(self, value)

    def from_int(self, n: int) -> "FieldElement":
        return self.element(n)

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def parse(self, text: str) -> "FieldElement":
        """Inverse of str(): accepts "a/b", "a" and "k mod p"."""
        text = text.strip()
        if " mod " in text:
            if self.kind is not FieldKind.PRIME:
                raise ValueError(f"{text!r} names a prime-field element")
            residue, modulus = text.split(" mod ")
            if int(modulus) != self.p:
                raise MixedFieldSpecs(f"{text!r} does not live in GF({self.p})")
            return self.element(int(residue))
        if "/" in text:
            num, den = text.split("/")
            return self.element(int(num), int(den))
        return self.element(int(text))

    # -- rendering -------------------------------------------------------

    def to_string(self) -> str:
        if self.kind is FieldKind.RATIONALS:
            return "Q"
        return f"Fp:{self.p}"

    @staticmethod
    def from_string(text: str) -> "FieldSpec":
        text = text.strip()
        if text == "Q":
            return rationals()
        if text.startswith("Fp:"):
            return prime_field(int(text[3:]))
        raise ValueError(f"unknown field spec {text!r} (expected 'Q' or 'Fp:<p>')")

    def __str__(self) -> str:
        return self.to_string()


def rationals() -> FieldSpec:
    return FieldSpec(FieldKind.RATIONALS)


def prime_field(p: int) -> FieldSpec:
    return FieldSpec(FieldKind.PRIME, p)


QQ = rationals()


@dataclass(frozen=True)
class FieldElement:
    """An immutable canonical scalar; arithmetic is exact and pure."""

    spec: FieldSpec
    value: Union[Fraction, int]

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.value == 0

    def is_one(self) -> bool:
        return self.value == 1

    def __bool__(self) -> bool:
        return self.value != 0

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise MixedFieldSpecs(f"cannot mix {self.spec} with {other.spec}")
            return other
        if isinstance(other, int):
            return self.spec.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.spec.kind is FieldKind.RATIONALS:
            return FieldElement(self.spec, self.value + other.value)
        return FieldElement(self.spec, (self.value + other.value) % self.spec.p)

    __radd__ = __add__

    def __neg__(self):
        if self.spec.kind is FieldKind.RATIONALS:
            return FieldElement(self.spec, -self.value)
        return FieldElement(self.spec, -self.value % self.spec.p)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.spec.kind is FieldKind.RATIONALS:
            return FieldElement(self.spec, self.value * other.value)
        return FieldElement(self.spec, (self.value * other.value) % self.spec.p)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("zero has no inverse")
        if self.spec.kind is FieldKind.RATIONALS:
            return FieldElement(self.spec, 1 / self.value)
        return FieldElement(self.spec, pow(self.value, -1, self.spec.p))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero")
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if self.spec.kind is FieldKind.RATIONALS:
            return FieldElement(self.spec, self.value**exponent)
        return FieldElement(self.spec, pow(self.value, exponent, self.spec.p))

    # -- ordering / rendering ---------------------------------------------

    def sort_key(self):
        """Deterministic order among elements of the same field."""
        return self.value

    def __str__(self) -> str:
        if self.spec.kind is FieldKind.RATIONALS:
            return str(self.value)
        return f"{self.value} mod {self.spec.p}"

    def short_str(self) -> str:
        """Rendering without the field decoration, for use in context."""
        return str(self.value)

    def __repr__(self) -> str:
        return f"FieldElement({self.spec}, {self.value})"

