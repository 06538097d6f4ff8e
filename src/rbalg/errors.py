"""Exception types shared across the library."""


class RBAlgebraError(Exception):
    """Base class for every library-specific error."""


class ZeroDenominator(RBAlgebraError):
    pass


class NonInvertibleModP(RBAlgebraError):
    """Denominator divisible by the field characteristic."""


class DivisionByZero(RBAlgebraError):
    pass


class MixedFieldSpecs(RBAlgebraError):
    pass


class MixedAlgebras(RBAlgebraError):
    pass


class DegreeBoundExceeded(RBAlgebraError):
    """An operator was applied to a monomial above its defined degree range."""


class ZeroWeight(RBAlgebraError):
    pass


class NonzeroWeight(RBAlgebraError):
    pass


class InvalidAutomorphism(RBAlgebraError):
    pass


class InvalidParams(RBAlgebraError):
    pass


class CharacteristicObstruction(RBAlgebraError):
    """A required denominator vanishes in the prime field.

    ``index`` identifies the offending source (an exponent or exponent tuple).
    """

    def __init__(self, message: str, index=None):
        super().__init__(message)
        self.index = index


class DenominatorVanishes(RBAlgebraError):
    """A family denominator is zero for some exponent; ``where`` names it."""

    def __init__(self, message: str, where=None):
        super().__init__(message)
        self.where = where


class NotASubalgebra(RBAlgebraError):
    """A splitting part is not multiplicatively closed.

    ``part`` is 1 or 2, ``witness`` the offending pair of monomials.
    """

    def __init__(self, message: str, part=None, witness=None):
        super().__init__(message)
        self.part = part
        self.witness = witness


class SearchBudgetExceeded(RBAlgebraError):
    """A search hit its budget; ``stats`` is the shape search's state at
    the abort (a copy of its ``SearchStats``), None for other searches."""

    def __init__(self, message: str, stats=None):
        super().__init__(message)
        self.stats = stats


class NonUnitalAlgebra(RBAlgebraError):
    pass


class NonSplitSpectrum(RBAlgebraError):
    """An eigenvalue of the operator lies outside the ground field."""


class ZeroArgument(RBAlgebraError):
    pass
