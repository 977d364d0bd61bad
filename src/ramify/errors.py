"""Shared exception taxonomy.

Every error raised on bad input or an exhausted precision window derives from
:class:`RamifyError` (CLI exit code 1).  A violated mathematical identity is a
:class:`VerificationFailure` (CLI exit code 2) — those are never raised for
malformed input, only when an exact check that should hold comes out false.
"""


class RamifyError(Exception):
    """Base class for input / precision / capability errors."""


# -- fields ------------------------------------------------------------------

class NotPrime(RamifyError):
    pass


class EvenCharacteristic(RamifyError):
    """p = 2 rejected everywhere; the whole library assumes odd p."""


class CapExceeded(RamifyError):
    """A configurable size cap (dlog table, coset enumeration, Witt length) was hit."""


class ZeroInput(RamifyError):
    pass


# -- cyclo -------------------------------------------------------------------

class DivisionByZero(RamifyError):
    pass


class IncompatibleLevels(RamifyError):
    """embed(M -> N) requires M | N; galois(a) at level N, gcd(a, N) = 1."""


# -- series ------------------------------------------------------------------

class NonUnitLeadingCoefficient(RamifyError):
    pass


class PrecisionExhausted(RamifyError):
    """A needed coefficient lies outside the guaranteed window."""


# -- witt --------------------------------------------------------------------

class LengthMismatch(RamifyError):
    pass


class ZeroVector(RamifyError):
    pass


class TameInput(RamifyError):
    """Operation needs a wildly ramified input (filtration level >= 1)."""


class NotReduced(RamifyError):
    pass


# -- characters --------------------------------------------------------------

class ZeroArgument(RamifyError):
    pass


# -- epsilon -----------------------------------------------------------------

class WildInput(RamifyError):
    """Operation only accepts conductor <= 1."""


class UnramifiedInput(RamifyError):
    pass


class InseparableInput(RamifyError):
    pass


# -- lft ---------------------------------------------------------------------

class InseparableB(RamifyError):
    pass


class NotLegendre(RamifyError):
    pass


class SlopeConditionViolated(RamifyError):
    pass


class HypothesisViolated(RamifyError):
    pass


class DegenerateOrder(RamifyError):
    pass


class InconsistentInput(RamifyError):
    pass


class WrongSourcePoint(RamifyError):
    pass


# -- cli ---------------------------------------------------------------------

class SchemaError(RamifyError):
    pass


class VerificationFailure(Exception):
    """An exact identity that should hold came out false (CLI exit code 2)."""

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail or {}
