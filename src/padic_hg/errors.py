"""Exception hierarchy shared across the package.

Every mathematically meaningful failure gets its own class so callers (and
the CLI) can map errors to names without string matching.
"""


class PadicHGError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(PadicHGError):
    """A modulus that must be an odd prime is not."""


class DegreeTooLarge(PadicHGError):
    """Requested field exceeds the desk-scale table cap."""


class PrecisionTooLarge(PadicHGError):
    """Requested p-adic precision needs gamma tables beyond the table cap."""


class DenominatorsTooLarge(PadicHGError):
    """Parameter denominators whose lcm overflows a G-kernel's packed digit
    sums."""


class SingularCurve(PadicHGError):
    """Weierstrass discriminant vanishes over the field."""


class DenominatorDivisibleByP(PadicHGError):
    """A rational argument lies outside Z_p."""


class ZeroInput(PadicHGError):
    """Teichmuller lift of 0 requested (excluded by the chi(0)=0 convention)."""


class ZeroArgument(PadicHGError):
    """G-function argument t = 0 (rejected; see gfunc design notes)."""


class NonConstantResult(PadicHGError):
    """A sum that must lie in Z/p^N has nonvanishing extension coordinates."""


class NonIntegralValue(PadicHGError):
    """A G-value has negative p-adic valuation and cannot be a PadicInt."""


class PrecisionUnderflow(PadicHGError):
    """p^N too small to determine an integer of the requested bound."""


class NoRepresentative(PadicHGError):
    """No integer within the bound matches the residue."""


class HypothesisViolation(PadicHGError):
    """A theorem's congruence/divisibility hypothesis does not hold."""


class FieldTooLarge(PadicHGError):
    """Complex character-sum oracle invoked beyond its precision headroom."""


class InvariantViolation(AssertionError):
    """An internal check failed: a bug.  Raised explicitly so it survives
    python -O, and not a PadicHGError, so no handler can count it a skip."""
