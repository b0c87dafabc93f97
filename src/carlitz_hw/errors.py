"""Exception hierarchy shared by all modules.

Three bases, mirroring the CLI exit codes: DomainError (bad user input,
exit 1), InternalError (an arithmetic identity that must hold was violated,
exit 2), ResourceLimitError (configured size/cost ceilings, exit 3).
Division by zero uses the builtin ZeroDivisionError.

Every error keeps its constructor arguments in args and builds its message
from them in __str__, so the default pickling rebuilds it as itself (a scan
worker's error reaches the CLI that way).  An integer of more than 30
digits in a limit error is named by its digit count, and a value too large
to build is given as text that names it.
"""

import math


class CarlitzHWError(Exception):
    """Base class for all library errors."""

    def __repr__(self):
        # Name('message'); the default would print every argument whole
        return f"{type(self).__name__}({str(self)!r})"


class DomainError(CarlitzHWError, ValueError):
    """Invalid input: out of range, unparsable, or failing a precondition."""


class NotPrimeError(DomainError):
    """p is not prime; args (p,)."""

    def __str__(self):
        (p,) = self.args
        return f"{p} is not prime"


class ReducibleModulusError(DomainError):
    """A field-defining polynomial or a modulus is not irreducible."""


class PolyParseError(DomainError):
    """Text does not match the polynomial grammar; args (message, text, pos)."""

    def __str__(self):
        message, text, pos = self.args
        return f"{message} at position {pos}: {text!r}"


class CoefficientRangeError(DomainError):
    """A coefficient literal lies outside [0, p)."""


class DegreeTooSmallError(DomainError):
    """Operation requires a polynomial of degree >= 1."""


class OutOfRangeError(DomainError):
    """Exponent or index outside its documented range."""


class ClosedFormWindowError(DomainError):
    """n outside the window where the degree-one closed form holds; args (n, why)."""

    def __str__(self):
        n, why = self.args
        return f"closed form not applicable for n={n}: {why}"


class PrimeFieldOnlyError(DomainError):
    """Operation is defined only over prime fields (e = 1)."""


class InternalError(CarlitzHWError, RuntimeError):
    """An invariant that must hold mathematically was violated: a bug."""


class ParityError(InternalError):
    """A genus formula produced an odd value for 2g."""


class ResourceLimitError(CarlitzHWError, RuntimeError):
    """A configured resource ceiling would be exceeded."""


class OverflowLimitError(ResourceLimitError):
    """A value exceeds the configured integer-width limit; args (what, value,
    limit), value an int or, when too large to build, the text naming it."""

    def __str__(self):
        what, value, limit = self.args
        return f"{what} = {_shown(value)} exceeds the configured limit {limit}"


class CostCeilingError(ResourceLimitError):
    """Estimated cost of a computation exceeds the budget; args (what, cost, limit)."""

    def __str__(self):
        what, cost, limit = self.args
        return f"{what} estimated cost {_shown(cost)} exceeds budget {limit}"


def _shown(value) -> str:
    """value in decimal, or as <k-digit integer> past 30 digits; k is found
    from the bit length, as str() refuses ints of over 4300 digits.  Text
    is shown as it is."""
    if isinstance(value, str):
        return value
    if abs(value) < 10**30:
        return str(value)
    # 2^(b-1) <= |value| < 2^b gives k or k + 1 digits
    k = int((abs(value).bit_length() - 1) * math.log10(2)) + 1
    return f"<{k + (abs(value) >= 10**k)}-digit integer>"
