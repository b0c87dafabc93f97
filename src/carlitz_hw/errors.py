"""Exception hierarchy shared by all modules.

Three bases, mirroring the CLI exit codes: DomainError (bad user input,
exit 1), InternalError (an arithmetic identity that must hold was violated,
exit 2), ResourceLimitError (configured size/cost ceilings, exit 3).
Division by zero uses the builtin ZeroDivisionError.
"""

import math


class CarlitzHWError(Exception):
    """Base class for all library errors."""


class DomainError(CarlitzHWError, ValueError):
    """Invalid input: out of range, unparsable, or failing a precondition."""


class NotPrimeError(DomainError):
    def __init__(self, p):
        super().__init__(f"{p} is not prime")
        self.p = p

    def __reduce__(self):
        return type(self), (self.p,)


class ReducibleModulusError(DomainError):
    """A field-defining polynomial or a modulus is not irreducible."""


class PolyParseError(DomainError):
    """Text does not match the polynomial grammar."""

    def __init__(self, message, text, pos):
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.message = message
        self.text = text
        self.pos = pos

    def __reduce__(self):
        return type(self), (self.message, self.text, self.pos)


class CoefficientRangeError(DomainError):
    """A coefficient literal lies outside [0, p)."""


class DegreeTooSmallError(DomainError):
    """Operation requires a polynomial of degree >= 1."""


class OutOfRangeError(DomainError):
    """Exponent or index outside its documented range."""


class ClosedFormWindowError(DomainError):
    """Exponent outside the window on which the degree-one closed form is valid."""

    def __init__(self, n, why=""):
        msg = f"closed form not applicable for n={n}"
        super().__init__(msg + (f": {why}" if why else ""))
        self.n = n
        self.why = why

    def __reduce__(self):
        return type(self), (self.n, self.why)


class PrimeFieldOnlyError(DomainError):
    """Operation is defined only over prime fields (e = 1)."""


class InternalError(CarlitzHWError, RuntimeError):
    """An invariant that must hold mathematically was violated: a bug."""


class ParityError(InternalError):
    """A genus formula produced an odd value for 2g."""


class ResourceLimitError(CarlitzHWError, RuntimeError):
    """A configured resource ceiling would be exceeded."""


class OverflowLimitError(ResourceLimitError):
    """A value exceeds the configured integer-width limit; a value of more
    than 30 digits is named by its digit count."""

    def __init__(self, what, value, limit):
        super().__init__(f"{what} = {_shown(value)} exceeds the configured limit {limit}")
        self.what = what
        self.value = value
        self.limit = limit

    def __reduce__(self):
        return type(self), (self.what, self.value, self.limit)


class CostCeilingError(ResourceLimitError):
    """Estimated cost of an exact computation exceeds the budget."""


def _shown(value: int) -> str:
    """value in decimal, or as <k-digit integer> past 30 digits; k is found
    from the bit length, as str() refuses ints of over 4300 digits."""
    if abs(value) < 10**30:
        return str(value)
    # 2^(b-1) <= |value| < 2^b gives k or k + 1 digits
    k = int((abs(value).bit_length() - 1) * math.log10(2)) + 1
    return f"<{k + (abs(value) >= 10**k)}-digit integer>"
