import inspect
import pickle

import pytest

from carlitz_hw import errors

# 2^20000 - 1 and 3^9100 have more digits than str() converts by default
_SAMPLES = [
    errors.CarlitzHWError("a library error"),
    errors.DomainError("n must be >= 1, got 0"),
    errors.NotPrimeError(6),
    errors.ReducibleModulusError("field_modulus is reducible over F_3"),
    errors.PolyParseError("unbalanced ']'", "T+1]", 3),
    errors.CoefficientRangeError("field_modulus coefficients must lie in [0,p)"),
    errors.DegreeTooSmallError("a modulus has degree >= 1"),
    errors.OutOfRangeError("i must be >= 0, got -1"),
    errors.ClosedFormWindowError(9, "n has more than two base-3 digits"),
    errors.PrimeFieldOnlyError("closed form requires q = p"),
    errors.InternalError("T^26 != 1 in the discrete-log table of F_27"),
    errors.ParityError("2g = 7 is odd"),
    errors.ResourceLimitError("A process in the process pool was terminated abruptly"),
    errors.OverflowLimitError("q = p^e", 2**41, 2**40),
    errors.OverflowLimitError("q^d - 1", 2**20000 - 1, 2**40),
    errors.CostCeilingError("s_mod(i=2, n=25)", 405, 404),
    errors.CostCeilingError("s_exact(i=9100, n=2)", 3**9100, 10**9),
]


def test_every_error_class_has_a_sample():
    defined = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, Exception) and cls.__module__ == errors.__name__}
    assert {type(e) for e in _SAMPLES} == defined


@pytest.mark.parametrize("exc", _SAMPLES, ids=lambda e: type(e).__name__)
def test_error_pickles_as_itself(exc):
    # a scan worker's error reaches the parent process this way
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc) and back.args == exc.args
    assert (str(back), repr(back)) == (str(exc), repr(exc))


_MESSAGES = [
    (errors.NotPrimeError(6), "6 is not prime"),
    (errors.PolyParseError("unbalanced ']'", "T+1]", 3),
     "unbalanced ']' at position 3: 'T+1]'"),
    (errors.ClosedFormWindowError(9, "n has more than two base-3 digits"),
     "closed form not applicable for n=9: n has more than two base-3 digits"),
    (errors.OverflowLimitError("q = p^e", 2**41, 2**40),
     "q = p^e = 2199023255552 exceeds the configured limit 1099511627776"),
    (errors.OverflowLimitError("q^d - 1", 2**20000 - 1, 2**40),
     "q^d - 1 = <6021-digit integer> exceeds the configured limit 1099511627776"),
    (errors.CostCeilingError("s_mod(i=2, n=25)", 405, 404),
     "s_mod(i=2, n=25) estimated cost 405 exceeds budget 404"),
    (errors.CostCeilingError(f"s_exact(i=1, n={10**26 - 1})", 261 * 10**26, 10**9),
     f"s_exact(i=1, n={10**26 - 1}) estimated cost 26100000000000000000000000000 "
     "exceeds budget 1000000000"),
    (errors.CostCeilingError("s_exact(i=9100, n=2)", 3**9100, 10**9),
     "s_exact(i=9100, n=2) estimated cost <4342-digit integer> exceeds budget 1000000000"),
]


@pytest.mark.parametrize("exc,text", _MESSAGES, ids=[type(e).__name__ for e, _ in _MESSAGES])
def test_error_message_is_built_from_its_arguments(exc, text):
    # repr is Name('message'), as for an error built from its message alone
    assert str(exc) == text
    assert repr(exc) == f"{type(exc).__name__}({text!r})"
