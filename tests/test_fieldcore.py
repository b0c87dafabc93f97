import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlitz_hw import make_field
from carlitz_hw.errors import (
    CoefficientRangeError,
    DomainError,
    NotPrimeError,
    OverflowLimitError,
    ReducibleModulusError,
)
from carlitz_hw.fieldcore import DEFAULT_LIMIT, checked_power, is_prime, power


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_make_field_prime_field():
    ctx = make_field(3, 1)
    assert (ctx.p, ctx.e, ctx.q) == (3, 1, 3)
    assert ctx.field_modulus == (0, 1)
    assert ctx.format_field_modulus() == "x"


def test_make_field_default_modulus_f4():
    ctx = make_field(2, 2)
    assert ctx.q == 4
    assert ctx.field_modulus == (1, 1, 1)
    assert ctx.format_field_modulus() == "x^2+x+1"


@pytest.mark.parametrize("p,e,field_modulus,text", [
    (3, 2, None, "x^2+1"),
    (7, 3, None, "x^3+2"),
    (5, 2, (2, 4, 1), "x^2+4*x+2"),
])
def test_format_field_modulus(p, e, field_modulus, text):
    assert make_field(p, e, field_modulus).format_field_modulus() == text


@pytest.mark.parametrize("p,e,modulus", [
    (2, 3, (1, 1, 0, 1)),
    (2, 4, (1, 1, 0, 0, 1)),
    (2, 5, (1, 0, 1, 0, 0, 1)),
    (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)),
    (3, 2, (1, 0, 1)),
    (3, 4, (2, 1, 0, 0, 1)),
    (5, 2, (2, 0, 1)),
    (5, 4, (2, 0, 0, 0, 1)),
    (7, 3, (2, 0, 0, 1)),
    (13, 2, (2, 0, 1)),
])
def test_make_field_default_modulus_is_code_order_least(p, e, modulus):
    assert make_field(p, e).field_modulus == modulus


def test_make_field_rejects_reducible():
    with pytest.raises(ReducibleModulusError):
        make_field(2, 2, [1, 0, 1])  # x^2+1 = (x+1)^2


def test_make_field_rejects_nonprime():
    with pytest.raises(NotPrimeError):
        make_field(4)
    with pytest.raises(NotPrimeError):
        make_field(1)


def test_make_field_overflow():
    with pytest.raises(OverflowLimitError):
        make_field(2, 41)


def test_checked_power_at_the_limit():
    assert checked_power("q^d", 2, 40) == DEFAULT_LIMIT
    assert checked_power("q^d - 1", 2, 40, minus_one=True) == DEFAULT_LIMIT - 1
    assert checked_power("q^i", 7, 0) == 1
    with pytest.raises(OverflowLimitError) as info:
        checked_power("q^d", 2, 41)
    assert info.value.args == ("q^d", 2**41, DEFAULT_LIMIT)


@pytest.mark.parametrize("base,k,minus_one,value", [
    (2, 2**19, False, 2**2**19),                # 2^20 bits at most: built
    (2, 2**19 + 1, False, "2^524289"),          # past them: named
    (3, 9999999, True, "3^9999999 - 1"),
    (2**40 - 87, 10**40, False, "1099511627689^<41-digit integer>"),
], ids=["built", "named", "minus-one", "long-exponent"])
def test_checked_power_names_a_power_past_2_to_the_20_bits(base, k, minus_one, value):
    with pytest.raises(OverflowLimitError) as info:
        checked_power("q^d", base, k, minus_one)
    assert info.value.args == ("q^d", value, DEFAULT_LIMIT)


def test_field_poly_only_for_extensions():
    with pytest.raises(DomainError):
        make_field(3, 1, [1, 1])


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (5, 2)])
def test_field_axioms_exhaustive(p, e):
    ctx = make_field(p, e)
    q = ctx.q
    elems = range(q)
    for a in elems:
        assert ctx.add(a, ctx.neg(a)) == 0
        assert ctx.pow(a, ctx.q) == a  # Frobenius to the e-th power is identity
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
            assert ctx.pow(a, q - 1) == 1
        for b in elems:
            assert ctx.mul(a, b) == ctx.mul(b, a)
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.pow(ctx.add(a, b), ctx.p) == ctx.add(
                ctx.pow(a, ctx.p), ctx.pow(b, ctx.p))


def _mul_oracle(ctx, a, b):
    # independent vector arithmetic: schoolbook product, long division by
    # the (monic) field modulus
    p, e = ctx.p, ctx.e
    va = [(a // p**j) % p for j in range(e)]
    vb = [(b // p**j) % p for j in range(e)]
    raw = [0] * (2 * e - 1)
    for i, x in enumerate(va):
        for j, y in enumerate(vb):
            raw[i + j] = (raw[i + j] + x * y) % p
    mod = list(ctx.field_modulus)
    for k in range(len(raw) - 1, e - 1, -1):
        c = raw[k]
        if c:
            for j in range(e + 1):
                raw[k - e + j] = (raw[k - e + j] - c * mod[j]) % p
    code = 0
    for c in reversed(raw[:e]):
        code = code * p + c
    return code


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)])
def test_mul_against_vector_oracle(p, e):
    ctx = make_field(p, e)
    for a in range(ctx.q):
        for b in range(ctx.q):
            assert ctx.mul(a, b) == _mul_oracle(ctx, a, b)


def test_enumeration_order_f4(f4):
    # codes 0..q-1 name the elements, the x^0 coordinate fastest
    assert [f4.format_elem(a) for a in range(f4.q)] == \
        ["[0,0]", "[1,0]", "[0,1]", "[1,1]"]


def test_f3_known_values(f3):
    assert f3.mul(2, 2) == 1
    # additive pairing: the elements of F_3 sum to zero
    total = 0
    for a in range(f3.q):
        total = f3.add(total, a)
    assert total == 0


def test_f4_known_values(f4):
    x = 2  # the class of x
    assert f4.mul(x, x) == 3  # x^2 = x + 1


def test_inverse_of_zero_raises(f3):
    with pytest.raises(ZeroDivisionError):
        f3.inv(0)


def test_pow_rejects_negative(f3):
    with pytest.raises(DomainError):
        f3.pow(2, -1)


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (3, 2), (5, 2)])
def test_elem_literal_round_trip(p, e):
    ctx = make_field(p, e)
    for a in range(ctx.q):
        assert ctx.parse_elem(ctx.format_elem(a)) == a


def _computed_literal(ctx, a):
    return "[" + ",".join(str(c) for c in ctx.decode(a)) + "]"


# q <= 64 keeps the q literals beside its tables; F_81 computes each one
@pytest.mark.parametrize("p,e,cached", [(2, 2, True), (2, 3, True), (3, 2, True),
                                        (5, 2, True), (2, 6, True), (3, 4, False)])
def test_format_elem_reads_its_literals_where_the_tables_are(p, e, cached):
    ctx = make_field(p, e)
    assert (ctx._names is not None) == cached
    for a in range(ctx.q):
        text = ctx.format_elem(a)
        assert text == _computed_literal(ctx, a)
        assert ctx.parse_elem(text) == a
    # a code outside [0, q) takes the computed path: no wrap-around, no IndexError
    for a in (-1, -ctx.q, ctx.q, ctx.q + 1):
        assert ctx.format_elem(a) == _computed_literal(ctx, a)


def test_parse_elem_range_errors(f3, f4):
    with pytest.raises(CoefficientRangeError):
        f3.parse_elem("3")
    with pytest.raises(CoefficientRangeError):
        f4.parse_elem("[2,0]")
    with pytest.raises(CoefficientRangeError):
        f4.parse_elem("[1,1,1]")
    with pytest.raises(CoefficientRangeError):
        f4.parse_elem("1,1")


@given(a=st.integers(0, 1008), b=st.integers(0, 1008), k=st.integers(0, 3000))
@settings(max_examples=200, deadline=None)
def test_prime_field_matches_int_arithmetic(a, b, k):
    # e = 1 must behave exactly like residue arithmetic mod p
    ctx = make_field(1009)
    assert ctx.add(a, b) == (a + b) % 1009
    assert ctx.mul(a, b) == (a * b) % 1009
    assert ctx.sub(a, b) == (a - b) % 1009
    assert ctx.pow(a, k) == pow(a, k, 1009)


def test_power_takes_no_square_after_the_last_bit():
    products = []

    def mul(x, y):
        products.append((x, y))
        return x * y

    for n in range(40):
        products.clear()
        assert power(3, n, mul, 1) == 3**n
        # one product per set bit, one square per bit below the top one
        assert len(products) == bin(n).count("1") + max(n.bit_length() - 1, 0)


def test_no_table_field_matches_tabled_semantics():
    # F_121 is above the table threshold; spot-check axioms on a sample
    ctx = make_field(11, 2)
    sample = [0, 1, 2, 13, 37, 59, 100, 120]
    for a in sample:
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
        for b in sample:
            assert ctx.mul(a, b) == _mul_oracle(ctx, a, b)
