import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlitz_hw import NEG_INF, gekeler_degree_bound, make_field, target_degree
from carlitz_hw.digits import base_q_digits, ell, rho, rho_exponents
from carlitz_hw.errors import OutOfRangeError
from carlitz_hw.powersums import residue_field


def test_base_q_digits_examples():
    assert (base_q_digits(5, 3), ell(5, 3)) == ((2, 1), 3)
    assert (base_q_digits(8, 3), ell(8, 3)) == ((2, 2), 4)


@pytest.mark.parametrize("p,e,d", [(3, 1, 3), (2, 2, 2), (5, 1, 2), (2, 1, 4)])
def test_top_exponent_digit_sum(p, e, d):
    ctx = make_field(p, e)
    q = ctx.q
    assert ell(q**d - 2, q) == d * (q - 1) - 1


def test_target_degree_range_errors(f3):
    with pytest.raises(OutOfRangeError):
        target_degree(0, f3)


def test_target_degree_examples(f3):
    assert target_degree(5, f3) == 1
    assert target_degree(8, f3) == 1
    assert target_degree(2, f3) == 0


@pytest.mark.parametrize("p,e,d", [(2, 1, 1), (3, 1, 3), (2, 2, 3), (5, 1, 2), (2, 1, 6),
                                   (2, 2, 6), (3, 2, 2)])
def test_target_degrees_table_matches_per_exponent(p, e, d):
    # the degree engine reads each target once per orbit of n -> q*n, from
    # the table's orbit lists; every member n*q^j of the orbit has it
    ctx = make_field(p, e)
    table = residue_field(ctx, d)
    q, order = ctx.q, table.order
    assert 0 not in table.orbit_n  # n = 0, which the engine skips
    members = []
    for n, size, target in zip(table.orbit_n, table.orbit_size, table.orbit_target):
        for j in range(size):
            members.append(n * q**j % order)
            assert target_degree(members[-1], ctx) == target, (n, j)
    assert sorted(members) == list(range(1, order))


def test_rho_iterates_examples():
    assert (rho(5, 3), rho(3, 3)) == (3, NEG_INF)
    assert (rho(8, 3), rho(6, 3), rho(0, 3)) == (6, 0, NEG_INF)
    assert rho(1, 3) == NEG_INF
    # q = 5: 13 = 3*1 + 2*5 sheds 1+1+1+5, 12 sheds all four terms, 7 has three
    assert (rho(13, 5), rho(12, 5), rho(7, 5)) == (5, 0, NEG_INF)


def test_rho_base_two_strips_lowest_bit(f2):
    # q = 2: one step removes the lowest set bit
    assert (rho(6, 2), rho(4, 2), rho(0, 2)) == (4, 0, NEG_INF)
    assert rho(12, 2) == 8


def test_rho_of_zero(f3):
    assert rho(0, 3) == NEG_INF
    assert rho(NEG_INF, 3) == NEG_INF


def test_gekeler_degree_bound_examples(f3):
    assert gekeler_degree_bound(0, 5, f3) == 0
    assert gekeler_degree_bound(1, 5, f3) == 3
    assert gekeler_degree_bound(2, 5, f3) == NEG_INF
    assert gekeler_degree_bound(2, 8, f3) == 6


@given(n=st.integers(0, 10**6), q=st.sampled_from([2, 3, 4, 5, 9]))
@settings(max_examples=300, deadline=None)
def test_rho_exponents_are_the_powers_of_q_in_n(n, q):
    # rho strips the first q - 1 of them; its degree check is the gekeler suite
    exps = rho_exponents(n, q)
    assert sum(q**e for e in exps) == n
    assert list(exps) == sorted(exps)
    assert len(exps) == ell(n, q)


@pytest.mark.parametrize("p,e,d", [(2, 1, 3), (3, 1, 3), (2, 2, 2), (5, 1, 2)])
def test_digit_symmetry(p, e, d):
    ctx = make_field(p, e)
    q = ctx.q
    for n in range(1, q**d - 1):
        assert ell(n, q) + ell(q**d - 1 - n, q) == (q - 1) * d


@given(n=st.integers(1, 10**9), q=st.sampled_from([2, 3, 4, 5]))
@settings(max_examples=300, deadline=None)
def test_zero_class_congruence(n, q):
    # the digit sum is congruent to n mod q-1
    assert (ell(n, q) - n) % (q - 1) == 0
