import pytest

from carlitz_hw import Modulus, make_field, parse_poly
from carlitz_hw.digits import target_degree
from carlitz_hw.invariants import defect_pass, genus
from carlitz_hw.powersums import RootSums


def coordinates(table, packed):
    """The d*e F_p coordinates of a packed LogTable sum, each reduced mod p:
    the oracle of RootSums.vanishes, which reads the packed sum directly."""
    return [(packed >> s & table.mask) % table.p for s in table.shifts]


def add_coordinates(table, terms):
    """The F_p coordinates of the sum of these packed residues, added
    coordinate by coordinate mod p, whatever the packing."""
    total = [0] * len(table.shifts)
    for term in terms:
        total = [(a + b) % table.p for a, b in zip(total, coordinates(table, term))]
    return total


def spy_reads(monkeypatch, record):
    """Call record(sums, degrees, n, vanishes) at every read of a RootSums,
    whether one exponent (vanishes) or a batch of them (vanishing) asks."""
    one, batch = RootSums.vanishes, RootSums.vanishing

    def vanishes(self, degrees, n):
        flag = one(self, degrees, n)
        record(self, degrees, n, flag)
        return flag

    def vanishing(self, degrees, ns):
        flags = batch(self, degrees, ns)
        for n, flag in zip(ns, flags):
            record(self, degrees, n, flag)
        return flags

    monkeypatch.setattr(RootSums, "vanishes", vanishes)
    monkeypatch.setattr(RootSums, "vanishing", vanishing)


@pytest.fixture(autouse=True)
def _default_budget(monkeypatch):
    """Every test starts at the default budget, whatever CARLITZ_HW_BUDGET the
    test runner's environment holds; a test sets it with monkeypatch.setenv."""
    monkeypatch.delenv("CARLITZ_HW_BUDGET", raising=False)


@pytest.fixture(scope="session")
def f2():
    return make_field(2)


@pytest.fixture(scope="session")
def f3():
    return make_field(3)


@pytest.fixture(scope="session")
def f5():
    return make_field(5)


@pytest.fixture(scope="session")
def f4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def m_headline(f3):
    return Modulus(parse_poly("T^3+2T+1", f3))


def reduced_degree(n, sums, target, zero_class):
    """The u-degree of B_n mod m, read top-down from the power sums of m at
    one of its roots: the largest j <= target whose u^j coefficient does not
    vanish, and 0 when none does, as the u^0 coefficient is 1.  That
    coefficient is s_j(n), and in the zero class, where n is a trivial zero
    of the Carlitz-Goss zeta function and C_n(1) = 0, the partial sum
    P_j = 1 + s_1 + ... + s_j.  An exponent at its target costs one read.
    The per-exponent oracle of the degree engine, whose reads it makes one
    at a time; oracle._bbar_degree, which builds B_n mod m, is its own."""
    for j in range(target, 0, -1):
        if not sums.vanishes(range(0 if zero_class else j, j + 1), n):
            return j
    return 0


def _naive_stream(m):
    """(n, degree, target) at every 1 <= n <= q^d - 2, each degree read by
    reduced_degree from the target of its own exponent
    (digits.target_degree), with no orbit memo and no orbit table: the
    oracle of invariants.defect_pass and invariants.first_defects."""
    sums, q1 = RootSums.of(m), m.ctx.q - 1
    out = []
    for n in range(1, m.group_order):
        tgt = target_degree(n, m.ctx)
        out.append((n, reduced_degree(n, sums, tgt, n % q1 == 0), tgt))
    return out


@pytest.fixture(scope="session")
def naive_stream():
    return _naive_stream


def full_pass_stream(sums):
    """(n, size, degree, target) for every orbit of n -> q*n but {0} in
    sums.table.orbits, in ascending n, as the full pass
    (invariants.defect_pass) finds them: a defective orbit at the degree
    defect_pass lists it with, every other one at its target."""
    table = sums.table
    defective = defect_pass(sums, genus(table.ctx, table.d))[4]
    degrees = {n: deg for n, _, deg, _ in defective}
    return [(n, size, degrees.get(n, tgt), tgt) for n, size, _, tgt in table.orbits[1:]]


def expand_orbits(m, stream):
    """The (n, degree, target) of every member of each orbit
    (n, size, degree, target) of full_pass_stream, in ascending n, for
    comparison with naive_stream.  Each orbit's members are
    {n*q^j mod N}; their count must be size and n the least of them."""
    q, order = m.ctx.q, m.group_order
    out = []
    for n, size, deg, tgt in stream:
        members = {n * q**j % order for j in range(m.d)}
        assert (len(members), min(members)) == (size, n), (n, size, members)
        out.extend((k, deg, tgt) for k in members)
    return sorted(out)
