import signal
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtweave import (
    BudgetExceededError,
    ParameterError,
    Poly,
    VerificationError,
    field_create,
    field_from_order,
    find_primitive,
    polynomial,
    simplex_consta,
)
from conftest import (euler_phi, field_with_products, is_irreducible, order_of_x, poly_divmod,
                      poly_gcd, poly_mul, pow_mod, primitive_polys, scalar)

# GF(256): every division of the oracle test reads its add table by .item; the
# small fields read theirs as lists when the quotient is long enough
FIELDS = [field_from_order(q) for q in (2, 3, 4, 5, 8, 9, 256)]


def test_normalization_and_degree(gf3):
    p = Poly(gf3, (1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert Poly(gf3).degree == -1
    assert Poly(gf3).is_zero()


class Small(int):
    """An int subclass, which Field.check accepts like any other int."""


@pytest.mark.parametrize("bad", [True, False, 1.0, "1", None, 3, -1, 2**70, np.int64(1), np.uint8(2)])
def test_coefficients_are_validated_as_field_check_does(gf3, bad):
    with pytest.raises(ParameterError) as expected:
        gf3.check(bad)
    for coeffs in ((bad,), (1, 2, bad, 0), (bad, 1) + (0,) * 50):
        with pytest.raises(ParameterError) as got:
            Poly(gf3, coeffs)
        assert str(got.value) == str(expected.value)


def test_int_subclass_coefficients_are_accepted(gf3):
    assert Poly(gf3, (Small(2), 1, Small(0))).coeffs == (2, 1)
    assert Poly(gf3, iter([2, 0, 1])).coeffs == (2, 0, 1)  # any iterable, read once


def test_str(gf2, gf3):
    assert str(Poly(gf2, (1, 1, 1, 0, 1))) == "x^4 + x^2 + x + 1"
    assert str(Poly(gf3, (2, 2, 1))) == "x^2 + 2x + 2"
    assert str(Poly(gf3)) == "0"
    assert str(Poly(gf3, (1,))) == "1"
    assert str(Poly(gf3, (0, 1))) == "x"


def test_divrem_binary_factorization(gf2):
    # x^7 + 1 = (x^3 + x + 1)(x^4 + x^2 + x + 1) over GF(2)
    dividend = Poly(gf2, (1,) + (0,) * 6 + (1,))
    divisor = Poly(gf2, (1, 1, 0, 1))
    quot, rem = divmod(dividend, divisor)
    assert quot == Poly(gf2, (1, 1, 1, 0, 1))
    assert rem.is_zero()


def test_divrem_ternary_quadratic(gf3):
    # (x^4 + 1) / (x^2 + 2x + 2) = x^2 + x + 2 exactly
    dividend = Poly(gf3, (1, 0, 0, 0, 1))
    divisor = Poly(gf3, (2, 2, 1))
    quot, rem = divmod(dividend, divisor)
    assert quot == Poly(gf3, (2, 1, 1))
    assert rem.is_zero()


def test_self_division(gf3):
    a = Poly(gf3, (1, 0, 2, 1))
    assert divmod(a, a) == (Poly(gf3, (1,)), Poly(gf3))


def test_division_by_zero(gf3):
    with pytest.raises(ZeroDivisionError):
        divmod(Poly(gf3, (1,)), Poly(gf3))


def test_division_across_fields_and_the_lead_of_zero_are_refused(gf2, gf3):
    with pytest.raises(ParameterError, match="^operands belong to different fields$"):
        divmod(Poly(gf3, (1, 1)), Poly(gf2, (1, 1)))
    with pytest.raises(ParameterError, match="^the zero polynomial has no leading coefficient$"):
        Poly(gf3).lc


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_divmod_matches_the_schoolbook_oracle(data):
    """divmod against conftest.poly_divmod, which shares no arithmetic with it."""
    field = data.draw(st.sampled_from(FIELDS))
    element, nonzero = st.integers(0, field.q - 1), st.integers(1, field.q - 1)
    coeffs_a = data.draw(st.lists(element, max_size=400))
    kind = data.draw(st.sampled_from(["dense", "sparse", "constant"]))
    if kind == "dense":  # any leading coefficient, so often non-monic
        coeffs_b = data.draw(st.lists(element, min_size=1, max_size=5))
    elif kind == "sparse":  # at most three taps below a lead of degree up to 40
        degree = data.draw(st.integers(1, 40))
        taps = data.draw(st.dictionaries(st.integers(0, degree - 1), nonzero, max_size=3))
        coeffs_b = [taps.get(i, 0) for i in range(degree)] + [data.draw(nonzero)]
    else:
        coeffs_b = [data.draw(nonzero)]
    b = Poly(field, coeffs_b)
    if b.is_zero():
        return
    quot, rem = divmod(Poly(field, coeffs_a), b)
    assert (quot.coeffs, rem.coeffs) == poly_divmod(field, coeffs_a, coeffs_b)
    assert rem.degree < b.degree


# (q, t) of every benchmark workload (sweep, deep, wide, cli), and q=2 t=14
X_TO_THE_M_FAMILIES = ((2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2), (5, 2), (7, 2), (8, 2),
                       (9, 2), (2, 9), (4, 4), (3, 4), (2, 14))


@pytest.mark.parametrize("q, t", X_TO_THE_M_FAMILIES)
def test_x_to_the_m_is_g_h_plus_a_twist_of_order_q_minus_1(q, t):
    field = field_from_order(q)
    h = find_primitive(field, t, limit=1)[0]
    m = (q**t - 1) // (q - 1)
    quot, rem = divmod(Poly.monomial(field, m), h)
    assert (quot.coeffs, rem.coeffs) == poly_divmod(field, (0,) * m + (1,), h.coeffs)
    assert rem.degree == 0  # a nonzero constant lam
    f, lam = scalar(field), rem.coeffs[0]
    powers = [lam]
    while powers[-1] != 1:
        powers.append(f.mul(powers[-1], lam))
    assert len(powers) == q - 1


def test_gcd(gf2, gf3):
    a = (2, 0, 2)  # 2(x^2 + 1)
    assert poly_gcd(gf3, a, ()) == (1, 0, 1)
    assert poly_gcd(gf3, a, a) == (1, 0, 1)
    assert poly_gcd(gf3, a, poly_mul(gf3, (1, 1), (1, 0, 1))) == (1, 0, 1)
    # the two irreducible cubics dividing x^7 + 1 are coprime
    assert poly_gcd(gf2, (1, 1, 0, 1), (1, 0, 1, 1)) == (1,)
    with pytest.raises(ParameterError):
        poly_gcd(gf3, (), (0,))


def x_pow_mod(n, h):
    """x^n modulo the monic h by polynomial._x_pow, the kernel of find_primitive, as coefficients.

    The kernel runs on the tables as nested lists and as numpy arrays, the two
    forms find_primitive reads, which must agree.
    """
    add, mul, neg = h.field.tables[:3]
    ntail = [neg.item(c) for c in h.coeffs[:-1]]
    on_lists = polynomial._x_pow(n, ntail, add.tolist(), mul.tolist())
    assert polynomial._x_pow(n, ntail, add, mul) == on_lists
    return Poly(h.field, on_lists).coeffs


def test_x_pow_mod(gf2, gf3):
    h3 = Poly(gf3, (2, 2, 1))  # x^2 + 2x + 2
    assert x_pow_mod(4, h3) == (2,)
    h2 = Poly(gf2, (1, 1, 0, 1))
    assert x_pow_mod(7, h2) == (1,)
    assert x_pow_mod(0, h3) == (1,)
    # square-and-multiply on the tables against square-and-multiply on the conftest
    # arithmetic, for primitive, irreducible, reducible and non-unit moduli; GF(4),
    # GF(8) and GF(256) square by the Frobenius map with a^2 != a for some a
    for field, tails in ((gf2, [(1, 0, 1, 0, 0), (1, 1, 1, 1), (0, 1, 1)]),
                         (gf3, [(1, 0, 1), (2, 2, 0, 1), (1, 2)]),
                         (field_from_order(9), [(3, 3), (5, 0, 7), (1,)]),
                         (field_from_order(4), [(2, 1), (3, 0, 2, 1), (0, 3), (1,)]),
                         (field_from_order(8), [(5, 1), (3, 7, 0, 6), (0, 0, 4)]),
                         (field_from_order(256), [(2, 1), (87, 0, 255), (0, 19), (200,)])):
        for h in (Poly(field, tail + (1,)) for tail in tails):
            for n in (1, 2, 7, 80, 1000, 3**9 + 5):
                assert x_pow_mod(n, h) == pow_mod(field, (0, 1), n, h.coeffs), (h, n)


def _oracle_irreducible(h):
    """Trial division by every monic polynomial of degree 1 .. deg(h) // 2."""
    field = h.field
    for d in range(1, h.degree // 2 + 1):
        for tail in product(field.elements(), repeat=d):
            if not poly_divmod(field, h.coeffs, tail + (1,))[1]:
                return False
    return True


def test_is_irreducible_known_cases(gf2, gf3):
    assert is_irreducible(Poly(gf2, (1, 1, 0, 1)))
    assert is_irreducible(Poly(gf3, (1, 0, 1)))  # x^2 + 1 has no root mod 3
    assert not is_irreducible(Poly(gf2, (1, 0, 1)))  # (x + 1)^2


def test_is_irreducible_against_trial_division(gf2, gf3):
    for field, max_deg in ((gf2, 5), (gf3, 3)):
        for deg in range(2, max_deg + 1):
            for tail in product(field.elements(), repeat=deg):
                h = Poly(field, tail + (1,))
                assert is_irreducible(h) == _oracle_irreducible(h), str(h)


def test_primitive_implies_irreducible_and_full_order(gf2, gf3):
    for field, t in ((gf2, 3), (gf3, 2)):
        for h in find_primitive(field, t):
            assert is_irreducible(h)
            assert order_of_x(h) == field.q**t - 1


PRIMITIVITY_CASES = [
    (q, t) for q in (2, 3, 4, 5) for t in (1, 2, 3, 4)
] + [(q, t) for q in (7, 8, 9) for t in (1, 2, 3)] + [(16, 2)]


@pytest.mark.parametrize("q,t", PRIMITIVITY_CASES)
def test_primitivity_agrees_with_the_order_of_x(q, t):
    """Every monic h of degree t: find_primitive and, for t > 1, the checks of the
    simplex base against order_of_x; a supplied h that fails them is invalid input."""
    field = field_from_order(q)
    primitive = primitive_polys(field, t)
    assert find_primitive(field, t) == primitive
    if t == 1:  # a simplex base needs t > 1
        return
    for h in (Poly(field, tail + (1,)) for tail in product(field.elements(), repeat=t)):
        if h in primitive:
            assert simplex_consta(field, t, h).h == h
        else:
            with pytest.raises(ParameterError) as err:
                simplex_consta(field, t, h)
            assert str(err.value) == f"h = {h} is not a monic primitive polynomial of degree {t}"


# longer binary and ternary searches on list tables; q > 64t reads the numpy tables
@pytest.mark.parametrize("q, t, count", [(2, 5, None), (2, 6, None), (2, 7, None),
                                         (2, 8, None), (3, 5, None), (128, 1, None),
                                         (256, 2, 1)])
def test_find_primitive_lists_the_brute_force(q, t, count):
    field = field_from_order(q)
    assert find_primitive(field, t, limit=count) == primitive_polys(field, t, count)


def test_primitive_search_over_gf1024_copies_no_table():
    field = field_from_order(1024)
    field.tables  # built before the trace: 2 MB of q x q tables
    tracemalloc.start()
    try:
        found = find_primitive(field, 2, limit=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == [Poly(field, (2, 5, 1))]
    assert peak < 8 << 20, peak  # a nested-list copy of add and mul peaks at 64 MB


@pytest.mark.parametrize("q,t", PRIMITIVITY_CASES)
def test_norm_rule_holds_and_admits_every_generator(q, t):
    """(-1)^t h(0) has order q - 1 for every h of order_of_x q^t - 1, and the
    search admits exactly the constants (-1)^t g, g a generator of GF(q)^*."""
    field = field_from_order(q)
    sign = scalar(field).neg if t % 2 else (lambda c: c)
    primitive = [h for h in (Poly(field, tail + (1,)) for tail in product(range(q), repeat=t))
                 if order_of_x(h) == q**t - 1]
    assert primitive and all(field.element_order(sign(h.coeffs[0])) == q - 1 for h in primitive)
    generators = {g for g in range(1, q) if field.element_order(g) == q - 1}
    _, mul, neg, _ = field.tables
    assert (polynomial._norms(field, t, mul.tolist(), neg.tolist())
            == {sign(g) for g in generators})


def test_prime_factors_match_brute_force():
    primes = [d for d in range(2, 5001) if all(d % e for e in range(2, d))]
    for n in range(1, 5001):
        assert polynomial.prime_factors(n) == [r for r in primes if n % r == 0], n


def test_search_over_tables_whose_powers_never_reach_1_raises_in_bounded_time():
    field = field_with_products(3, {(2, 2): 2})  # 2 is idempotent: its powers never reach 1

    def too_slow(signum, frame):
        raise AssertionError("find_primitive did not return within 5 s")
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(5)
    try:
        with pytest.raises(VerificationError, match=r"^field tables: "):
            find_primitive(field, 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_search_over_tables_with_no_generator_is_a_verification_error():
    # every nonzero element squares to 1, so no element has the order 4 of a generator
    field = field_with_products(5, {(a, a): 1 for a in range(1, 5)})
    with pytest.raises(VerificationError, match=r"^primitive search: GF\(5\)\^\* has no generator"):
        find_primitive(field, 2)


@pytest.mark.parametrize("q,t,coeffs", [
    (2, 3, (1, 0, 1, 1)),
    (2, 4, (1, 0, 0, 1, 1)),
    (2, 5, (1, 0, 0, 1, 0, 1)),
    (2, 9, (1, 0, 0, 0, 0, 1, 0, 0, 0, 1)),
    (3, 2, (2, 1, 1)),
    (3, 3, (1, 0, 2, 1)),
    (3, 4, (2, 0, 0, 1, 1)),
    (4, 2, (2, 1, 1)),
    (4, 4, (2, 0, 1, 1, 1)),
    (5, 2, (2, 1, 1)),
    (7, 2, (3, 1, 1)),
    (8, 2, (2, 1, 1)),
    (9, 2, (3, 3, 1)),
    (4, 7, (2, 0, 0, 0, 0, 1, 1, 1)),
])
def test_canonical_h_is_pinned(q, t, coeffs):
    field = field_from_order(q)
    assert find_primitive(field, t, limit=1)[0].coeffs == coeffs
    assert simplex_consta(field, t).h.coeffs == coeffs


@pytest.mark.parametrize("pe,t", [
    ((2, 1), 1), ((2, 1), 3), ((2, 1), 4), ((2, 1), 6),
    ((3, 1), 2), ((3, 1), 3), ((2, 2), 2), ((5, 1), 2), ((7, 1), 2),
    # the norm rule drops candidates here: q > 2, and the sign (-1)^t matters for odd q
    ((2, 2), 4), ((3, 2), 2), ((2, 3), 2), ((5, 1), 3),
])
def test_find_primitive_count_matches_totient(pe, t):
    field = field_create(*pe)
    polys = find_primitive(field, t)
    assert len(polys) == euler_phi(field.q**t - 1) // t
    assert len(set(polys)) == len(polys)
    assert all(h.degree == t and h.is_monic() for h in polys)


def test_find_primitive_known_lists(gf2, gf3):
    cubics = find_primitive(gf2, 3)
    assert Poly(gf2, (1, 1, 0, 1)) in cubics
    assert Poly(gf2, (1, 0, 1, 1)) in cubics
    assert len(cubics) == 2
    assert Poly(gf3, (2, 2, 1)) in find_primitive(gf3, 2)
    assert find_primitive(gf2, 1) == [Poly(gf2, (1, 1))]


def test_find_primitive_limit_and_bound(gf2, monkeypatch):
    assert len(find_primitive(gf2, 4, limit=1)) == 1
    monkeypatch.setattr(polynomial, "DEFAULT_SEARCH_BOUND", 8)
    with pytest.raises(BudgetExceededError, match=r"needs 2\^4 candidates, budget is 8$") as err:
        find_primitive(gf2, 4)
    assert (err.value.required, err.value.budget) == (16, 8)
    assert len(find_primitive(gf2, 3)) == 2


@pytest.mark.parametrize("limit", [0, -2])
def test_find_primitive_rejects_limit_below_one(gf2, limit):
    with pytest.raises(ParameterError):
        find_primitive(gf2, 3, limit=limit)


def test_find_primitive_rejects_degree_below_one(gf2):
    with pytest.raises(ParameterError, match="^degree must be >= 1, got 0$"):
        find_primitive(gf2, 0)


def test_pow_mod_matches_naive(gf3):
    h, base, naive = (2, 2, 1), (1, 1), (1,)
    for k in range(8):
        assert pow_mod(gf3, base, k, h) == naive
        naive = poly_divmod(gf3, poly_mul(gf3, naive, base), h)[1]
