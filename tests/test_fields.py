"""GF(p^e): constructors, order limits and the lookup tables.

The tables are pinned by a golden digest and checked against the scalar
arithmetic in conftest, which computes without them.
"""

import hashlib
from itertools import product

import numpy as np
import pytest

from qtweave import (Field, ParameterError, Poly, VerificationError, field_create,
                     field_from_order, fields)
from conftest import field_with_products, order_of_x, scalar

EXTENSION_FIELDS = [(p, e) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
                    for e in range(2, 11) if p**e <= 1024]


def test_rejects_non_prime_characteristic():
    with pytest.raises(ParameterError):
        field_create(4)
    with pytest.raises(ParameterError):
        field_create(1)


def test_rejects_bad_extension_degree():
    with pytest.raises(ParameterError):
        field_create(2, 0)


def test_order_limit(monkeypatch):
    with pytest.raises(ParameterError):
        field_create(2, 11)  # 2048 > default limit
    with pytest.raises(ParameterError, match=r"^field order 3\^7 exceeds the limit 1024$"):
        field_create(3, 7)  # small enough an exponent for the early check, 2187 > 1024
    monkeypatch.setattr(fields, "DEFAULT_ORDER_LIMIT", 4096)
    assert field_create(2, 11).q == 2048
    assert field_from_order(2048).q == 2048


def test_one_canonical_field_per_order(monkeypatch):
    f = field_from_order(9)
    assert field_from_order("3^2") is f and field_from_order(" 9 ") is f and field_create(3, 2) is f
    assert f.tables is field_create(3, 2).tables
    monkeypatch.setattr(fields, "DEFAULT_ORDER_LIMIT", 4096)
    assert field_from_order(2048) is field_create(2, 11)
    monkeypatch.undo()  # the limit is checked before the lookup, on every call
    with pytest.raises(ParameterError, match="exceeds the limit"):
        field_from_order(2048)


def test_field_from_order():
    f = field_from_order(8)
    assert (f.p, f.e, f.q) == (2, 3, 8)
    assert field_from_order(7).e == 1
    with pytest.raises(ParameterError):
        field_from_order(6)
    with pytest.raises(ParameterError):
        field_from_order(1)


@pytest.mark.parametrize("text, pe", [("9", (3, 2)), ("3^2", (3, 2)), (" 2^2 ", (2, 2)),
                                      ("7", (7, 1)), ("8", (2, 3))])
def test_field_from_order_text(text, pe):
    f = field_from_order(text)
    assert (f.p, f.e) == pe
    assert f == field_from_order(f.q)


@pytest.mark.parametrize("text", ["4^2", "6", "2^0", "1", "3^", "^2", "nine", "2^11"])
def test_field_from_order_rejects_bad_text(text):
    with pytest.raises(ParameterError):
        field_from_order(text)


@pytest.mark.parametrize("order", [1000000000000000003, "1000000000000000003",
                                   "99999999999999999989^2", "2^10000000000"])
def test_oversized_order_is_rejected_before_any_factoring(monkeypatch, order):
    # trial division of 10^18 + 3 or of a 20-digit p, or 2**(10^10) (about
    # 1.25 GB), would each come before the limit check if it came last
    def no_factoring(n):
        raise AssertionError(f"factoring of {n} before the limit check")
    monkeypatch.setattr(fields, "prime_factors", no_factoring)
    with pytest.raises(ParameterError, match="exceeds the limit"):
        field_from_order(order)


@pytest.mark.parametrize("order, message", [(6, "not a prime power"), ("1000", "not a prime power"),
                                            ("4^2", "4 is not prime"), ("2^0", "extension degree"),
                                            ("2000^0", "^extension degree must be >= 1, got 0$"),
                                            (2048, "exceeds the limit"), ("2^11", "exceeds the limit")])
def test_small_bad_orders_keep_their_messages(order, message):
    with pytest.raises(ParameterError, match=message):
        field_from_order(order)


def test_gf3_basics(gf3):
    add, mul, neg, inv = gf3.tables
    assert inv[2] == 2  # 2 * 2 = 4 = 1 (mod 3)
    assert neg[1] == 2
    assert add[2, 2] == 1
    assert mul[2, 2] == 1


def test_gf4_modulus_is_the_unique_irreducible_quadratic(gf2, gf4):
    # oracle: a quadratic over GF(2) is irreducible iff it has no root
    irreducible = []
    for c0, c1 in product(range(2), repeat=2):
        has_root = any((a * a + c1 * a + c0) % 2 == 0 for a in range(2))
        if not has_root:
            irreducible.append((c0, c1, 1))
    assert irreducible == [(1, 1, 1)]
    assert gf4.modulus == (1, 1, 1)


def test_gf4_generator_square(gf4):
    # x is encoded 2; x * x reduced by x^2 + x + 1 is x + 1, encoded 3
    assert gf4.tables.mul[2, 2] == 3
    assert gf4.tables.mul[2, 3] == 1  # x^3 = 1
    assert gf4.element_order(2) == 3


def test_exp_table_invariants():
    # x is encoded p and generates the multiplicative group: its powers cover 1 .. q - 1
    for (p, e) in [(2, 2), (2, 3), (3, 2), (5, 2)]:
        f = field_create(p, e)
        powers = [1]
        for _ in range(f.q - 2):
            powers.append(int(f.tables.mul[powers[-1], p]))
        assert sorted(powers) == list(range(1, f.q))
        assert f.element_order(p) == f.q - 1


def test_element_order_direct_powering(gf5):
    # oracle: successive powers of 2 mod 5 are 2, 4, 3, 1
    powers = []
    acc = 1
    for _ in range(4):
        acc = (acc * 2) % 5
        powers.append(acc)
    assert powers == [2, 4, 3, 1]
    assert gf5.element_order(2) == 4


def test_element_order_small_cases(gf2, gf3):
    assert gf3.element_order(2) == 2
    assert gf2.element_order(1) == 1
    with pytest.raises(ParameterError):
        gf3.element_order(0)


def test_element_order_of_a_broken_table_is_a_verification_error():
    field = field_with_products(3, {(2, 2): 2})  # 2 is idempotent: its powers never reach 1
    with pytest.raises(VerificationError, match="^field tables: 2 has no multiplicative order"):
        field.element_order(2)


def test_order_divides_group_order():
    for pe in [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 4)]:
        f = field_create(*pe)
        for a in range(1, f.q):
            assert (f.q - 1) % f.element_order(a) == 0


def test_rebuild_is_deterministic():
    a = field_create(3, 2)
    assert field_create(3, 2) is a  # one canonical field per (p, e)
    b = Field(a.p, a.e, a.modulus)  # built again from the modulus alone
    assert a.modulus == b.modulus and a.tables is not b.tables
    for x, y in zip(a.tables, b.tables):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def test_canonical_gf9_modulus():
    # x^2 + 1 comes first lexicographically but x has order 4 there, so the
    # canonical primitive modulus is x^2 + x + 2
    assert field_create(3, 2).modulus == (2, 1, 1)


@pytest.mark.parametrize("p,e", EXTENSION_FIELDS)
def test_modulus_is_the_first_primitive_polynomial(p, e):
    # the first monic tail, low degree first, on which x has order p^e - 1, found
    # by multiplying by x with the scalar arithmetic of conftest
    base = field_create(p)
    first = next(h for h in (Poly(base, tail + (1,)) for tail in product(range(p), repeat=e))
                 if order_of_x(h) == p**e - 1)
    assert field_create(p, e).modulus == first.coeffs


# SHA-256 over the modulus and the add/mul/neg/inv tables (dtype and bytes) of
# every extension field in EXTENSION_FIELDS, as the tables stood when the field
# arithmetic still ran on exp/log lists and its own primitivity search
TABLES_DIGEST = "17919863ba81e8dad3cf2d0eaebd167f6e9af80f78051fd349815f6f41d58043"


def test_tables_match_the_golden_digest():
    digest = hashlib.sha256()
    for p, e in EXTENSION_FIELDS:
        f = field_create(p, e)
        digest.update(repr(f.modulus).encode())
        for t in f.tables:
            digest.update(t.dtype.str.encode() + t.tobytes())
    assert len(EXTENSION_FIELDS) == 26
    assert digest.hexdigest() == TABLES_DIGEST


@pytest.mark.parametrize("pe", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                    (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (2, 6)])
def test_field_axioms_exhaustive(pe):
    f = field_create(*pe)
    s = scalar(f)  # digit-wise sums and schoolbook products reduced by f.modulus
    q = f.q
    add = np.array([[s.add(a, b) for b in range(q)] for a in range(q)])
    mul = np.array([[s.mul(a, b) for b in range(q)] for a in range(q)])
    a = np.arange(q)
    x, y, z = a[:, None, None], a[None, :, None], a[None, None, :]
    assert np.array_equal(add[add[x, y], z], add[x, add[y, z]])
    assert np.array_equal(mul[mul[x, y], z], mul[x, mul[y, z]])
    assert np.array_equal(add, add.T)
    assert np.array_equal(mul, mul.T)
    assert np.array_equal(mul[x, add[y, z]], add[mul[x, y], mul[x, z]])
    for v in range(1, q):
        assert s.mul(v, s.inv(v)) == 1
    # the lookup tables agree with the conftest arithmetic and are shared read-only
    t = f.tables
    assert np.array_equal(t.add, add) and np.array_equal(t.mul, mul)
    assert t.neg.tolist() == [s.neg(v) for v in range(q)]
    assert t.inv.tolist() == [0] + [s.inv(v) for v in range(1, q)]
    # add[neg[w], s] = s - w, and (s - w) + w = s
    assert np.array_equal(add[add[t.neg], a[:, None]], np.broadcast_to(a, (q, q)))
    assert f.tables is t and not any(table.flags.writeable for table in t)


def test_check_rejects_foreign_values(gf3):
    with pytest.raises(ParameterError):
        gf3.check(3)
    with pytest.raises(ParameterError):
        gf3.check(-1)
