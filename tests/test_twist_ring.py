import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtweave import ParameterError, Poly, TwistRing, field_create
from conftest import schoolbook_vec_mat, twistulant_rows

FIELDS = [field_create(2), field_create(3), field_create(2, 2), field_create(5)]


@pytest.fixture
def ring34(gf3):
    return TwistRing(gf3, 4, 2)


def test_twist_constant_must_be_nonzero(gf3):
    with pytest.raises(ParameterError):
        TwistRing(gf3, 4, 0)


def test_consta_shift_single(ring34):
    assert ring34.consta_shift((1, 0, 2, 1), 1) == (2, 1, 0, 2)
    w = (1, 0, 2, 1)
    assert ring34.consta_shift(w, 0) == w


def test_shift_by_m_is_scalar_multiplication(ring34):
    rng = random.Random(7)
    for _ in range(20):
        w = tuple(rng.randrange(3) for _ in range(4))
        # oracle: four explicit single-position shifts
        stepped = w
        for _ in range(4):
            stepped = ring34.consta_shift(stepped, 1)
        assert ring34.consta_shift(w, 4) == stepped == ring34.scale(w, 2)


def test_reduce(gf2, gf3, ring34):
    assert ring34.reduce(Poly.monomial(gf3, 5)) == (0, 2, 0, 0)
    assert ring34.reduce(Poly.zero(gf3)) == (0, 0, 0, 0)
    ring27 = TwistRing(gf2, 7, 1)
    x7_plus_1 = Poly(gf2, (1,) + (0,) * 6 + (1,))
    assert ring27.reduce(x7_plus_1) == (0,) * 7


def test_mul(gf2, gf3, ring34):
    # the ring product is the polynomial product reduced by x^m = lam
    a = Poly(gf3, (1, 2, 0, 1))
    assert ring34.reduce(a * Poly.one(gf3)) == (1, 2, 0, 1)
    assert ring34.reduce(Poly.monomial(gf3, 3) * Poly.x(gf3)) == (2, 0, 0, 0)
    ring27 = TwistRing(gf2, 7, 1)
    g = Poly(gf2, (1, 1, 1, 0, 1))
    assert ring27.reduce(g * Poly.x(gf2)) == (0, 1, 1, 1, 0, 1, 0)


def test_matrix_rows(ring34):
    c = (1, 0, 2, 1)
    rows = twistulant_rows(ring34, c)
    assert rows[0] == c
    assert rows[1] == (2 * 1 % 3, 1, 0, 2)
    # second-row pattern: (lam*c3, c0, c1, c2)
    assert rows[1] == (ring34.field.mul(2, c[3]), c[0], c[1], c[2])
    assert len(rows) == 4


def test_circulant_when_twist_is_one(gf3):
    ring = TwistRing(gf3, 4, 1)
    rows = twistulant_rows(ring, (1, 2, 0, 1))
    for k in range(4):
        expected = tuple((1, 2, 0, 1)[(j - k) % 4] for j in range(4))
        assert rows[k] == expected


def test_ring_product_equals_matrix_product_exhaustive_sample(gf3):
    # algebra isomorphism, checked against an explicit schoolbook product
    ring = TwistRing(gf3, 4, 2)
    rng = random.Random(13)
    for _ in range(50):
        u = tuple(rng.randrange(3) for _ in range(4))
        c = tuple(rng.randrange(3) for _ in range(4))
        explicit = schoolbook_vec_mat(gf3, u, twistulant_rows(ring, c))
        assert ring.reduce(Poly(gf3, u) * Poly(gf3, c)) == explicit


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_ring_matrix_isomorphism(data):
    field = data.draw(st.sampled_from(FIELDS))
    m = data.draw(st.integers(2, 6))
    lam = data.draw(st.integers(1, field.q - 1))
    ring = TwistRing(field, m, lam)
    u = tuple(data.draw(st.integers(0, field.q - 1)) for _ in range(m))
    c = tuple(data.draw(st.integers(0, field.q - 1)) for _ in range(m))
    product = ring.reduce(Poly(field, u) * Poly(field, c))
    assert product == schoolbook_vec_mat(field, u, twistulant_rows(ring, c))
