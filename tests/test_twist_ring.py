"""The twisted ring F_q[x]/(x^m - lam) and the one gather that builds every block.

Every simplex base holds one word table whose row (3a + 2) m - e is
a x^e g mod (x^m - lam), and every build gathers its blocks from it;
`conftest.table_words` reads it for arrays of scales a and shifts e.  The
oracles in conftest multiply and reduce with their own schoolbook polynomial
arithmetic (`poly_mul`, `poly_divmod`) and shift one position at a time, all
on scalar field operations.  The blocks of every simplex base the suite
builds are checked to be distinct and nonzero, which the construction relies
on without checking it per code.
"""

import json
import pickle
import random
from functools import lru_cache
from importlib import resources
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtweave import (Poly, build_qt_simplex, build_two_weight, field_create, field_from_order,
                     find_primitive, simplex_consta, simplex_cyclic)
from conftest import (consta_shift, naive_is_projective, poly_divmod, poly_mul, residue, scalar,
                      schoolbook_vec_mat, table_words, twistulant_rows)

FIELDS = [field_create(2), field_create(3), field_create(2, 2), field_create(5)]

# (q, t) of the simplex specs the gather is checked on; m stays at most 31
SPEC_FAMILIES = ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2), (4, 3),
                 (5, 2), (8, 2), (9, 2))

EXAMPLES = json.loads(resources.files("qtweave").joinpath("fixtures", "examples.json").read_text())

# (q, t, variant, index) of every base below: the specs of SPEC_FAMILIES, then
# the examples.json bases, whose variant is the example's name
BASES = ([(q, t, "consta-cyclic", i) for q, t in SPEC_FAMILIES for i in range(3)]
         + [(q, t, "cyclic", 0) for q, t in SPEC_FAMILIES if gcd(t, q - 1) == 1]
         + [(ex["q"], ex["t"], name, 0) for name, ex in EXAMPLES.items()])


@pytest.fixture(scope="module")
def s_ternary(gf3):
    return simplex_consta(gf3, 2, Poly(gf3, (2, 2, 1)))  # m = 4, lam = 2, g = x^2 + x + 2


def word(s, a, e):
    return tuple(table_words(s, a, e).tolist())


@lru_cache(maxsize=None)
def spec(q, t, variant, index):
    """A simplex spec: consta-cyclic over the index-th primitive h, or the cyclic one."""
    field = field_from_order(q)
    if variant == "cyclic":
        return simplex_cyclic(field, t)
    hs = find_primitive(field, t, limit=index + 1)
    return simplex_consta(field, t, h=hs[min(index, len(hs) - 1)])


@st.composite
def specs(draw):
    q, t = draw(st.sampled_from(SPEC_FAMILIES))
    cyclic = gcd(t, q - 1) == 1 and draw(st.booleans())
    return spec(q, t, "cyclic" if cyclic else "consta-cyclic", draw(st.integers(0, 2)))


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_gather_matches_poly_oracle(data):
    s = data.draw(specs())
    pair = st.tuples(st.integers(0, s.q - 1), st.integers(0, 2 * s.m - 1))
    pairs = data.draw(st.lists(pair, min_size=1, max_size=8))
    scales, shifts = zip(*pairs)
    words = table_words(s, scales, shifts)
    assert words.shape == (len(pairs), s.m) and words.dtype == s.field.tables.mul.dtype
    for (a, e), got in zip(pairs, words.tolist()):
        product = poly_mul(s.field, (0,) * e + (a,), s.g.coeffs)
        assert tuple(got) == residue(s.field, product, s.m, s.lam), (s.q, s.t, s.variant, a, e)


# GF(3) has no cyclic simplex base at t = 2 (gcd(t, q - 1) = 2), so its cyclic one is t = 3
@pytest.mark.parametrize("q, t, variant", [(2, 3, "consta-cyclic"), (3, 2, "consta-cyclic"),
                                            (3, 3, "cyclic"), (4, 2, "consta-cyclic"),
                                            (9, 2, "consta-cyclic")])
def test_word_table_is_built_once_per_base_and_holds_every_word(q, t, variant):
    field = field_from_order(q)
    s = (simplex_cyclic if variant == "cyclic" else simplex_consta)(field, t)
    assert "_table" not in vars(s)  # the base and its simplex check make no table
    build_two_weight(s, 2)
    table = vars(s)["_table"]
    build_qt_simplex(s)
    build_two_weight(s, 3, selection=((q - 1, s.m - 1), (1, 1)))
    assert vars(s)["_table"] is table
    with pytest.raises(ValueError):
        table[0, 0] = 1
    copy = pickle.loads(pickle.dumps(s))  # the cached arrays stay behind
    assert copy == s and not {"_ext", "_table", "_lower"} & vars(copy).keys()
    m = s.m
    for a in range(q):
        for e in range(2 * m + 1):
            expected = residue(field, poly_mul(field, (0,) * e + (a,), s.g.coeffs), m, s.lam)
            assert tuple(table_words(s, a, e).tolist()) == expected, (a, e)


def test_consta_shift_single(gf3, s_ternary):
    assert consta_shift(gf3, 2, (1, 0, 2, 1)) == (2, 1, 0, 2)
    # the gather at shift e + 1 is the gather at shift e shifted once
    m = s_ternary.m
    for a in range(3):
        for e in range(2 * m - 1):
            assert word(s_ternary, a, e + 1) == consta_shift(gf3, s_ternary.lam, word(s_ternary, a, e))


def test_shift_by_m_is_scalar_multiplication(gf3, s_ternary):
    rng = random.Random(7)
    for _ in range(20):
        w = tuple(rng.randrange(3) for _ in range(4))
        stepped = w
        for _ in range(4):
            stepped = consta_shift(gf3, 2, stepped)
        assert stepped == tuple(scalar(gf3).mul(2, v) for v in w)
    # x^m = lam: shifting a block by m scales it by lam
    for q, t in SPEC_FAMILIES:
        s = spec(q, t, "consta-cyclic", 0)
        for a in range(q):
            for e in range(s.m):
                assert word(s, a, e + s.m) == word(s, scalar(s.field).mul(a, s.lam), e)


def test_reduce(gf2, gf3, s_ternary):
    assert residue(gf3, (0,) * 5 + (1,), 4, 2) == (0, 2, 0, 0)
    assert residue(gf3, (), 4, 2) == (0, 0, 0, 0)
    x7_plus_1 = (1,) + (0,) * 6 + (1,)
    assert residue(gf2, x7_plus_1, 7, 1) == (0,) * 7
    # g = x^2 + x + 2 with x^4 = 2: x^3 g wraps once, x^6 g wraps twice
    assert word(s_ternary, 1, 0) == (2, 1, 1, 0)
    assert word(s_ternary, 1, 3) == (2, 2, 0, 2)
    assert word(s_ternary, 1, 6) == (1, 0, 1, 2)
    assert word(s_ternary, 0, 5) == (0, 0, 0, 0)


def test_mul(gf2, gf3):
    # the ring product is the polynomial product reduced by x^m = lam
    a = (1, 2, 0, 1)
    assert residue(gf3, poly_mul(gf3, a, (1,)), 4, 2) == (1, 2, 0, 1)
    assert residue(gf3, poly_mul(gf3, (0, 0, 0, 1), (0, 1)), 4, 2) == (2, 0, 0, 0)
    g = (1, 1, 1, 0, 1)
    assert residue(gf2, poly_mul(gf2, g, (0, 1)), 7, 1) == (0, 1, 1, 1, 0, 1, 0)
    s = simplex_consta(gf2, 3, Poly(gf2, (1, 1, 0, 1)))
    assert s.g.coeffs == g and word(s, 1, 1) == (0, 1, 1, 1, 0, 1, 0)


def test_matrix_rows(gf3, s_ternary):
    c = (1, 0, 2, 1)
    rows = twistulant_rows(gf3, 2, c)
    assert rows[0] == c
    assert rows[1] == (2 * 1 % 3, 1, 0, 2)
    # second-row pattern: (lam*c3, c0, c1, c2)
    assert rows[1] == (scalar(gf3).mul(2, c[3]), c[0], c[1], c[2])
    assert len(rows) == 4
    # the gather's shifts 0..m-1 of g are the twistulant matrix of g
    m = s_ternary.m
    gathered = [tuple(r) for r in table_words(s_ternary, 1, range(m)).tolist()]
    assert gathered == twistulant_rows(gf3, s_ternary.lam, word(s_ternary, 1, 0))


def test_circulant_when_twist_is_one(gf3):
    rows = twistulant_rows(gf3, 1, (1, 2, 0, 1))
    for k in range(4):
        expected = tuple((1, 2, 0, 1)[(j - k) % 4] for j in range(4))
        assert rows[k] == expected


def test_ring_product_equals_matrix_product_exhaustive_sample(gf3):
    # algebra isomorphism, checked against an explicit schoolbook product
    rng = random.Random(13)
    for _ in range(50):
        u = tuple(rng.randrange(3) for _ in range(4))
        c = tuple(rng.randrange(3) for _ in range(4))
        explicit = schoolbook_vec_mat(gf3, u, twistulant_rows(gf3, 2, c))
        assert residue(gf3, poly_mul(gf3, u, c), 4, 2) == explicit


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_ring_matrix_isomorphism(data):
    field = data.draw(st.sampled_from(FIELDS))
    m = data.draw(st.integers(2, 6))
    lam = data.draw(st.integers(1, field.q - 1))
    u = tuple(data.draw(st.integers(0, field.q - 1)) for _ in range(m))
    c = tuple(data.draw(st.integers(0, field.q - 1)) for _ in range(m))
    product = residue(field, poly_mul(field, u, c), m, lam)
    assert product == schoolbook_vec_mat(field, u, twistulant_rows(field, lam, c))



@pytest.mark.parametrize("q, t, variant, index", BASES)
def test_distinct_pairs_give_distinct_nonzero_blocks(q, t, variant, index):
    # the argument of the construction module: an equidistant base has no zero and no
    # two proportional columns, so its (q - 1) m blocks a x^j g are nonzero and distinct
    if variant in EXAMPLES:
        ex, field = EXAMPLES[variant], field_from_order(q)
        s = (simplex_consta(field, t, h=Poly(field, ex["h"])) if "h" in ex
             else simplex_cyclic(field, t, g=Poly(field, ex["reference_g"])))
    else:
        s = spec(q, t, variant, index)
    f, m = s.field, s.m
    blocks = {residue(f, poly_mul(f, (0,) * j + (a,), s.g.coeffs), m, s.lam)
              for a in range(1, q) for j in range(m)}
    assert len(blocks) == (q - 1) * m and (0,) * m not in blocks
    # the corollary behind the orbit spectrum: the c x^j mod h are every nonzero residue
    residues = {poly_divmod(f, (0,) * j + (a,), s.h.coeffs)[1] for a in range(1, q) for j in range(m)}
    assert len(residues) == q**t - 1 and () not in residues
    shifts = [residue(f, poly_mul(f, (0,) * u + (1,), s.g.coeffs), m, s.lam) for u in range(t)]
    assert naive_is_projective(f, shifts)
