import tracemalloc
from dataclasses import replace
from functools import cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtweave import (
    BudgetExceededError,
    ParameterError,
    Poly,
    SimplexSpec,
    VerificationError,
    build_qt_simplex,
    build_two_weight,
    construction,
    decompose_block_count,
    default_selection,
    field_create,
    field_from_order,
    find_primitive,
    full_block_matrix,
    gap_fn,
    griesmer_length,
    polynomial,
    simplex_consta,
    simplex_cyclic,
    weight_distribution,
)
from qtweave.construction import CONSTA_CYCLIC, CYCLIC, _check_equidistant
from conftest import (SWEEP_CONFIGS, base_word, consta_shift, is_irreducible, naive_rank,
                      naive_weight_counts, order_of_x, poly_divmod, poly_mul, residue, scalar,
                      span_words, table_words, transform_distribution, twist_modulus,
                      twistulant_rows)

# (q, t) with gcd(t, q - 1) = 1, so a cyclic simplex base exists
CYCLIC_CONFIGS = ((2, 3), (2, 5), (3, 3), (3, 5), (4, 2), (5, 3), (8, 2), (9, 3))


@pytest.fixture(scope="session")
def s_binary(gf2):
    return simplex_consta(gf2, 3, Poly(gf2, (1, 1, 0, 1)))


@pytest.fixture(scope="session")
def s_ternary(gf3):
    return simplex_consta(gf3, 2, Poly(gf3, (2, 2, 1)))


def test_binary_simplex(s_binary, gf2):
    assert s_binary.lam == 1
    assert s_binary.m == 7
    assert s_binary.g == Poly(gf2, (1, 1, 1, 0, 1))
    assert s_binary.params() == (7, 3, 4)


def test_ternary_simplex(s_ternary, gf3):
    assert s_ternary.lam == 2
    assert s_ternary.m == 4
    assert s_ternary.g == Poly(gf3, (2, 1, 1))
    assert s_ternary.params() == (4, 2, 3)


def test_tiny_binary_simplex(gf2):
    s = simplex_consta(gf2, 2, Poly(gf2, (1, 1, 1)))
    assert s.lam == 1
    assert s.m == 3
    assert s.g == Poly(gf2, (1, 1))


def test_h_times_g_reconstructs_the_ring_modulus(s_binary, s_ternary, gf3):
    for s in (s_binary, s_ternary, simplex_consta(gf3, 3)):
        assert poly_mul(s.field, s.h.coeffs, s.g.coeffs) == twist_modulus(s.field, s.m, s.lam)


def test_default_h_is_canonical(gf3):
    s = simplex_consta(gf3, 3)
    assert s.h == Poly(gf3, (1, 0, 2, 1))  # first primitive cubic in canonical order


def test_rejects_bad_h(gf3):
    with pytest.raises(ParameterError):
        simplex_consta(gf3, 2, Poly(gf3, (1, 0, 1)))  # irreducible but not primitive
    with pytest.raises(ParameterError):
        simplex_consta(gf3, 2, Poly(gf3, (2, 2, 2)))  # not monic
    with pytest.raises(ParameterError):
        simplex_consta(gf3, 3, Poly(gf3, (2, 2, 1)))  # degree 2, not 3
    with pytest.raises(ParameterError):
        simplex_consta(gf3, 1)
    with pytest.raises(ParameterError, match="^h belongs to a different field$"):
        simplex_consta(gf3, 2, Poly(field_from_order(5), (2, 1, 1)))


def test_cyclic_simplex_parameters(gf3):
    s = simplex_cyclic(gf3, 3)
    assert s.lam == 1
    assert s.params() == (13, 3, 9)
    # explicit equidistance oracle over all 27 codewords
    rows = twistulant_rows(gf3, s.lam, base_word(s))[:3]
    words = span_words(gf3, rows)
    weights = {sum(1 for c in w if c) for w in words if any(w)}
    assert weights == {9}
    assert len(set(words)) == 27


def test_cyclic_binary_matches_consta(gf2):
    assert simplex_cyclic(gf2, 3).g == simplex_consta(gf2, 3).g


@pytest.mark.parametrize("call, message", [
    (lambda: field_from_order(4.5), "field order must be an integer, got 4.5"),
    (lambda: field_from_order(4.0), "field order must be an integer, got 4.0"),
    (lambda: field_create(2, 2.0), "extension degree must be an integer, got 2.0"),
    (lambda: field_create(2.0), "characteristic must be an integer, got 2.0"),
    (lambda: find_primitive(field_create(2), 3.0), "degree must be an integer, got 3.0"),
    (lambda: simplex_consta(field_create(2), 3.0), "dimension t must be an integer, got 3.0"),
    (lambda: simplex_consta(field_create(2), "3", Poly(field_create(2), (1, 1, 0, 1))),
     "dimension t must be an integer, got '3'"),
    (lambda: simplex_cyclic(field_create(2), 3.0), "dimension t must be an integer, got 3.0"),
    (lambda: build_two_weight(simplex_consta(field_create(2), 3), 3.0),
     "block count p must be an integer, got 3.0"),
    (lambda: SimplexSpec(field_create(2), 3.0, Poly(field_create(2), (1, 1, 0, 1)), CONSTA_CYCLIC),
     "dimension t must be an integer, got 3.0"),
    (lambda: find_primitive(field_create(2), 3, limit=1.5), "limit must be an integer, got 1.5"),
    (lambda: weight_distribution(build_two_weight(simplex_consta(field_create(2), 3), 3)[1],
                                 budget=10.5), "budget must be an integer, got 10.5"),
    (lambda: griesmer_length(8, 96.5, 2), "minimum distance d must be an integer, got 96.5"),
    (lambda: griesmer_length(8.0, 96, 2), "dimension k must be an integer, got 8.0"),
    (lambda: gap_fn(1, 4.0, 2), "dimension t must be an integer, got 4.0"),
    (lambda: gap_fn(1.5, 4, 2), "i must be an integer, got 1.5"),
    (lambda: decompose_block_count(13, 4, 2.5), "field order must be an integer, got 2.5"),
    (lambda: default_selection(simplex_consta(field_create(2), 3), 2.5),
     "selection count must be an integer, got 2.5"),
    (lambda: default_selection(simplex_consta(field_create(2), 3), -1),
     "selection count must be >= 0, got -1"),
], ids=["order 4.5", "order 4.0", "degree 2.0", "characteristic 2.0", "primitive degree 3.0",
        "consta t 3.0", "consta t '3' with h", "cyclic t 3.0", "block count 3.0", "spec t 3.0",
        "search limit 1.5", "budget 10.5", "griesmer d 96.5", "griesmer k 8.0", "gap t 4.0",
        "gap i 1.5", "decompose q 2.5", "selection count 2.5", "selection count -1"])
def test_non_integer_parameters_are_refused(call, message):
    # each value is read by operator.index before any table, search, build or count
    with pytest.raises(ParameterError, match=f"^{message}$"):
        call()


def test_numpy_integer_parameters_are_read_as_ints():
    field = field_create(np.int64(2), np.int64(2))
    assert field is field_from_order(np.uint8(4)) is field_from_order(4)
    code, _ = build_two_weight(simplex_consta(field, np.int64(2)), np.int32(3))
    assert type(code.p) is int and type(code.simplex.t) is int


def test_cyclic_needs_coprime_t(gf4):
    with pytest.raises(ParameterError):
        simplex_cyclic(gf4, 3)  # gcd(3, 3) = 3
    with pytest.raises(ParameterError, match="^dimension t must be > 1, got 1$"):
        simplex_cyclic(gf4, 1)
    s = simplex_cyclic(gf4, 2)
    assert s.params() == (5, 2, 4)
    words = span_words(gf4, twistulant_rows(gf4, s.lam, base_word(s))[:2])
    weights = {sum(1 for c in w if c) for w in words if any(w)}
    assert weights == {4}


@pytest.mark.parametrize("q, t", CYCLIC_CONFIGS)
def test_cyclic_base_rescales_the_canonical_h(q, t):
    field = field_from_order(q)
    s = simplex_cyclic(field, t)
    h, h0 = s.h, find_primitive(field, t, limit=1)[0]
    assert h.is_monic() and h.degree == t
    assert poly_divmod(field, twist_modulus(field, s.m, 1), h.coeffs)[1] == ()
    assert is_irreducible(h) and order_of_x(h) == s.m
    f = scalar(field)

    def rescales_h0(c):  # h(x) = c^(-t) h0(c x), that is h_j c^(t-j) = h0_j, from j = t down
        scale = 1
        for a, b in zip(reversed(h.coeffs), reversed(h0.coeffs)):
            if f.mul(a, scale) != b:
                return False
            scale = f.mul(scale, c)
        return True

    assert any(rescales_h0(c) for c in range(1, q))
    if q == 2:
        assert h == h0


def test_cyclic_generator_override(gf3):
    ref_g = Poly(gf3, (1, 0, 1, 1, 1, 2, 2, 0, 1, 2, 1))
    s = simplex_cyclic(gf3, 3, g=ref_g)
    assert s.g == ref_g
    assert s.params() == (13, 3, 9)
    # the degree is checked before dividing, so g = 0 raises no ZeroDivisionError
    for g, match in [(Poly(gf3), "degree"), (Poly(gf3, (1, 1)), "degree"),
                     (Poly.monomial(gf3, 10), "does not divide x\\^13 - 1"),
                     (Poly.monomial(field_from_order(2), 10), "^g belongs to a different field$")]:
        with pytest.raises(ParameterError, match=match):
            simplex_cyclic(gf3, 3, g=g)


@pytest.mark.parametrize("q, t", [(3, 3), (4, 2)])
def test_a_supplied_non_monic_g_gives_the_base_of_g(q, t):
    # (x^m - 1) / (c g) = h / c, rescaled to monic; over GF(4) c^-1 is not always c
    field = field_from_order(q)
    base, f = simplex_cyclic(field, t), scalar(field)
    assert base.g.is_monic()
    for c in range(1, q):
        s = simplex_cyclic(field, t, g=Poly(field, [f.mul(c, v) for v in base.g.coeffs]))
        assert (s.h, s.g, s.lam) == (base.h, base.g, base.lam), c


@pytest.mark.parametrize("cyclic", [False, True], ids=["h", "g"])
def test_a_supplied_polynomial_over_the_search_bound_is_refused_before_any_division(
        gf2, monkeypatch, cyclic):
    s = simplex_cyclic(gf2, 4) if cyclic else simplex_consta(gf2, 4)

    def no_division(*args):
        raise AssertionError("a polynomial division ran before the size rule")
    monkeypatch.setattr(polynomial, "DEFAULT_SEARCH_BOUND", 8)
    monkeypatch.setattr(Poly, "__divmod__", no_division)
    with pytest.raises(BudgetExceededError, match=r"needs 2\^4 residues, budget is 8$") as err:
        simplex_cyclic(gf2, 4, g=s.g) if cyclic else simplex_consta(gf2, 4, h=s.h)
    assert (err.value.required, err.value.budget) == (16, 8)


def codeword(s, i, j):
    """The block i * x^j * g, as the word table holds it."""
    return tuple(table_words(s, i, j).tolist())


def test_codeword_poly(s_binary, s_ternary):
    assert codeword(s_binary, 1, 0) == base_word(s_binary)
    assert codeword(s_binary, 1, 1) == (0, 1, 1, 1, 0, 1, 0)  # x * g, no wraparound
    assert codeword(s_ternary, 2, 0) == (1, 2, 2, 0)  # 2 * (x^2 + x + 2)
    with pytest.raises(ParameterError, match="scale index"):
        build_two_weight(s_ternary, 2, selection=((3, 0),))
    with pytest.raises(ParameterError, match="shift"):
        build_two_weight(s_ternary, 2, selection=((1, 4),))


def test_codeword_polys_enumerate_all_nonzero_codewords(s_ternary):
    # the (q-1)*m selection blocks are exactly the nonzero simplex codewords
    all_blocks = {codeword(s_ternary, i, j) for i in (1, 2) for j in range(4)}
    rows = twistulant_rows(s_ternary.field, s_ternary.lam,
                           base_word(s_ternary))[:2]
    words = {w for w in span_words(s_ternary.field, rows) if any(w)}
    assert all_blocks == words


@pytest.mark.parametrize("pair", ["zero scale", "scale q", "shift m", "shift -1"])
def test_out_of_range_selection_is_rejected_before_any_gather(s_ternary, monkeypatch, pair):
    q, m = s_ternary.q, s_ternary.m
    i, j = {"zero scale": (0, 0), "scale q": (q, 0), "shift m": (1, m), "shift -1": (1, -1)}[pair]

    def no_gather(s):
        raise AssertionError("read the word table for an invalid selection")

    monkeypatch.setattr(SimplexSpec, "_table", property(no_gather))  # every build gathers from it
    with pytest.raises(ParameterError, match="scale index" if j == 0 else "shift"):
        build_two_weight(s_ternary, 3, selection=((1, 1), (i, j)))


def test_selection_entries_must_be_integers(s_ternary):
    for bad in ((1.0, 0), (1, "2"), (1, 0.5)):
        with pytest.raises(ParameterError, match="integers"):
            build_two_weight(s_ternary, 2, selection=(bad,))
    code, _ = build_two_weight(s_ternary, 2, selection=((np.int64(2), np.uint8(3)),))
    assert code.selection == ((2, 3),) and type(code.selection[0][0]) is int


def test_default_selection_order(s_ternary):
    assert default_selection(s_ternary, 5) == ((1, 0), (1, 1), (1, 2), (1, 3), (2, 0))


def test_build_two_weight_validation(s_ternary):
    with pytest.raises(ParameterError):
        build_two_weight(s_ternary, 1)
    with pytest.raises(ParameterError):
        build_two_weight(s_ternary, 10)
    with pytest.raises(ParameterError):
        build_two_weight(s_ternary, 3, selection=((1, 0), (1, 0)))
    with pytest.raises(ParameterError):
        build_two_weight(s_ternary, 3, selection=((1, 0),))


def test_build_two_weight_shape(s_binary):
    code, G = build_two_weight(s_binary, 8)
    assert (code.n, code.k) == (56, 6)
    assert G.k == 6 and G.n == 56
    assert (code.simplex.t, code.block_count, code.simplex.m) == (3, 8, 7)
    assert code.selection == tuple((1, j) for j in range(7))
    # top rows repeat x^u * g across all 8 blocks, bottom rows start with a zero block
    gvec = base_word(s_binary)
    assert G.rows.shape == (6, 56) and G.rows.dtype == s_binary.field.tables.mul.dtype
    assert tuple(G.rows[0].tolist()) == gvec * 8
    assert tuple(G.rows[3, :7].tolist()) == (0,) * 7
    assert tuple(G.rows[3, 7:14].tolist()) == gvec


def test_generator_rows_are_read_only(s_ternary):
    _, G = build_two_weight(s_ternary, 3)
    assert not G.rows.flags.writeable
    with pytest.raises(ValueError):
        G.rows[0, 0] = 1
    assert (G.k, G.n) == G.rows.shape == (4, 12)


def test_two_weight_p2_weights(s_ternary):
    code, G = build_two_weight(s_ternary, 2)
    counts = naive_weight_counts(s_ternary.field, G.rows)
    assert set(counts) == {0, 3, 6}  # {q^(t-1), 2 q^(t-1)} plus the zero word


def _reorder_blocks(monkeypatch, layout):
    """Reassemble every generator row from the width-m blocks that layout(block_count) lists."""
    assemble = construction._assemble_rows

    def reordered(code, shifts):
        m = code.simplex.m
        rows = assemble(code, shifts)
        return np.hstack([rows[:, b * m:(b + 1) * m] for b in layout(code.block_count)])

    monkeypatch.setattr(construction, "_assemble_rows", reordered)


def certified_minor(code, G):
    """The 2t x 2t minor of the module docstring: columns 0..t-1, then j_1 + v mod m of block 1."""
    t, m = code.simplex.t, code.simplex.m
    j1 = code.selection[0][1]
    return G.rows[:, [*range(t), *(m + (j1 + v) % m for v in range(t))]]


def is_certified(minor) -> bool:
    return not np.tril(minor, -1).any() and minor.diagonal().all()


def test_rank_is_full_for_samples(s_binary, s_ternary, gf3):
    for s, p in ((s_binary, 5), (s_ternary, 7), (simplex_consta(gf3, 3), 4)):
        code, G = build_two_weight(s, p)
        minor = certified_minor(code, G)
        assert is_certified(minor)
        assert naive_rank(s.field, minor) == naive_rank(s.field, G.rows) == code.k


def test_rank_minor_wraps_around_block_one(s_ternary):
    # j_1 = 3 > m - t = 2: the minor reads columns 3 and then 0 of block 1
    code, G = build_two_weight(s_ternary, 4, selection=((2, 3), (1, 0), (1, 2)))
    m = s_ternary.m
    minor = G.rows[:, [0, 1, m + 3, m]]
    assert minor.tolist() == certified_minor(code, G).tolist()
    assert is_certified(minor)
    assert naive_rank(s_ternary.field, minor) == code.k


@cache
def minor_base(q, t, cyclic):
    return (simplex_cyclic if cyclic else simplex_consta)(field_from_order(q), t)


MINOR_BASES = [(q, t, False) for q, t in SWEEP_CONFIGS] + [(q, t, True) for q, t in CYCLIC_CONFIGS]


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_certified_minor_is_triangular_with_full_rank(data):
    s = minor_base(*data.draw(st.sampled_from(MINOR_BASES)))
    if data.draw(st.booleans(), label="qt-simplex"):
        code, G = build_qt_simplex(s)
    else:
        p = data.draw(st.integers(2, s.q**s.t), label="p")
        pairs = data.draw(st.permutations([(i, j) for i in range(1, s.q) for j in range(s.m)]))
        code, G = build_two_weight(s, p, selection=pairs[:p - 1])
    minor = certified_minor(code, G)
    assert is_certified(minor)
    assert naive_rank(s.field, minor) == code.k


def test_rank_deficient_generator_is_rejected(s_ternary, monkeypatch):
    _reorder_blocks(monkeypatch, lambda count: [0] * count)
    with pytest.raises(VerificationError, match="full rank"):
        build_two_weight(s_ternary, 4)


def test_rank_deficient_generator_with_a_nonzero_diagonal_is_rejected(s_ternary, monkeypatch):
    # the first selected block is g itself, so block 1 read in place of block 0
    # makes both row groups [x^u g | x^u g]: rank t, yet every diagonal entry of
    # the minor is g_0 != 0, and only its lower-left block shows the defect
    code, G = build_two_weight(s_ternary, 2, selection=((1, 0),))
    m = s_ternary.m
    repeated = np.hstack([G.rows[:, m:], G.rows[:, m:]])
    assert naive_rank(s_ternary.field, repeated) == s_ternary.t < code.k
    _reorder_blocks(monkeypatch, lambda count: [1] * count)
    with pytest.raises(VerificationError, match="full rank"):
        build_two_weight(s_ternary, 2, selection=((1, 0),))


def test_equidistance_check_rejects_non_simplex_spans(gf3):
    # h = x^2 + 1 is irreducible over GF(3) but not primitive: x^4 = 1 mod h, and
    # g = (x^4 - 1)/h = x^2 - 1 spans a code with weights 2 and 4
    with pytest.raises(VerificationError, match="^simplex check: .* not equidistant"):
        SimplexSpec(gf3, 2, Poly(gf3, (1, 0, 1)), CYCLIC)
    # x^2 - 1 divides x^4 - 1 too, and g = x^2 + 1 repeats the columns of its two shifts
    with pytest.raises(VerificationError, match="^simplex check: "):
        SimplexSpec(gf3, 2, Poly(gf3, (2, 0, 1)), CYCLIC)


def test_a_hand_built_base_of_a_non_primitive_h_is_refused(gf2):
    # x^4 + x^3 + x^2 + x + 1 is irreducible, but x has order 5 modulo it, and
    # g = (x^15 - 1)/h spans weights 6 and 12, not 8: its base would give the
    # orbit spectrum wrong counts.  replace builds a base and checks it again.
    h = Poly(gf2, (1, 1, 1, 1, 1))
    with pytest.raises(VerificationError, match="^simplex check: "):
        SimplexSpec(gf2, 4, h, CYCLIC)
    s = simplex_consta(gf2, 4)
    with pytest.raises(VerificationError, match="^simplex check: "):
        replace(s, h=h)
    other = find_primitive(gf2, 4)[1]
    assert replace(s, h=other) == simplex_consta(gf2, 4, other) != s


@pytest.mark.parametrize("name", ["m", "lam", "g"])
def test_the_derived_fields_of_a_base_cannot_be_replaced(s_ternary, name):
    value = {"m": 5, "lam": 0, "g": Poly(s_ternary.field, (1,))}[name]
    with pytest.raises(ValueError, match=f"^field {name} is declared with init=False"):
        replace(s_ternary, **{name: value})


@pytest.mark.parametrize("h", [(2, 2, 1), (1, 0, 1)], ids=["primitive", "not primitive"])
def test_a_base_of_an_unknown_variant_is_refused(gf3, s_ternary, h):
    # x^2 + 2x + 2 once built a base reported as variant "bogus"; the variant is
    # refused before the division, so x^2 + 1 raises no simplex check either
    with pytest.raises(ParameterError, match="^variant must be 'consta-cyclic' or 'cyclic', "
                                             "got 'bogus'$"):
        SimplexSpec(gf3, 2, Poly(gf3, h), "bogus")
    with pytest.raises(ParameterError, match="^variant must be "):
        replace(s_ternary, variant="bogus")


# small (q, t) for the differential test of the simplex check
EQUIDISTANCE_CONFIGS = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2), (7, 2), (9, 2))


@cache
def twist_divisors(q, t, lam):
    """Every monic h of degree t that divides x^m - lam, by the scalar oracle's division."""
    field = field_from_order(q)
    modulus = twist_modulus(field, (q**t - 1) // (q - 1), lam)
    return [Poly(field, tail + (1,)) for tail in product(range(q), repeat=t)
            if not poly_divmod(field, modulus, tail + (1,))[1]]


@st.composite
def simplex_bases(draw):
    """(field, t, h, variant) whose h passes the division and the twist constant.

    h is a monic divisor of x^m - lam of degree t, lam = 1 for the cyclic
    variant and a generator of GF(q)^* for the consta-cyclic one, so only the
    simplex check decides the base.
    """
    q, t = draw(st.sampled_from(EQUIDISTANCE_CONFIGS))
    field = field_from_order(q)
    generator = next(a for a in range(1, q) if field.element_order(a) == q - 1)
    variant, lam = draw(st.sampled_from([(CYCLIC, 1), (CONSTA_CYCLIC, generator)]))
    return field, t, draw(st.sampled_from(twist_divisors(q, t, lam))), variant


@settings(deadline=None, max_examples=300)
@given(simplex_bases())
def test_equidistance_check_agrees_with_the_spectrum(base):
    # the check sorts the columns of the t shifts of g; the transform oracle counts the
    # weights of those shifts, x^u g with g = x^m // h from the scalar oracle
    field, t, h, variant = base
    q = field.q
    m = (q**t - 1) // (q - 1)
    g, rem = poly_divmod(field, (0,) * m + (1,), h.coeffs)
    rows = [residue(field, (0,) * u + g, m, rem[0]) for u in range(t)]
    counts = transform_distribution(field, rows).counts
    equidistant = counts == {0: 1, q ** (t - 1): q**t - 1}
    try:
        s = SimplexSpec(field, t, h, variant)
    except VerificationError as err:
        assert str(err).startswith("simplex check: ") and not equidistant, (err, counts)
    else:
        assert equidistant, counts
        assert table_words(s, 1, range(t)).tolist() == [list(row) for row in rows]


@pytest.mark.parametrize("q, cyclic", [(256, False), (1024, False), (256, True)],
                         ids=["consta-256", "consta-1024", "cyclic-256"])
def test_large_field_bases_pass_the_simplex_check(q, cyclic):
    field = field_from_order(q)
    s = simplex_cyclic(field, 2) if cyclic else simplex_consta(field, 2)
    assert s.params() == (q + 1, 2, q)
    _check_equidistant(s)


def test_large_field_simplex_check_rejects_a_perturbed_g():
    # h = x^2 + 995x + 713 passes the division and the twist constant, so only
    # the simplex check refuses its g.  Over GF(256) at t = 2 no h does: one
    # that passes the first two stages is primitive, as q + 1 = 257 is prime.
    field = field_from_order(1024)
    with pytest.raises(VerificationError, match="^simplex check: .* not equidistant"):
        SimplexSpec(field, 2, Poly(field, (713, 995, 1)), CONSTA_CYCLIC)


def test_qt_simplex_shape(gf2, s_ternary):
    s = simplex_consta(gf2, 2, Poly(gf2, (1, 1, 1)))
    code, G = build_qt_simplex(s)
    assert (code.n, code.k) == (15, 4)
    assert code.block_count == 5
    gvec = base_word(s)
    assert tuple(G.rows[0].tolist()) == gvec * 4 + (0, 0, 0)  # trailing zero block on top
    assert tuple(G.rows[2, :3].tolist()) == (0, 0, 0)         # leading zero block at the bottom
    assert tuple(G.rows[2, -3:].tolist()) == gvec             # trailing generator block
    code3, G3 = build_qt_simplex(s_ternary)
    assert (code3.n, code3.k) == (40, 4)


def test_full_block_matrix_spans_the_same_code(s_ternary):
    code, G = build_two_weight(s_ternary, 3)
    block_rows = full_block_matrix(code)
    assert block_rows.shape == (2 * s_ternary.m, code.n)
    # every block-form row lies in the span of the reduced generator
    for row in block_rows:
        assert naive_rank(s_ternary.field, list(G.rows) + [row]) == code.k
    # and the block form has full rank itself, so the two codes coincide
    assert naive_rank(s_ternary.field, block_rows) == code.k


def test_full_block_matrix_qt_simplex(s_ternary):
    code, G = build_qt_simplex(s_ternary)
    block_rows = full_block_matrix(code)
    assert block_rows.shape == (8, 40)
    for row in block_rows:
        assert naive_rank(s_ternary.field, list(G.rows) + [row]) == code.k


def test_blockwise_shift_closure(s_ternary):
    # shifting every width-m block by one position maps codewords to codewords
    code, G = build_two_weight(s_ternary, 3)
    words = set(span_words(s_ternary.field, G.rows))
    assert len(words) == 3**4
    m = s_ternary.m
    for w in words:
        shifted = ()
        for b in range(code.block_count):
            shifted += consta_shift(s_ternary.field, s_ternary.lam, w[b * m:(b + 1) * m])
        assert shifted in words


# The benchmark's sweep families plus SWEEP_CONFIGS, as (q, t, cyclic base)
SELECTION_FAMILIES = sorted({(q, t, False) for q, t in SWEEP_CONFIGS} | {
    (2, 3, False), (2, 4, False), (2, 5, False), (3, 2, False), (3, 3, False), (3, 3, True),
    (4, 2, False), (5, 2, False), (7, 2, False), (8, 2, False), (9, 2, False)})


@cache
def simplex_of(q, t, cyclic):
    field = field_from_order(q)
    return simplex_cyclic(field, t) if cyclic else simplex_consta(field, t)


@pytest.mark.parametrize("q, t, cyclic", SELECTION_FAMILIES)
def test_default_selection_is_a_prefix_of_the_full_enumeration(q, t, cyclic):
    s = simplex_of(q, t, cyclic)
    pairs = [(i, j) for i in range(1, q) for j in range(s.m)]
    for count in (1, s.m, (q - 1) * s.m, (q - 1) * s.m // 2 + 1, 0, (q - 1) * s.m + 5):
        assert default_selection(s, count) == tuple(pairs[:count])


def oracle_rows(code, shifts):
    """The rows of _assemble_rows from twistulant_rows alone: block (a, j) row u is a x^(j+u) g."""
    s = code.simplex
    f = scalar(s.field)
    shifted = twistulant_rows(s.field, s.lam, base_word(s))  # row j is x^j g

    @cache
    def block(a, j):
        return twistulant_rows(s.field, s.lam, tuple(f.mul(a, v) for v in shifted[j]))

    trailing = code.variant == construction.QT_SIMPLEX
    top = [(1, 0)] * code.p + [(0, 0)] * trailing
    bottom = [(0, 0), *code.selection] + [(1, 0)] * trailing
    return [sum((block(a, j)[u] for a, j in blocks), ()) for blocks in (top, bottom)
            for u in range(shifts)]


ASSEMBLY_BASES = ((2, 3, False), (2, 3, True), (3, 2, False), (3, 3, True), (4, 2, False),
                  (4, 2, True), (5, 2, False), (8, 2, False), (9, 2, False))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_assembled_rows_match_the_twistulant_oracle(data):
    q, t, cyclic = data.draw(st.sampled_from(ASSEMBLY_BASES))
    s = simplex_of(q, t, cyclic)
    if data.draw(st.booleans(), label="qt-simplex"):
        code, G = build_qt_simplex(s)  # its selection is every pair, so each scale repeats
    else:
        # a random subset of the scales, so the window table's scale slots vary
        scales = data.draw(st.sets(st.integers(1, q - 1), min_size=1), label="scales")
        pairs = [(i, j) for i in sorted(scales) for j in range(s.m)]
        selection = data.draw(st.lists(st.sampled_from(pairs), min_size=1,
                                       max_size=min(len(pairs), 12), unique=True))
        code, G = build_two_weight(s, len(selection) + 1, selection)
    for shifts in (t, s.m):
        rows = construction._assemble_rows(code, shifts)
        assert rows.shape == (2 * shifts, code.n)
        assert [tuple(r) for r in rows.tolist()] == oracle_rows(code, shifts)
    assert np.array_equal(G.rows, construction._assemble_rows(code, t))


def test_full_block_matrix_temporaries_stay_below_the_output(gf2):
    # q=2 t=7 p=9: a 254 x 1143 output; an intp index of output size would be ~2.3 MB
    code, _ = build_two_weight(simplex_consta(gf2, 7), 9)
    full_block_matrix(code)
    tracemalloc.start()
    try:
        rows = full_block_matrix(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (254, 1143)
    assert peak < 2 * rows.nbytes + (64 << 10)
