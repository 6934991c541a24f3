import pytest

from qtweave import (
    ParameterError,
    Poly,
    TwistRing,
    VerificationError,
    build_qt_simplex,
    build_two_weight,
    codeword_poly,
    construction,
    default_selection,
    full_block_matrix,
    simplex_consta,
    simplex_cyclic,
)
from qtweave.construction import _check_equidistant
from conftest import naive_rank, naive_weight_counts, span_words


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
        modulus = Poly.monomial(s.field, s.m) - Poly(s.field, (s.lam,))
        assert s.h * s.g == modulus


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


def test_cyclic_simplex_parameters(gf3):
    s = simplex_cyclic(gf3, 3)
    assert s.lam == 1
    assert s.params() == (13, 3, 9)
    # explicit equidistance oracle over all 27 codewords
    gvec = s.ring.reduce(s.g)
    rows = [s.ring.consta_shift(gvec, u) for u in range(3)]
    words = span_words(gf3, rows)
    weights = {sum(1 for c in w if c) for w in words if any(w)}
    assert weights == {9}
    assert len(set(words)) == 27


def test_cyclic_binary_matches_consta(gf2):
    assert simplex_cyclic(gf2, 3).g == simplex_consta(gf2, 3).g


def test_cyclic_needs_coprime_t(gf4):
    with pytest.raises(ParameterError):
        simplex_cyclic(gf4, 3)  # gcd(3, 3) = 3
    s = simplex_cyclic(gf4, 2)
    assert s.params() == (5, 2, 4)
    gvec = s.ring.reduce(s.g)
    words = span_words(gf4, [s.ring.consta_shift(gvec, u) for u in range(2)])
    weights = {sum(1 for c in w if c) for w in words if any(w)}
    assert weights == {4}


def test_cyclic_generator_override(gf3):
    ref_g = Poly(gf3, (1, 0, 1, 1, 1, 2, 2, 0, 1, 2, 1))
    s = simplex_cyclic(gf3, 3, g=ref_g)
    assert s.g == ref_g
    assert s.params() == (13, 3, 9)
    with pytest.raises(ParameterError):
        simplex_cyclic(gf3, 3, g=Poly(gf3, (1, 1)))  # does not divide x^13 - 1


def test_codeword_poly(s_binary, s_ternary):
    gvec = s_binary.ring.reduce(s_binary.g)
    assert codeword_poly(s_binary, 1, 0) == gvec
    assert codeword_poly(s_binary, 1, 1) == (0, 1, 1, 1, 0, 1, 0)  # x * g, no wraparound
    assert codeword_poly(s_ternary, 2, 0) == (1, 2, 2, 0)  # 2 * (x^2 + x + 2)
    with pytest.raises(ParameterError):
        codeword_poly(s_ternary, 3, 0)
    with pytest.raises(ParameterError):
        codeword_poly(s_ternary, 1, 4)


def test_codeword_polys_enumerate_all_nonzero_codewords(s_ternary):
    # the (q-1)*m selection blocks are exactly the nonzero simplex codewords
    all_blocks = {codeword_poly(s_ternary, i, j) for i in (1, 2) for j in range(4)}
    gvec = s_ternary.ring.reduce(s_ternary.g)
    rows = [s_ternary.ring.consta_shift(gvec, u) for u in range(2)]
    words = {w for w in span_words(s_ternary.field, rows) if any(w)}
    assert all_blocks == words


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
    assert G.row_groups == (3, 3)
    assert code.selection == tuple((1, j) for j in range(7))
    # top rows repeat x^u * g across all 8 blocks, bottom rows start with a zero block
    gvec = s_binary.ring.reduce(s_binary.g)
    assert G.rows[0] == gvec * 8
    assert G.rows[3][:7] == (0,) * 7
    assert G.rows[3][7:14] == gvec


def test_two_weight_p2_weights(s_ternary):
    code, G = build_two_weight(s_ternary, 2)
    counts = naive_weight_counts(s_ternary.field, G.rows)
    assert set(counts) == {0, 3, 6}  # {q^(t-1), 2 q^(t-1)} plus the zero word


@pytest.fixture
def rank_widths(monkeypatch):
    """The column count of every matrix handed to the rank check, in call order."""
    widths = []
    rank = construction._rank

    def recording_rank(field, rows):
        widths.append(len(rows[0]))
        return rank(field, rows)

    monkeypatch.setattr(construction, "_rank", recording_rank)
    return widths


def _reorder_blocks(monkeypatch, layout):
    """Reassemble every generator row from the width-m blocks that layout(block_count) lists."""
    assemble = construction._assemble_rows

    def reordered(code, blocks, shifts):
        m = code.simplex.m
        return tuple(sum((r[b * m:(b + 1) * m] for b in layout(code.block_count)), ())
                     for r in assemble(code, blocks, shifts))

    monkeypatch.setattr(construction, "_assemble_rows", reordered)


def test_rank_is_full_for_samples(s_binary, s_ternary, gf3, rank_widths):
    for s, p in ((s_binary, 5), (s_ternary, 7), (simplex_consta(gf3, 3), 4)):
        rank_widths.clear()
        code, G = build_two_weight(s, p)
        assert naive_rank(s.field, G.rows) == code.k
        assert rank_widths == [2 * s.m]  # the leading two blocks settle it


def test_rank_falls_back_to_all_columns(s_ternary, monkeypatch, rank_widths):
    # blocks 0, 0, 2, 3: the leading columns [[G, G], [0, 0]] have rank t only,
    # while blocks 0 and 2 together give [[G, G], [0, B_2]] of rank 2t
    _reorder_blocks(monkeypatch, lambda count: [0, 0, *range(2, count)])
    code, G = build_two_weight(s_ternary, 4)
    lead = 2 * s_ternary.m
    assert naive_rank(G.field, [r[:lead] for r in G.rows]) == s_ternary.t
    assert naive_rank(G.field, G.rows) == code.k
    assert rank_widths == [lead, code.n]


def test_rank_deficient_generator_is_rejected(s_ternary, monkeypatch, rank_widths):
    _reorder_blocks(monkeypatch, lambda count: [0] * count)
    with pytest.raises(VerificationError, match="full rank"):
        build_two_weight(s_ternary, 4)
    assert rank_widths == [2 * s_ternary.m, 4 * s_ternary.m]


def test_equidistance_check_rejects_non_simplex_spans(gf3):
    # h = x^2 + 1 is irreducible over GF(3) but not primitive: x^4 = 1 mod h, and
    # g = (x^4 - 1)/h = x^2 - 1 spans a code with weights 2 and 4
    ring = TwistRing(gf3, 4, 1)
    g = Poly(gf3, (2, 0, 1))
    with pytest.raises(VerificationError, match="not equidistant"):
        _check_equidistant(gf3, ring, g, 2)
    with pytest.raises(VerificationError):  # x^2 g = -g: three shifts span only 9 words
        _check_equidistant(gf3, ring, g, 3)


def test_qt_simplex_shape(gf2, s_ternary):
    s = simplex_consta(gf2, 2, Poly(gf2, (1, 1, 1)))
    code, G = build_qt_simplex(s)
    assert (code.n, code.k) == (15, 4)
    assert code.block_count == 5
    gvec = s.ring.reduce(s.g)
    assert G.rows[0] == gvec * 4 + (0, 0, 0)   # trailing zero block on top
    assert G.rows[2][:3] == (0, 0, 0)          # leading zero block at the bottom
    assert G.rows[2][-3:] == gvec              # trailing generator block at the bottom
    code3, G3 = build_qt_simplex(s_ternary)
    assert (code3.n, code3.k) == (40, 4)


def test_full_block_matrix_spans_the_same_code(s_ternary):
    code, G = build_two_weight(s_ternary, 3)
    block_rows = full_block_matrix(code)
    assert len(block_rows) == 2 * s_ternary.m
    assert all(len(r) == code.n for r in block_rows)
    # every block-form row lies in the span of the reduced generator
    for row in block_rows:
        assert naive_rank(s_ternary.field, list(G.rows) + [row]) == code.k
    # and the block form has full rank itself, so the two codes coincide
    assert naive_rank(s_ternary.field, block_rows) == code.k


def test_full_block_matrix_qt_simplex(s_ternary):
    code, G = build_qt_simplex(s_ternary)
    block_rows = full_block_matrix(code)
    assert len(block_rows) == 8
    assert all(len(r) == 40 for r in block_rows)
    for row in block_rows:
        assert naive_rank(s_ternary.field, list(G.rows) + [row]) == code.k


def test_blockwise_shift_closure(s_ternary):
    # shifting every width-m block by one position maps codewords to codewords
    code, G = build_two_weight(s_ternary, 3)
    ring = s_ternary.ring
    words = set(span_words(s_ternary.field, G.rows))
    assert len(words) == 3**4
    m = s_ternary.m
    for w in words:
        shifted = ()
        for b in range(code.block_count):
            shifted += ring.consta_shift(w[b * m:(b + 1) * m], 1)
        assert shifted in words
