import dataclasses
from fractions import Fraction
from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtweave import (
    BudgetExceededError,
    GeneratorMatrix,
    ParameterError,
    Poly,
    VerificationError,
    build_qt_simplex,
    build_two_weight,
    decompose_block_count,
    dual_low_counts,
    expected_counts,
    field_from_order,
    gap_fn,
    griesmer_length,
    griesmer_report,
    is_projective,
    mean_weight_identity_holds,
    min_distance,
    simplex_consta,
    srg_parameters,
    verify_two_weight,
    weight_distribution,
)
from qtweave.analysis import WeightDistribution, weight_distribution_of_rows
from conftest import (dual_counts, dual_pair_counts, naive_weight_counts, scalar,
                      transform_distribution)


@pytest.fixture(scope="session")
def code56(gf2):
    s = simplex_consta(gf2, 3, Poly(gf2, (1, 1, 0, 1)))
    return build_two_weight(s, 8)


@pytest.fixture(scope="session")
def s_ternary2(gf3):
    return simplex_consta(gf3, 2, Poly(gf3, (2, 2, 1)))


def test_weight_distribution_matches_naive_oracle(gf2, gf3, s_ternary2):
    s2 = simplex_consta(gf2, 3, Poly(gf2, (1, 1, 0, 1)))
    for s, p in ((s2, 2), (s_ternary2, 2), (s_ternary2, 4)):
        code, G = build_two_weight(s, p)
        W = weight_distribution(G)
        assert W.counts == naive_weight_counts(s.field, G.rows)
        assert W.total() == s.field.q**code.k


def test_weight_distribution_extension_field(gf4):
    s = simplex_consta(gf4, 2)
    code, G = build_two_weight(s, 3)
    W = weight_distribution(G)
    assert W.counts == naive_weight_counts(gf4, G.rows)


def test_known_distributions(code56, s_ternary2, gf2):
    code, G = code56
    assert weight_distribution(G).counts == {0: 1, 28: 56, 32: 7}
    code3, G3 = build_two_weight(s_ternary2, 2)
    assert weight_distribution(G3).counts == {0: 1, 3: 16, 6: 64}
    s_tiny = simplex_consta(gf2, 2, Poly(gf2, (1, 1, 1)))
    _, G_qt = build_qt_simplex(s_tiny)
    assert weight_distribution(G_qt).counts == {0: 1, 8: 15}


def test_budget_guard(code56):
    _, G = code56
    with pytest.raises(BudgetExceededError) as err:
        weight_distribution(G, budget=10)
    assert err.value.required == 64
    assert err.value.budget == 10


def test_verify_two_weight(code56):
    code, G = code56
    W = weight_distribution(G)
    verdict = verify_two_weight(W, code)
    assert verdict.ok
    assert (verdict.w1, verdict.w2) == (28, 32)
    assert verdict.observed == (28, 32)


def test_verify_two_weight_series_values(gf3):
    s = simplex_consta(gf3, 3)
    for p, w1, w2 in ((2, 9, 18), (16, 135, 144)):
        code, G = build_two_weight(s, p)
        verdict = verify_two_weight(weight_distribution(G), code)
        assert verdict.ok and (verdict.w1, verdict.w2) == (w1, w2)


def test_verify_two_weight_negative_control(code56):
    code, G = code56
    # replace a row with a weight-1 word: a weight outside {28, 32} must appear
    bad_rows = G.rows.copy()
    bad_rows[0] = 0
    bad_rows[0, 0] = 1
    tampered = dataclasses.replace(G, rows=bad_rows)
    verdict = verify_two_weight(transform_distribution(tampered.field, tampered.rows), code)
    assert not verdict.ok
    assert verdict.unexpected


def test_verify_two_weight_variant_gate(s_ternary2):
    code, G = build_qt_simplex(s_ternary2)
    with pytest.raises(ParameterError):
        verify_two_weight(weight_distribution(G), code)


def test_min_distance(code56, gf2, gf3, s_ternary2):
    code, G = code56
    assert min_distance(weight_distribution(G)) == 28
    s24 = simplex_consta(gf2, 4)
    _, G24 = build_two_weight(s24, 13)
    assert min_distance(weight_distribution(G24)) == 96
    _, G9 = build_two_weight(s_ternary2, 9)
    assert min_distance(weight_distribution(G9)) == 24
    zero = transform_distribution(gf2, [[0, 0, 0]])
    assert zero.counts == {0: 2}
    with pytest.raises(ParameterError, match="^the trivial code has no minimum distance$"):
        min_distance(zero)


def test_griesmer_length_known_values():
    assert griesmer_length(6, 144, 3) == 217
    assert griesmer_length(6, 225, 3) == 338
    assert griesmer_length(1, 5, 2) == 5


def test_griesmer_length_matches_ceiling_oracle():
    for (k, d, q) in ((4, 7, 2), (6, 28, 2), (4, 24, 3), (5, 17, 4), (3, 9, 5)):
        oracle = sum(ceil(Fraction(d, q**j)) for j in range(k))
        assert griesmer_length(k, d, q) == oracle
    with pytest.raises(ParameterError):
        griesmer_length(0, 1, 2)


def test_gap_fn_known_values():
    assert gap_fn(4, 3, 3) == 4
    assert gap_fn(3, 3, 3) == 2
    for t, q in ((2, 2), (3, 3), (4, 2), (2, 5)):
        assert gap_fn(1, t, q) == 0
    with pytest.raises(ParameterError):
        gap_fn(0, 3, 3)
    with pytest.raises(ParameterError):
        gap_fn(10, 3, 3)
    with pytest.raises(ParameterError, match="^t must be > 1, got 1$"):
        gap_fn(1, 1, 3)


def test_decompose_block_count_known_values():
    assert decompose_block_count(17, 3, 3) == (4, 1)
    assert decompose_block_count(28, 3, 3) == (1, 3)
    assert decompose_block_count(26, 3, 3) == (1, 1)
    with pytest.raises(ParameterError):
        decompose_block_count(1, 3, 3)
    with pytest.raises(ParameterError):
        decompose_block_count(29, 3, 3)


def test_decompose_block_count_is_the_unique_solution():
    for q, t in ((2, 3), (3, 2), (3, 3), (5, 2)):
        for p in range(2, q**t + 2):
            i, r = decompose_block_count(p, t, q)
            assert 1 <= r <= q
            assert 1 <= i <= q ** (t - 1)
            assert p == q**t - i * q + r + 1
            # brute-force uniqueness
            solutions = [
                (ii, rr)
                for ii in range(1, q ** (t - 1) + 1)
                for rr in range(1, q + 1)
                if p == q**t - ii * q + rr + 1
            ]
            assert solutions == [(i, r)]


def test_griesmer_report_known_rows(gf3, gf2):
    s = simplex_consta(gf3, 3)
    code, G = build_two_weight(s, 26)
    rep = griesmer_report(code, weight_distribution(G))
    assert (rep.n, rep.griesmer_length, rep.gap_observed) == (338, 338, 0)
    assert rep.length_optimal and rep.gap_match

    code, G = build_two_weight(s, 18)
    rep = griesmer_report(code, weight_distribution(G))
    assert (rep.n, rep.griesmer_length, rep.gap_observed, rep.gap_predicted) == (234, 230, 4, 4)
    assert not rep.length_optimal

    s2 = simplex_consta(gf2, 3, Poly(gf2, (1, 1, 0, 1)))
    code, G = build_two_weight(s2, 8)
    rep = griesmer_report(code, weight_distribution(G))
    assert (rep.n, rep.griesmer_length, rep.gap_observed) == (56, 56, 0)


def test_griesmer_report_rejects_wrong_distance(gf3):
    s = simplex_consta(gf3, 3)
    code18, _ = build_two_weight(s, 18)
    _, G17 = build_two_weight(s, 17)
    with pytest.raises(VerificationError):
        griesmer_report(code18, weight_distribution(G17))


def with_column(G, col):
    """G with one more column appended, in the generator's dtype."""
    return dataclasses.replace(G, rows=np.column_stack([G.rows, np.array(col, G.rows.dtype)]))


def test_is_projective(code56, s_ternary2):
    code, G = code56
    assert is_projective(G)  # frozen from the pairwise column check
    s = code.simplex
    _, G_p2 = build_two_weight(s, 2, selection=((1, 0),))
    assert is_projective(G_p2)  # frozen verdict for the smallest member
    # duplicated column: scalar dependence must be detected
    assert not is_projective(with_column(G, G.rows[:, 0]))
    # zero column
    assert not is_projective(with_column(G, (0,) * G.k))



def test_macwilliams_dual_counts_agree_with_is_projective(sweep, gf3, gf4):
    # B_1 counts zero columns and B_2 pairs of proportional columns, so both vanish
    # exactly when the generator is projective; B_0 = 1 and integrality check the spectrum
    cases = [(G, W) for *_, G, W, _ in sweep]
    for field in (gf3, gf4):
        _, G = build_two_weight(simplex_consta(field, 2), 3)
        c0 = tuple(G.rows[:, 0].tolist())
        extras = {
            "zero column": ((0,) * G.k, (field.q - 1, 0)),
            "repeated column": (c0, (0, field.q - 1)),
            "scalar multiple": (tuple(scalar(field).mul(2, c) for c in c0), (0, field.q - 1)),
        }
        for label, (col, b12) in extras.items():
            H = with_column(G, col)
            W = transform_distribution(H.field, H.rows)
            assert tuple(dual_counts(W)[1:]) == b12, (field, label)
            assert not is_projective(H), (field, label)
            cases.append((H, W))
    for G, W in cases:
        B = dual_counts(W)
        assert B[0] == 1
        assert all(b.denominator == 1 and b >= 0 for b in B)
        assert (B[1] == B[2] == 0) == is_projective(G)
        assert dual_low_counts(W) == tuple(B[1:])  # the Pless moments give the same counts


@st.composite
def mutations(draw):
    """Append zero columns and scalar multiples of existing columns to a sweep code."""
    return draw(st.lists(st.tuples(st.sampled_from(["zero", "multiple"]),
                                   st.integers(0, 1 << 16), st.integers(1, 1 << 16)),
                         max_size=3))


@settings(deadline=None, max_examples=60)
@given(index=st.integers(0, 1 << 16), edits=mutations())
def test_pless_moments_of_mutated_codes(sweep, index, edits):
    *_, G, _, _ = sweep[index % len(sweep)]
    q = G.field.q
    f = scalar(G.field)
    for kind, column, a in edits:
        col = G.rows[:, column % G.n].tolist()
        scaled = [f.mul(1 + a % (q - 1), v) for v in col]
        G = with_column(G, [0] * G.k if kind == "zero" else scaled)
    W = transform_distribution(G.field, G.rows)
    counts = dual_low_counts(W)
    assert counts == tuple(dual_counts(W)[1:]) == dual_pair_counts(G.field, G.rows)
    assert (counts == (0, 0)) == is_projective(G) == (not edits)
    assert mean_weight_identity_holds(W) == (counts[0] == 0)


def test_pless_moments_of_one_zero_column():
    # B_2 = 0 for a single zero column: the ROADMAP's "+ q - 2" coefficient gave (q - 1)(q - 2)
    for q in (3, 4, 5, 7, 8, 9):
        _, G = build_two_weight(simplex_consta(field_from_order(q), 2), 2)
        H = with_column(G, [0] * G.k)
        counts = dual_low_counts(transform_distribution(H.field, H.rows))
        assert counts == (q - 1, 0) == dual_pair_counts(H.field, H.rows)


@pytest.mark.parametrize("n, k, counts", [
    (3, 2, {0: 1, 1: 3}),  # sum w A_w = 3 is no multiple of q^(k-1) = 2
    (1, 1, {0: 1, 2: 1}),  # B_1 = M - 2 = -1
    (3, 3, {0: 1, 1: 2, 2: 5}),  # B_1 = 0, but the second moment leaves 2 B_2 = -1
], ids=["first moment", "negative B_1", "negative B_2"])
def test_pless_moments_reject_a_spectrum_of_no_code(n, k, counts):
    with pytest.raises(VerificationError):
        dual_low_counts(WeightDistribution(n=n, k=k, q=2, counts=counts))


@pytest.mark.parametrize("p, srg", [(13, (256, 195, 146, 156)), (14, (256, 210, 170, 182)),
                                    (16, (256, 240, 224, 240))])
def test_srg_parameters_of_the_binary_named_codes(gf2, p, srg):
    _, G = build_two_weight(simplex_consta(gf2, 4), p)
    assert srg_parameters(weight_distribution(G)) == srg


def test_srg_parameters_need_a_projective_two_weight_code(code56, gf2):
    code, G = code56
    with pytest.raises(ParameterError):
        srg_parameters(transform_distribution(G.field, with_column(G, [0] * G.k).rows))
    _, G1 = build_qt_simplex(simplex_consta(gf2, 2))
    with pytest.raises(ParameterError):
        srg_parameters(weight_distribution(G1))


def test_expected_counts(code56, s_ternary2, gf2):
    code, G = code56
    assert expected_counts(code) == (56, 7)
    code3, _ = build_two_weight(s_ternary2, 2)
    assert expected_counts(code3) == (16, 64)
    # p = q^t edge: counts (q^t (q^t - 1), q^t - 1), cross-checked by enumeration
    s_tiny = simplex_consta(gf2, 2, Poly(gf2, (1, 1, 1)))
    code_max, G_max = build_two_weight(s_tiny, 4)
    assert expected_counts(code_max) == (12, 3)
    W = weight_distribution(G_max)
    v = verify_two_weight(W, code_max)
    assert (W.counts[v.w1], W.counts[v.w2]) == (12, 3)
    with pytest.raises(ParameterError, match="^count prediction applies to the two-weight "
                                             "variant only$"):
        expected_counts(build_qt_simplex(s_tiny)[0])


def test_mean_weight_identity(code56):
    code, G = code56
    W = weight_distribution(G)
    assert is_projective(G)
    assert mean_weight_identity_holds(W)


def test_weight_distribution_of_rows_validation(code56):
    # the tally reads only the shape of the rows, and counts from their points; rows of
    # another shape or with entries outside GF(q) are refused by sigma before it runs
    code, G = code56
    with pytest.raises(TypeError, match="points"):
        weight_distribution_of_rows(G.field, G.rows)
    for rows in (np.zeros((0, 0), G.rows.dtype), G.rows[:-1], G.rows[:, :-1], G.rows + 2):
        with pytest.raises(VerificationError, match=r"^sigma: the rows are not 6 x 56 elements "
                                                    r"of GF\(2\)$"):
            weight_distribution(GeneratorMatrix(rows, code))


def test_two_weights_hold_for_randomized_selections():
    import random

    from qtweave import field_create

    rng = random.Random(99)
    configs = [(2, 2), (2, 3), (3, 2), (4, 2), (5, 2), (3, 3)]
    simplexes = {c: simplex_consta(field_create(*_pe(c[0])), c[1]) for c in configs}
    for _ in range(30):
        q, t = configs[rng.randrange(len(configs))]
        s = simplexes[(q, t)]
        p = rng.randint(2, q**t)
        pairs = [(i, j) for i in range(1, q) for j in range(s.m)]
        selection = tuple(rng.sample(pairs, p - 1))
        code, G = build_two_weight(s, p, selection=selection)
        verdict = verify_two_weight(weight_distribution(G), code)
        assert verdict.ok, (q, t, p, selection)


def _pe(q):
    p = 2
    while q % p:
        p += 1
    e = 0
    while p**e < q:
        e += 1
    return p, e
