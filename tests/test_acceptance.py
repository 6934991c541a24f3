"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -v tests/test_acceptance.py` (or add -s to see the
per-criterion summary lines).
"""

import json
import random
from importlib import resources

from qtweave import (
    Poly,
    build_qt_simplex,
    build_two_weight,
    decompose_block_count,
    expected_counts,
    field_from_order,
    gap_fn,
    griesmer_length,
    griesmer_report,
    min_distance,
    simplex_consta,
    simplex_cyclic,
    verify_two_weight,
    weight_distribution,
)
from conftest import (SWEEP_CONFIGS, base_word, consta_shift, poly_mul, residue,
                      schoolbook_vec_mat, span_words, transform_distribution, twistulant_rows)


def _fixture(name):
    return json.loads(resources.files("qtweave").joinpath("fixtures", name).read_text())


def test_criterion_01_binary_t3_reproduction(gf2):
    s = simplex_consta(gf2, 3, Poly(gf2, (1, 1, 0, 1)))
    assert s.g == Poly(gf2, (1, 1, 1, 0, 1))  # x^4 + x^2 + x + 1
    code, G = build_two_weight(s, 8)
    assert (code.n, code.k) == (56, 6)
    W = weight_distribution(G)
    assert W.total() == 64
    assert W.nonzero_weights() == (28, 32)
    print("criterion 1: PASS (g = x^4 + x^2 + x + 1; [56, 6] code has weights {28, 32})")


def test_criterion_02_binary_t3_series(gf2):
    expected = {2: (14, 4, 8), 3: (21, 8, 12), 4: (28, 12, 16), 5: (35, 16, 20),
                6: (42, 20, 24), 7: (49, 24, 28)}
    s = simplex_consta(gf2, 3, Poly(gf2, (1, 1, 0, 1)))
    for p, (n, w1, w2) in expected.items():
        code, G = build_two_weight(s, p)
        W = weight_distribution(G)
        assert (code.n, code.k) == (n, 6)
        assert W.nonzero_weights() == (w1, w2)
    print("criterion 2: PASS (p = 2..7 series parameters verified by enumeration)")


def test_criterion_03_ternary_t2_reproduction(gf3):
    s = simplex_consta(gf3, 2, Poly(gf3, (2, 2, 1)))  # h = x^2 - x - 1
    assert s.lam == 2
    assert s.g == Poly(gf3, (2, 1, 1))  # x^2 + x - 1
    for p in range(2, 10):
        code, G = build_two_weight(s, p)
        W = weight_distribution(G)
        assert W.total() == 81
        assert (code.n, code.k) == (4 * p, 4)
        assert W.nonzero_weights() == (3 * (p - 1), 3 * p)
    print("criterion 3: PASS (lambda = 2, g = x^2 + x - 1, [4p, 4] series for p = 2..9)")


def test_criterion_04_ternary_cyclic_t3(gf3):
    reference_g = Poly(gf3, (1, 0, 1, 1, 1, 2, 2, 0, 1, 2, 1))
    assert simplex_cyclic(gf3, 3).g == reference_g
    for s in (simplex_cyclic(gf3, 3), simplex_cyclic(gf3, 3, g=reference_g)):
        assert s.params() == (13, 3, 9)
        # equidistance over all 27 codewords
        words = span_words(gf3, twistulant_rows(gf3, s.lam, base_word(s))[:3])
        assert {sum(1 for c in w if c) for w in words if any(w)} == {9}
        for p in (2, 16, 17, 27):
            code, G = build_two_weight(s, p)
            W = weight_distribution(G)
            assert W.total() == 729
            assert (code.n, code.k) == (13 * p, 6)
            assert W.nonzero_weights() == (9 * (p - 1), 9 * p)
    print("criterion 4: PASS ([13, 3, 9] cyclic simplex with the reference generator; "
          "[13p, 6] series; reference generator override agrees)")


def test_criterion_05_reference_table(gf3):
    fixture = _fixture("table1.json")
    s = simplex_consta(gf3, 3)
    for row in fixture["rows"]:
        p = row["p"]
        if p <= 27:
            code, G = build_two_weight(s, p)
        else:
            code, G = build_qt_simplex(s)
        rep = griesmer_report(code, weight_distribution(G))
        got = (rep.d, rep.n, rep.griesmer_length, rep.gap_observed, rep.i, rep.r)
        want = (row["d"], row["n"], row["gb"], row["gap"], row["i"], row["r"])
        assert got == want, f"p = {p}: computed {got}, reference {want}"
    print("criterion 5: PASS (all 12 reference-table rows match exactly)")


def test_criterion_06_best_known_distances():
    fixture = _fixture("optimal_codes.json")
    simplexes = {}
    for entry in fixture["named_codes"]:
        q, t, p = entry["q"], entry["t"], entry["p"]
        key = (q, t)
        if key not in simplexes:
            simplexes[key] = simplex_consta(field_from_order(q), t)
        code, G = build_two_weight(simplexes[key], p)
        W = weight_distribution(G)
        assert (code.n, code.k) == (entry["n"], entry["k"])
        assert min_distance(W) == entry["d"], entry
    print("criterion 6: PASS (min distances 96/104/120 over GF(2) and "
          "135/144/24 over GF(3) verified by enumeration)")


def test_criterion_06_distance_optimality_by_griesmer(sweep):
    """No [n, k, d + 1]_q code exists when griesmer_length(k, d + 1, q) > n.

    That certifies d-optimality for 34 of the 43 codes in the fixture's
    d_optimal_ranges; 9 stay open.  Among the named codes it certifies the three
    binary ones and [36,4,24]_3, not the ternary [208,6,135] and [221,6,144].
    """
    fixture = _fixture("optimal_codes.json")
    reports = {(q, t, p): rep for q, t, p, _, _, _, rep in sweep}
    certified, open_entries = [], []
    for entry in fixture["d_optimal_ranges"]:
        q, t, m = entry["q"], entry["t"], entry["m"]
        assert (m, entry["unit"]) == ((q**t - 1) // (q - 1), q ** (t - 1))
        for p in range(entry["p_min"], entry["p_max"] + 1):
            rep = reports[(q, t, p)]  # n and d computed by the sweep
            assert (rep.n, rep.d) == (p * m, (p - 1) * entry["unit"])
            proved = griesmer_length(2 * t, rep.d + 1, q) > rep.n
            (certified if proved else open_entries).append((q, t, p))
    assert len(certified) + len(open_entries) == 43 and len(certified) == 34
    assert open_entries == [(2, 3, 3), (2, 3, 4), (2, 4, 10), (3, 2, 3), (4, 2, 7),
                            (4, 2, 8), (5, 2, 13), (5, 2, 14), (5, 2, 15)]
    named = [(e["n"], e["k"], e["d"], e["q"]) for e in fixture["named_codes"]
             if griesmer_length(e["k"], e["d"] + 1, e["q"]) > e["n"]]
    assert named == [(195, 8, 96, 2), (210, 8, 104, 2), (240, 8, 120, 2), (36, 4, 24, 3)]
    print("criterion 6: PASS (Griesmer certifies 34 of 43 range entries and 4 of 6 named codes)")


def test_criterion_07_gap_prediction(sweep):
    for q, t, p, code, G, W, rep in sweep:
        i, r = decompose_block_count(p, t, q)
        assert rep.gap_observed == gap_fn(i, t, q), (q, t, p)
        assert rep.gap_match
    print(f"criterion 7: PASS (observed gap equals predicted gap on all {len(sweep)} "
          "two-weight instances)")


def test_criterion_08_length_optimal_exactly_when_i_is_1(sweep):
    for q, t, p, code, G, W, rep in sweep:
        assert rep.length_optimal == (rep.i == 1), (q, t, p)
        assert rep.length_optimal == (p >= q**t - q + 2), (q, t, p)
    print("criterion 8: PASS (zero gap exactly for i = 1, "
          "i.e. the top q - 1 block counts)")


def test_criterion_09_qt_simplex_single_weight():
    expected = {(2, 2): (15, 4, 8), (2, 3): (63, 6, 32), (3, 2): (40, 4, 27)}
    for (q, t), (n, k, w) in expected.items():
        s = simplex_consta(field_from_order(q), t)
        code, G = build_qt_simplex(s)
        W = weight_distribution(G)
        assert (code.n, code.k) == (n, k)
        assert W.nonzero_weights() == (w,)
        assert n == (q ** (2 * t) - 1) // (q - 1)
        assert w == q ** (2 * t - 1)
    print("criterion 9: PASS ([15,4,8], [63,6,32], [40,4,27] single-weight codes)")


def test_criterion_10_property_suite(sweep):
    # (a) ring product equals u times the twistulant matrix of c on random instances
    rng = random.Random(2024)
    for q in (2, 3, 4, 5):
        field = field_from_order(q)
        for _ in range(25):
            m = rng.randrange(2, 7)
            lam = rng.randrange(1, q)
            u = tuple(rng.randrange(q) for _ in range(m))
            c = tuple(rng.randrange(q) for _ in range(m))
            product = residue(field, poly_mul(field, u, c), m, lam)
            assert product == schoolbook_vec_mat(field, u, twistulant_rows(field, lam, c))

    # (b) blockwise consta-shift closure, all codewords, codes with q^(2t) <= 2^16
    closure_cases = []
    for q, t in SWEEP_CONFIGS:
        assert q ** (2 * t) <= 1 << 16
        s = simplex_consta(field_from_order(q), t)
        for p in {3, q**t}:
            closure_cases.append((s,) + build_two_weight(s, p))
    for q, t in ((2, 2), (3, 2)):
        s = simplex_consta(field_from_order(q), t)
        closure_cases.append((s,) + build_qt_simplex(s))
    for s, code, G in closure_cases:
        m = s.m
        words = set(span_words(s.field, G.rows))
        assert len(words) == s.q ** code.k
        for w in words:
            shifted = ()
            for b in range(code.block_count):
                shifted += consta_shift(s.field, s.lam, w[b * m:(b + 1) * m])
            assert shifted in words

    # (c) the two row groups generate equidistant sub-codes
    for s, code, G in closure_cases:
        t = s.t
        unit = s.weight
        top = transform_distribution(s.field, G.rows[:t])
        assert top.nonzero_weights() == (code.p * unit,)
        bottom = transform_distribution(s.field, G.rows[t:])
        expected_bottom = (code.p - 1) * unit if code.variant == "two-weight" else code.p * unit
        assert bottom.nonzero_weights() == (expected_bottom,)

    # (d) the closed-form count prediction agrees with enumeration everywhere
    for q, t, p, code, G, W, rep in sweep:
        verdict = verify_two_weight(W, code)
        assert verdict.ok, (q, t, p)
        a1, a2 = expected_counts(code)
        assert (W.counts[verdict.w1], W.counts[verdict.w2]) == (a1, a2), (q, t, p)

    print("criterion 10: PASS (ring/matrix isomorphism, blockwise shift closure, "
          "sub-code equidistance, count prediction vs enumeration)")
