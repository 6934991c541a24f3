"""The points spectrum against two independent exact methods, and its refusals.

``analysis.weight_distribution`` tallies a package code's spectrum from the
points of PG(1, q^t) its blocks lie on when the consta-shift check holds.
The nonzero messages (a, b) over one point are one orbit of the units c of
K = F_q[x]/(h), acting as (c a, c b), so the tests call that the orbit path;
the simplex check of the construction proves its counts for every base,
consta-cyclic or cyclic (lam = 1, where h is not primitive once q > 2).
Every case here is compared with the full transform over all q^k messages
and, while q^k <= 256, with the scalar oracle of ``conftest``.  A generator
that breaks the shift relation, has the wrong shape or nonzero top blocks
that differ must take the full transform and still give the oracle's counts.
"""

import random
from dataclasses import replace
from functools import cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtweave import (BudgetExceededError, GeneratorMatrix, ParameterError, Poly, SimplexSpec,
                     VerificationError, analysis, build_qt_simplex, build_two_weight, cli,
                     construction, expected_counts, field_from_order, simplex_consta,
                     simplex_cyclic, weight_distribution, weight_distribution_of_rows)
from qtweave.fields import column_keys, key_dtype
from conftest import (SWEEP_CONFIGS, column_predecessor, consta_shift, naive_weight_counts, poly_mul,
                      residue, scalar)

ORACLE_MESSAGES = 256
# (q, t) of the cyclic bases drawn; h is primitive for q = 2 only
CYCLIC = ((2, 2), (2, 3), (2, 4), (3, 3), (4, 2), (5, 3), (8, 2))
# one small code per field order up to 9: (q, t, cyclic base, p or None for qt-simplex)
SMALL_CODES = ((2, 3, False, None), (3, 2, False, None), (4, 2, True, 3), (5, 2, False, 4),
               (7, 2, False, 2), (8, 2, True, 2), (9, 2, False, 3))


@cache
def base(q, t, cyclic):
    field = field_from_order(q)
    return simplex_cyclic(field, t) if cyclic else simplex_consta(field, t)


@st.composite
def qt_codes(draw):
    """A code of the sweep families or of a cyclic base, with a random selection."""
    q, t, cyclic = draw(st.sampled_from([(q, t, False) for q, t in SWEEP_CONFIGS]
                                        + [(q, t, True) for q, t in CYCLIC]))
    s = base(q, t, cyclic)
    if draw(st.integers(0, 5)) == 0:
        return build_qt_simplex(s)
    p = draw(st.integers(2, q**t))
    pairs = [(i, j) for i in range(1, q) for j in range(s.m)]
    rng = random.Random(draw(st.integers(0, 2**32)))
    return build_two_weight(s, p, selection=rng.sample(pairs, p - 1))


def assert_exact(G, W):
    """W against the full transform over G.rows and, for small codes, the scalar oracle."""
    assert W.counts == weight_distribution_of_rows(G.field, G.rows).counts
    if G.field.q**G.k <= ORACLE_MESSAGES:
        assert W.counts == naive_weight_counts(G.field, G.rows)
    assert (W.n, W.k, W.total()) == (G.n, G.k, G.field.q**G.k)


@pytest.mark.parametrize("split", [False, True], ids=["whole", "prefix-split"])
@settings(deadline=None, max_examples=40)
@given(st.data())
def test_orbit_path_matches_full_transform_and_oracle(split, data):
    code, G = data.draw(qt_codes())
    q, t = code.simplex.q, code.simplex.t
    W = weight_distribution(G)
    assert W.method == "points"  # consta-cyclic or cyclic, whatever q
    with pytest.MonkeyPatch.context() as mp:
        if split:
            # the reference transform has 2t rows; chunks of q^j cells fix a prefix
            # of min(2t, 2t + 2 - j) of them, and j <= 2 splits down to single messages
            mp.setattr(analysis, "_CHUNK_ENTRIES", q ** data.draw(st.integers(1, 2 * t + 2)))
        assert_exact(G, W)


@pytest.mark.parametrize("p", [2, 3, 17**2])
def test_orbit_path_over_gf17_matches_full_transform(p):
    # q (q - 1) = 272 exceeds the uint8 symbols, so the sigma check's flat add
    # index must be widened before it multiplies; h = x^2 + x + 3 has two taps
    s = base(17, 2, False)
    code, G = build_qt_simplex(s) if p == 17**2 else build_two_weight(s, p)
    W = weight_distribution(G)
    assert W.method == "points"
    assert_exact(G, W)


def test_every_sweep_code_takes_the_orbit_path(sweep):
    # a silent fallback costs the full transform, so it must fail here
    for q, t, p, code, G, W, _ in sweep:
        assert W.method == "points", (q, t, p)
        assert (W.counts[(p - 1) * q ** (t - 1)], W.counts[p * q ** (t - 1)]) == (
            expected_counts(code))


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_every_cli_command_takes_the_orbit_path(monkeypatch, capsys, tmp_path, fmt):
    # the commands of the benchmark's cli workload; none may fall back to the transform
    count, calls = analysis.weight_distribution_of_rows, []

    def points_only(field, rows, budget=None, *, points=None):
        if points is None:
            pytest.fail("a cli command took the full transform")
        calls.append(field.q)
        return count(field, rows, budget, points=points)

    monkeypatch.setattr(analysis, "weight_distribution_of_rows", points_only)
    export = ["export", "--q", "3", "--t", "4", "--p", "81", "--format", fmt,
              "--output", str(tmp_path / f"export.{fmt}"), "--roundtrip"]
    for argv in ["table1"], ["examples"], export:
        before = len(calls)
        assert cli.main(argv) == cli.EXIT_OK, argv
        assert len(calls) > before, argv
    assert "round trip: ok" in capsys.readouterr().out


@pytest.mark.parametrize("q, t, p, cyclic", [
    (8, 4, 2, False), (2, 14, 3, False), (8, 4, 2, True),
], ids=["8-4-2", "2-14-3", "cyclic-8-4-2"])
def test_heavy_points_take_the_orbit_path(q, t, p, cyclic):
    # beyond the default budget's practical reach for the full transform
    code, G = build_two_weight(base(q, t, cyclic), p)
    W = weight_distribution(G, budget=q ** (2 * t))
    assert W.method == "points" and W.total() == q ** (2 * t)
    assert (W.counts[(p - 1) * q ** (t - 1)], W.counts[p * q ** (t - 1)]) == expected_counts(code)


def perturbed(G, row, col):
    rows = G.rows.copy()
    rows[row, col] = (rows[row, col] + 1) % G.field.q
    return GeneratorMatrix(rows=rows, provenance=G.provenance)


@pytest.mark.parametrize("q, t, p", [(2, 3, 5), (3, 2, 4), (4, 2, 3)])
@pytest.mark.parametrize("where", ["top inside", "top wrap", "bottom inside", "bottom wrap"])
def test_shift_check_refuses_a_perturbed_entry(q, t, p, where):
    _, G = build_two_weight(base(q, t, False), p)
    m = G.provenance.simplex.m
    row, col = {"top inside": (1, 2), "top wrap": (0, m - 1),
                "bottom inside": (t, m + 1), "bottom wrap": (2 * t - 1, 2 * m - 1)}[where]
    H = perturbed(G, row, col)
    W = weight_distribution(H)
    assert W.method == "transform"
    assert W.counts == naive_weight_counts(H.field, H.rows)


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_shift_check_refuses_any_single_change(data):
    code, G = data.draw(qt_codes())
    row = data.draw(st.integers(0, G.k - 1))
    col = data.draw(st.integers(0, G.n - 1))
    H = perturbed(G, row, col)
    W = weight_distribution(H)
    assert W.method == "transform"
    assert_exact(H, W)


@pytest.mark.parametrize("q, t, p", [(2, 3, 5), (3, 2, 4), (4, 2, 3)])
def test_shift_check_refuses_the_shifts_of_a_foreign_word(q, t, p):
    # rows u = sigma^u(row 0) pass every relation but the last: top row 0 is no
    # multiple of g, so sigma(row t - 1) != -sum h_u row u
    _, G = build_two_weight(base(q, t, False), p)
    s = G.provenance.simplex
    rows = G.rows.copy()
    rows[0, 0] = (rows[0, 0] + 1) % q
    for u in range(1, t):
        blocks = rows[u - 1].reshape(-1, s.m)
        rows[u] = [v for block in blocks for v in consta_shift(s.field, s.lam, block.tolist())]
    H = GeneratorMatrix(rows=rows, provenance=G.provenance)
    W = weight_distribution(H)
    assert W.method == "transform"
    assert W.counts == naive_weight_counts(H.field, H.rows)


def test_shift_check_refuses_an_extra_column_without_raising():
    _, G = build_two_weight(base(3, 2, False), 3)
    H = GeneratorMatrix(rows=np.column_stack([G.rows, G.rows[:, 0]]), provenance=G.provenance)
    W = weight_distribution(H)
    assert W.method == "transform"
    assert W.counts == naive_weight_counts(H.field, H.rows)


@pytest.mark.parametrize("h", ["x^t", "zero", "high-degree"])
def test_the_constructor_refuses_an_h_without_a_relation_to_check(h):
    # sigma needs lam != 0 and deg h = t (h(0) != 0 follows, as h(0) g(0) = -lam):
    # x^t leaves lam = 0, and a base of the other two is never divided out
    s = base(3, 2, False)
    poly, error, match = {
        "x^t": (Poly.monomial(s.field, 2), VerificationError, "^twist constant: 0 "),
        "zero": (Poly(s.field), ParameterError, "^h = 0 is not a monic"),
        "high-degree": (Poly(s.field, s.h.coeffs[:-1] + (0, 1)), ParameterError, "is not a monic"),
    }[h]
    with pytest.raises(error, match=match):
        SimplexSpec(s.field, 2, poly, s.variant)
    with pytest.raises(error, match=match):
        replace(s, h=poly)


@pytest.mark.parametrize("q", [3, 4])
def test_shift_check_refuses_a_twist_the_base_does_not_have(q):
    # the certified base's rows, each block read modulo x^m - lam' by the scalar
    # oracle.  x^(e+u) g reduces once e + u >= t, so with the selected shift e = 1
    # row 1 of that block starts with lam' times the last cell of row 0, where
    # sigma expects lam times it: the check fails at that block start
    s = base(q, 2, False)
    code, G = build_two_weight(s, 2, selection=((1, 1),))
    other = next(lam for lam in range(1, q) if lam != s.lam)
    f, m, g = s.field, s.m, s.g.coeffs
    groups = ([(1, 0)] * code.p, [(0, 0), *code.selection])  # (a, e): block a x^e g
    rows = np.array([[v for a, e in group
                      for v in residue(f, poly_mul(f, (0,) * (e + u) + (a,), g), m, other)]
                     for group in groups for u in range(s.t)], dtype=G.rows.dtype)
    H = GeneratorMatrix(rows=rows, provenance=code)
    assert not np.array_equal(H.rows, G.rows)
    assert construction.points(H) is None
    W = weight_distribution(H)
    assert W.method == "transform"
    assert W.counts == naive_weight_counts(H.field, H.rows)


@pytest.mark.parametrize("q, t", [(2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_every_base_the_constructor_accepts_has_an_exact_orbit_spectrum(q, t):
    # every monic h of degree t, both variants: a base is refused, or its codes'
    # points spectra equal the full transform over all q^(2t) messages
    field = field_from_order(q)
    accepted = refused = 0
    for tail, variant in product(product(range(q), repeat=t),
                                 (construction.CONSTA_CYCLIC, construction.CYCLIC)):
        try:
            s = SimplexSpec(field, t, Poly(field, tail + (1,)), variant)
        except VerificationError:
            refused += 1
            continue
        accepted += 1
        for p in (2, 3):
            _, G = build_two_weight(s, p)
            W = weight_distribution(G)
            assert W.method == "points", (tail, variant, p)
            assert W.counts == weight_distribution_of_rows(G.field, G.rows).counts, (tail, variant, p)
    assert accepted and refused


def test_non_primitive_cyclic_bases_take_the_orbit_path():
    # q = 3, t = 3: the cyclic h = x^3 + x^2 + 2 is irreducible, but x has order 13
    # modulo it; x and the scalars -1, 1 still give all 26 units.  The reversed g
    # divides x^13 - 1 too, and gives a supplied base over the reciprocal h.
    derived = base(3, 3, True)
    supplied = simplex_cyclic(derived.field, 3, g=Poly(derived.field, derived.g.coeffs[::-1]))
    assert supplied.h != derived.h
    for s in (derived, supplied):
        for p in (2, 4):
            _, G = build_two_weight(s, p)
            W = weight_distribution(G)
            assert W.method == "points"
            assert_exact(G, W)
            assert W.counts == naive_weight_counts(G.field, G.rows)


def test_orbit_path_keeps_the_budget_in_messages():
    _, G = build_two_weight(base(2, 4, False), 5)
    with pytest.raises(BudgetExceededError) as err:
        weight_distribution(G, budget=2**8 - 1)
    assert (err.value.required, err.value.budget) == (2**8, 2**8 - 1)
    assert weight_distribution(G, budget=2**8).method == "points"


def small_code(q, t, cyclic, p):
    s = base(q, t, cyclic)
    return build_qt_simplex(s) if p is None else build_two_weight(s, p)


@pytest.mark.parametrize("q, t, cyclic, p", SMALL_CODES, ids=lambda v: str(v))
def test_predecessor_tables_match_the_scalar_oracle_on_every_key(q, t, cyclic, p):
    s = base(q, t, cyclic)
    pred = s._pred
    assert pred.size == q**t
    assert pred.dtype == key_dtype(q, t) and not pred.flags.writeable
    assert pred.tolist() == [column_predecessor(s, key) for key in range(q**t)]
    # the block start needs no table: P^m = lam I, so m - 1 steps of pred followed by
    # the block start's P / lam return every key to itself
    keys = np.arange(q**t)
    for _ in range(s.m - 1):
        keys = pred[keys]
    assert [column_predecessor(s, key, at_block_start=True) for key in keys.tolist()] == (
        list(range(q**t)))
    assert "_pred" not in s.__getstate__()


@pytest.mark.parametrize("q, t, cyclic, p", SMALL_CODES, ids=lambda v: str(v))
def test_shift_check_refuses_every_change_of_every_cell(q, t, cyclic, p):
    _, G = small_code(q, t, cyclic, p)
    assert construction.points(G) is not None
    f = scalar(G.field)
    for row, col in np.ndindex(G.rows.shape):
        for delta in range(1, q):
            rows = G.rows.copy()
            rows[row, col] = f.add(int(rows[row, col]), delta)
            assert construction.points(GeneratorMatrix(rows, G.provenance)) is None, (
                row, col, delta)


def test_points_are_the_column_0_keys_of_the_blocks(sweep):
    for q, t, p, code, G, W, _ in sweep:
        points = construction.points(G)
        assert points.dtype == key_dtype(q, t), (q, t, p)
        keys = column_keys(G.rows.reshape(2, t, G.n), q)
        assert points.tolist() == keys[:, ::code.simplex.m].tolist(), (q, t, p)
        assert (W.k, W.method) == (2 * t, "points"), (q, t, p)


@pytest.mark.parametrize("sigma", [True, False], ids=["orbit", "sigma fails"])
def test_weight_distribution_is_one_call_of_the_engine_on_the_generator_rows(monkeypatch, sigma):
    # bench/spans.py times the spectrum by replacing the module attribute and
    # counts q^len(rows) messages from the rows passed second
    code, G = build_two_weight(base(3, 2, False), 3)
    if not sigma:
        rows = G.rows.copy()
        rows[1, 0] = (rows[1, 0] + 1) % 3
        G = GeneratorMatrix(rows, code)
    engine, calls = analysis.weight_distribution_of_rows, []
    monkeypatch.setattr(analysis, "weight_distribution_of_rows",
                        lambda *args, **kwargs: calls.append(args) or engine(*args, **kwargs))
    W = weight_distribution(G)
    assert len(calls) == 1 and calls[0][1] is G.rows
    assert (W.k, W.total(), W.method) == (len(G.rows), 3 ** len(G.rows),
                                          "points" if sigma else "transform")
    assert W.counts == naive_weight_counts(G.field, G.rows)


def edited(G, edit):
    """G with edit(blocks) applied to a copy of its rows, viewed as (group, row, block, column)."""
    s = G.provenance.simplex
    rows = G.rows.copy()
    edit(rows.reshape(2, s.t, -1, s.m))
    return GeneratorMatrix(rows, G.provenance)


def zero_block(blocks, j):
    blocks[:, :, j] = 0


def copy_block(blocks, j, onto):
    blocks[:, :, onto] = blocks[:, :, j]


def zero_top(blocks, *js):
    blocks[0, :, list(js)] = 0


HAND_BUILT = {
    # block 0 is (g, 0): zero it in both groups, so live = p - 1 < p blocks
    "dead block": lambda b: zero_block(b, 0),
    # blocks 1 and 2 on one point: c(P) = 2 and three nonzero weights
    "shared point": lambda b: copy_block(b, 2, 1),
    # both at once: at q = 3, t = 2, p = 4 the weights 3, 6 and 9
    "dead and shared": lambda b: (zero_block(b, 3), copy_block(b, 2, 1)),
    # two blocks of zero top and distinct nonzero bottoms, both on (1 : 0)
    "two at infinity": lambda b: zero_top(b, 1, 2),
}


@pytest.mark.parametrize("q", [3, 4, 5])
@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_hand_built_generators_take_the_orbit_path_to_the_oracle(q, case):
    # sigma is linear and holds on zero blocks, so each edit keeps it, and the nonzero
    # top blocks stay copies of g: no build function reaches these point counts
    _, G = build_two_weight(base(q, 2, False), 4)
    H = edited(G, HAND_BUILT[case])
    assert construction.points(H) is not None
    W = weight_distribution(H)
    assert W.method == "points"
    assert W.counts == naive_weight_counts(H.field, H.rows)
    assert (W.n, W.k, W.total()) == (H.n, H.k, q**H.k)
    if (q, case) == (3, "dead and shared"):
        assert W.counts == {0: 1, 3: 8, 6: 8, 9: 64}
    if case == "shared point":
        assert len(W.nonzero_weights()) == 3


@st.composite
def edited_codes(draw):
    """A small code with a random sequence of the edits above applied to its blocks."""
    q, t = draw(st.sampled_from([(2, 3), (3, 2), (4, 2), (5, 2), (3, 3)]))
    s = base(q, t, False)
    p = draw(st.integers(2, q**t + 1))  # q^t + 1 stands for the qt-simplex code
    if p > q**t:
        code, G = build_qt_simplex(s)
    else:
        pairs = [(i, j) for i in range(1, q) for j in range(s.m)]
        code, G = build_two_weight(s, p, random.Random(draw(st.integers(0, 2**32))).sample(
            pairs, p - 1))
    block = st.integers(0, code.block_count - 1)
    some = st.just(list(range(code.block_count))) | st.lists(block, min_size=1, unique=True)
    edits = draw(st.lists(st.tuples(st.just(zero_block), some)
                          | st.tuples(st.just(copy_block), block, block)
                          | some.map(lambda js: (zero_top, *js)), max_size=8))
    return edited(G, lambda b: [edit(b, *args) for edit, *args in edits])


@settings(deadline=None, max_examples=100, derandomize=True)
@given(edited_codes())
def test_the_tally_counts_any_multiset_of_points(H):
    # each edit keeps sigma and leaves every nonzero top block a copy of g, so dead
    # blocks, c(P) >= 3, several blocks on (1 : 0) and the all-dead generator all reach
    # the tally, which must still give the transform's and the oracle's counts
    W = weight_distribution(H)
    assert W.method == "points"
    assert_exact(H, W)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_a_scaled_top_block_takes_the_transform(q):
    # 2 g passes sigma, but differs from the other top blocks: the bottom key alone no
    # longer fixes the point, so points is None and the full transform counts
    _, G = build_two_weight(base(q, 2, False), 4)
    f = scalar(G.field)

    def scale_top(blocks):
        blocks[0, :, 1] = [[f.mul(2, int(v)) for v in row] for row in blocks[0, :, 1]]
    H = edited(G, scale_top)
    assert construction.points(H) is None
    W = weight_distribution(H)
    assert W.method == "transform"
    assert W.counts == naive_weight_counts(H.field, H.rows)


@pytest.mark.parametrize("change", ["odd k", "three groups", "one group", "extra block",
                                    "flat", "key of t + 1 digits", "float keys", "negative key"])
def test_points_of_another_shape_are_refused(change):
    _, G = build_two_weight(base(3, 2, False), 4)
    rows, points = G.rows, construction.points(G)
    negative = points.astype(np.int64)
    negative[1, 0] = -1
    rows, points = {
        "odd k": (rows[:3], points),
        "three groups": (rows, np.vstack([points, points[:1]])),
        "one group": (rows, points[:1]),
        "extra block": (rows, np.hstack([points, points[:, :1]])),
        "flat": (rows, points.ravel()),
        "key of t + 1 digits": (rows, points + np.uint8(9)),
        "float keys": (rows, points.astype(float)),
        "negative key": (rows, negative),
    }[change]
    with pytest.raises(ParameterError, match="^points must be "):
        weight_distribution_of_rows(G.field, rows, points=points)
