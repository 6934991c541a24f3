"""Differential test of the transform oracle of conftest against the scalar oracle.

``conftest.transform_distribution`` is the second exact method the points
spectrum is compared with, so its chunking, its last-row sweep and its own
checks are tested here.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from qtweave import (BudgetExceededError, Field, ParameterError, VerificationError, analysis,
                     build_two_weight, construction, field_create, field_from_order,
                     simplex_consta)
from conftest import naive_weight_counts, transform_distribution

FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4))
ORACLE_MESSAGES = 256  # q^k bound that keeps the scalar oracle fast


@st.composite
def generator_rows(draw):
    """A random k x n matrix, optionally with a repeated row and a zero column."""
    field = field_create(*draw(st.sampled_from(FIELDS)))
    q = field.q
    k_max = max(k for k in range(1, 9) if q**k <= ORACLE_MESSAGES)
    k = draw(st.integers(1, k_max))
    n = draw(st.integers(1, 10))
    symbol = st.integers(0, q - 1)
    rows = draw(st.lists(st.lists(symbol, min_size=n, max_size=n), min_size=k, max_size=k))
    if draw(st.booleans()):
        rows.append(rows[draw(st.integers(0, k - 1))])
    if draw(st.booleans()):
        at = draw(st.integers(0, n))
        rows = [row[:at] + [0] + row[at:] for row in rows]
    return field, rows


@pytest.mark.parametrize("split", [False, True], ids=["whole", "prefix-split"])
@settings(deadline=None, max_examples=60)
@given(st.data())
def test_engine_matches_naive_oracle(split, data):
    field, rows = data.draw(generator_rows())
    k = len(rows)
    with pytest.MonkeyPatch.context() as mp:
        if split:
            # chunks of q^j cells fix a message prefix of min(k, k + 2 - j)
            # coordinates; j <= 2 splits the message space down to single messages
            j = data.draw(st.integers(1, k + 1))
            mp.setattr(conftest, "_CHUNK_ENTRIES", field.q**j)
        W = transform_distribution(field, rows)
    assert W.counts == naive_weight_counts(field, rows)
    assert (W.n, W.k, W.q, W.total()) == (len(rows[0]), k, field.q, field.q**k)


def test_large_field_small_message_space_stays_small():
    # the s - u c permutations come from one q x q table, not a q x q x q one
    field = field_from_order(256)
    field.tables
    tracemalloc.start()
    try:
        W = transform_distribution(field, [(1, 2, 3)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert W.counts == {0: 1, 3: 255}
    assert peak < 4 << 20


@pytest.mark.parametrize("q, k", [(256, 1), (256, 2), (1024, 1)])
def test_prefix_digits_of_narrow_keys_match_naive_oracle(q, k):
    # the default chunk fixes a message prefix here, and its digits are decoded from
    # column keys of the narrowest dtype that holds q^k (uint16 for one row over GF(256))
    assert q ** (k + 2) > conftest._CHUNK_ENTRIES
    field = field_from_order(q)
    rng = np.random.default_rng(q + k)
    rows = rng.integers(0, q, size=(k, 3)).astype(field.tables.mul.dtype)
    rows[:, 0] = 0
    rows[:, -1] = q - 1
    assert transform_distribution(field, rows).counts == naive_weight_counts(field, rows)


@pytest.mark.parametrize("q, k", [
    pytest.param(q, k, id=f"{q}-{k}-strided-copies")
    for q, k in [(2, 3), (2, 9), (3, 5), (4, 4), (8, 3), (9, 2)]])
def test_both_sides_of_the_step_copy_rule_match_naive_oracle(q, k):
    # shapes from both sides of the former 128-cell step copy rule: every step now
    # takes q - 1 adds and q strided copies, the one-sum-and-copy side is gone;
    # (2, 9), (3, 5) and (4, 4) lie beyond the messages of the differential above
    field = field_from_order(q)
    rows = np.random.default_rng(q * k).integers(0, q, size=(k, 7), dtype=np.uint8)
    rows[:, 3] = 0
    rows[:, 5] = rows[:, 4]
    assert transform_distribution(field, rows).counts == naive_weight_counts(field, rows)


def test_step_index_is_built_once_per_call_and_only_when_a_step_runs(monkeypatch):
    make, built = conftest._step_index, []
    monkeypatch.setattr(conftest, "_step_index", lambda f: built.append(f) or make(f))
    rows = [(1, 2, 0, 1), (0, 1, 1, 2)]
    field = Field(3, 1, None)
    for calls in range(1, 4):
        assert transform_distribution(field, rows).counts == naive_weight_counts(field, rows)
        assert len(built) == calls and built[-1] is field
    big = Field(2, 8, field_from_order(256).modulus)  # no step runs over GF(256)
    transform_distribution(big, [(1, 2, 3), (4, 0, 6)])
    assert len(built) == 3
    # 3^4 cells fix one of three rows per chunk: 3 chunks of two steps share one index
    monkeypatch.setattr(conftest, "_CHUNK_ENTRIES", 3**4)
    rows.append((2, 2, 1, 0))
    assert transform_distribution(field, rows).counts == naive_weight_counts(field, rows)
    assert len(built) == 4


@pytest.mark.parametrize("q, k", [(64, 2), (256, 2), (1024, 1)])
def test_whole_last_row_sweep_matches_naive_oracle(monkeypatch, q, k):
    # at most one step fits: each chunk fixes all rows but the last and counts
    # its q messages at once, with zero and nonzero entries in the last row
    assert q**4 > conftest._CHUNK_ENTRIES
    field = field_from_order(q)
    monkeypatch.setattr(conftest, "_step_index", lambda f: pytest.fail("a transform step ran"))
    rows = np.random.default_rng(q).integers(1, q, size=(2, 6)).astype(field.tables.mul.dtype)
    rows[1, 1] = rows[1, 4] = 0
    rows[0, 2] = 0
    rows[:, 5] = 0
    rows = rows[2 - k:]
    W = transform_distribution(field, rows)
    assert W.counts == naive_weight_counts(field, rows) and W.total() == q**k


@pytest.mark.parametrize("j", [5, 6])
def test_chunked_call_peak_memory_follows_the_chunk_size(monkeypatch, j):
    # the chunk rule counts the q^(steps+2)-cell gather, so A and the gather
    # together stay within a small multiple of the chunk's int32 cells
    field = field_from_order(8)
    rows = np.random.default_rng(j).integers(0, 8, size=(6, 200), dtype=np.uint8)
    expected = transform_distribution(field, rows).counts
    monkeypatch.setattr(conftest, "_CHUNK_ENTRIES", 8**j)
    tracemalloc.start()
    try:
        W = transform_distribution(field, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert W.counts == expected
    assert peak < 2 * 4 * 8**j + (64 << 10)  # 64 KiB for the per-column and histogram arrays


@pytest.mark.parametrize("rows, message", [
    ([], "nonempty"),
    ([(1, 2), (1,)], "unequal"),
    ([(1, 3)], "elements of GF"),
    ([()], "nonempty"),
    ([(), ()], "nonempty"),
    (np.zeros((3, 0), dtype=np.uint8), "nonempty"),
    ([1, 2], "nonempty"),
    ([(), (1,)], "unequal"),
    ([(1, 2), (1, 2, 0), (0, 1)], "unequal"),
    ([(1, -1)], "elements of GF"),
    (np.array([[1, 3]], dtype=np.uint8), "elements of GF"),
    ([(1.0, 2.0)], "elements of GF"),
], ids=["no rows", "short second row", "entry of 3", "one empty row", "two empty rows",
        "empty array", "flat list", "ragged after an empty row", "ragged middle row", "negative",
        "out of range array", "floats"])
def test_rows_are_validated(gf3, rows, message):
    with pytest.raises(ParameterError, match=message):
        transform_distribution(gf3, rows)


def test_generator_array_and_row_lists_agree(gf3):
    # the read-only (k, n) generator is consumed as it is; lists of rows still work
    _, G = build_two_weight(simplex_consta(gf3, 2), 5)
    W = transform_distribution(gf3, G.rows)
    assert W.counts == transform_distribution(gf3, G.rows.tolist()).counts
    assert W.counts == transform_distribution(gf3, [tuple(r) for r in G.rows.tolist()]).counts
    assert (W.k, W.n) == G.rows.shape


def test_multiplicities_count_against_the_budget(gf3):
    # the points stand for all q^(2t) messages, as the transform over the rows would
    _, G = build_two_weight(simplex_consta(gf3, 2), 3)
    points = construction.points(G)
    with pytest.raises(BudgetExceededError) as err:
        analysis.weight_distribution_of_rows(gf3, G.rows, budget=80, points=points)
    assert (err.value.required, err.value.budget) == (81, 80)


def test_unequal_leading_symbol_histograms_are_caught(monkeypatch, gf3):
    # a transform that mixes up one message of slice 2 must not go unnoticed
    original = conftest._zero_counts

    def corrupt(*args):
        zeros = original(*args).copy()
        zeros[-1] += 1
        return zeros

    _, G = build_two_weight(simplex_consta(gf3, 2), 3)
    monkeypatch.setattr(conftest, "_zero_counts", corrupt)
    with pytest.raises(VerificationError, match="^spectrum: nonzero leading symbols"):
        transform_distribution(gf3, G.rows)


def test_lost_codewords_are_caught(monkeypatch):
    # n + 1 columns orthogonal to one message of slice 1 give no weight of a codeword;
    # over GF(2) slice 1 is the only one compared, so only the range check shows it
    original = conftest._zero_counts

    def corrupt(flat, *args):
        zeros = original(flat, *args).copy()
        zeros[-1] = len(flat) + 1
        return zeros

    monkeypatch.setattr(conftest, "_zero_counts", corrupt)
    with pytest.raises(VerificationError,
                       match="^spectrum: the transform gave a zero count outside 0..3$"):
        transform_distribution(field_from_order(2), [(1, 0, 1), (0, 1, 1)])
