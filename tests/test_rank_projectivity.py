"""Differential tests of the key-sort projectivity kernel against a scalar oracle."""

import itertools
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtweave import construction, field_create, is_projective
from qtweave.errors import ParameterError
from qtweave.fields import column_keys, key_dtype
from conftest import naive_is_projective, scalar

# GF(256): q (q - 1) > 255.  The chunk widths c of the normalised keys are 8 at
# GF(3), 6 at GF(4), 4 at GF(5), 3 at GF(8) and GF(9), 2 at GF(16) and 1 at
# GF(27) and GF(256), so up to 16 rows give heads of k mod c = 0 and > 0 rows
# and several chunks at each width
FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4), (3, 3), (2, 8))
CHUNKED = [pe for pe in FIELDS if pe != (2, 1)]


def generator(field, rows):
    """A stand-in generator matrix: is_projective reads only its field and its (k, n) rows."""
    return SimpleNamespace(field=field, rows=np.array(list(rows), dtype=field.tables.mul.dtype))


def normal_key(field, col) -> int:
    """The base-q key of the column scaled by the inverse of its first nonzero entry, 0 if none."""
    f, q = scalar(field), field.q
    lead = next((v for v in col if v), 0)
    return sum(f.mul(f.inv(lead), v) * q**i for i, v in enumerate(reversed(col))) if lead else 0


@st.composite
def matrices(draw):
    """A random k x n matrix with zero, repeated and scalar-multiple columns and
    repeated or dependent rows mixed in."""
    field = field_create(*draw(st.sampled_from(FIELDS)))
    f, q = scalar(field), field.q
    k, n = draw(st.integers(1, 16)), draw(st.integers(1, 12))
    symbol = st.integers(0, q - 1)
    cols = draw(st.lists(st.lists(symbol, min_size=k, max_size=k), min_size=n, max_size=n))
    for kind in draw(st.lists(st.sampled_from(["zero", "repeat", "scale"]), max_size=3)):
        col = cols[draw(st.integers(0, len(cols) - 1))]
        a = {"zero": 0, "repeat": 1, "scale": draw(st.integers(1, q - 1))}[kind]
        cols.insert(draw(st.integers(0, len(cols))), [f.mul(a, v) for v in col])
    rows = [list(r) for r in zip(*cols)]
    for kind in draw(st.lists(st.sampled_from(["repeat", "combination"]), max_size=2)):
        if kind == "repeat":
            new = rows[draw(st.integers(0, len(rows) - 1))]
        else:
            new = [0] * len(cols)
            for row in rows:
                c = draw(symbol)
                new = [f.add(x, f.mul(c, y)) for x, y in zip(new, row)]
        rows.insert(draw(st.integers(0, len(rows))), list(new))
    return field, rows


@settings(deadline=None, max_examples=200)
@given(matrices())
def test_is_projective_matches_naive_oracle(case):
    field, rows = case
    if field.q ** len(rows) > 1 << 63:  # up to 8 rows over GF(256): one key cannot hold a column
        with pytest.raises(ParameterError, match="exceed the 64-bit column keys"):
            is_projective(generator(field, rows))
        return
    G = generator(field, rows)
    assert is_projective(G) == naive_is_projective(field, rows)
    keys = construction._normal_keys(field, G.rows)
    assert keys.dtype == key_dtype(field.q, len(rows))
    assert keys.tolist() == [normal_key(field, col) for col in zip(*rows)]


@pytest.mark.parametrize("pe", CHUNKED, ids=[f"GF({p ** e})" for p, e in CHUNKED])
def test_normal_keys_at_every_head_and_chunk_count(pe):
    # a head of k mod c rows or none, one to three chunks, and leading zeros
    # that end in the head, in any chunk or never
    field = field_create(*pe)
    q, c = field.q, construction._chunk_tables(field)[0]
    rng = random.Random(q)
    for k in sorted({k for k in (c - 1, c, c + 1, 2 * c, 2 * c + 1, 3 * c) if k >= 1 and q**k <= 1 << 63}):
        cols = [[0] * z + [rng.randrange(q) for _ in range(k - z)] for z in range(k + 1) for _ in range(3)]
        keys = construction._normal_keys(field, generator(field, zip(*cols)).rows)
        assert keys.tolist() == [normal_key(field, col) for col in cols], k


@pytest.mark.parametrize("pe", CHUNKED, ids=[f"GF({p ** e})" for p, e in CHUNKED])
def test_chunk_tables_are_scalar_products(pe):
    # every entry of scaled and lead, against scalar products; c is the widest chunk
    # whose scaled table has q^(c+1) <= _CHUNK_CELLS / q entries, and at c = 1 scaled is mul
    field = field_create(*pe)
    f, q = scalar(field), field.q
    c, scaled, lead = construction._chunk_tables(field)
    assert c == max([1] + [w for w in range(1, 17) if q ** (w + 2) <= construction._CHUNK_CELLS])
    assert (c == 1) == np.shares_memory(scaled, field.tables.mul)
    digits = list(itertools.product(range(q), repeat=c))  # in key order, first digit leading
    assert lead.tolist() == [f.inv(d[0]) * q**c if d else 0
                             for d in ([v for v in ds if v] for ds in digits)]
    assert scaled.tolist() == [sum(f.mul(a, v) * q**i for i, v in enumerate(reversed(ds)))
                               for a in range(q) for ds in digits]


@pytest.mark.parametrize("pe", [(2, 1), (3, 1), (2, 2), (2, 8)], ids=["GF(2)", "GF(3)", "GF(4)", "GF(256)"])
def test_no_columns_are_projective(pe):
    # no column is zero and no two are multiples; the 64-bit refusal still comes first
    field = field_create(*pe)
    for k in (1, 4, 8):
        rows = [[]] * k
        if field.q**k > 1 << 63:
            with pytest.raises(ParameterError, match="exceed the 64-bit column keys"):
                is_projective(generator(field, rows))
        else:
            assert is_projective(generator(field, rows)) and naive_is_projective(field, rows)


def test_is_projective_beyond_64_bit_column_keys():
    # q^k = 2^70: a column is one base-q key, which int64 cannot hold
    field, k = field_create(2, 10), 7
    rng = random.Random(2)
    cols = [(1, *(rng.randrange(field.q) for _ in range(k - 1))) for _ in range(60)]
    with pytest.raises(ParameterError, match=r"7 rows over GF\(1024\) exceed the 64-bit"):
        is_projective(generator(field, zip(*cols)))


@pytest.mark.parametrize("p, e, k", [(2, 8, 8), (2, 10, 7)], ids=["GF(256) k=8", "GF(1024) k=7"])
def test_split_keys_match_naive_oracle(p, e, k):
    # q^k > 2^63 is refused; k - 1 rows fit one key, checked against the oracle
    field = field_create(p, e)
    f, q = scalar(field), field.q
    rng = random.Random(k)
    pool = rng.sample(range(q), 6)  # few distinct symbols keep the oracle's q - 1 products cheap
    cols = [tuple(rng.choice(pool) for _ in range(k)) for _ in range(6)]
    with pytest.raises(ParameterError, match=f"{k} rows over GF\\({q}\\) exceed the 64-bit"):
        is_projective(generator(field, zip(*cols)))
    cols = [col[1:] for col in cols]
    head = tuple(rng.choice(pool) for _ in range(k - 2))
    cols += [head + (3,), head + (4,)]  # distinct points equal in all but the last row
    assert is_projective(generator(field, zip(*cols)))
    assert naive_is_projective(field, zip(*cols))
    cols += [(0,) * (k - 2) + (5,), (0,) * (k - 2) + (f.mul(9, 5),)]  # a proportional pair
    assert not is_projective(generator(field, zip(*cols)))
    assert not naive_is_projective(field, zip(*cols))


# rows_per_key: the rows one key below 2^63 holds, at most max(k, 1); fewer than k are refused
@pytest.mark.parametrize("q, k, rows_per_key", [(2, 20, 20), (3, 39, 39), (3, 40, 39), (256, 8, 7),
                                                (1024, 7, 6), (2, 0, 1)])
def test_column_keys_are_the_base_q_values_of_each_part(q, k, rows_per_key):
    rng = random.Random(q + k)
    cols = np.array([[rng.randrange(q) for _ in range(5)] for _ in range(2 * k)], dtype=np.int64)
    cols = cols.reshape(2, k, 5)  # a batch of two (k, 5) arrays
    narrow = cols[1].astype(np.min_scalar_type(q - 1))  # the dtype of the field tables
    if rows_per_key < k:
        for part in (cols, cols[0], narrow):
            with pytest.raises(ParameterError, match=f"{k} rows over GF\\({q}\\) exceed"):
                column_keys(part, q)
        return
    expected = [[sum(int(v) * q**e for e, v in enumerate(reversed(col))) for col in part.T]
                for part in cols]
    dtype = np.dtype(np.int64) if q**k >= 1 << 32 else np.min_scalar_type(q**k)  # holds q^k
    assert key_dtype(q, k) == dtype
    for part, keys in ((cols, expected), (cols[0], expected[0]), (narrow, expected[1])):
        assert column_keys(part, q).dtype == dtype
        assert column_keys(part, q).tolist() == keys
