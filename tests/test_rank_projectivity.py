"""Differential tests of the key-sort projectivity kernel against a scalar oracle."""

import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtweave import field_create, is_projective
from qtweave.fields import column_keys
from conftest import naive_is_projective, scalar

FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (2, 8))  # GF(256): q (q - 1) > 255


def generator(field, rows):
    """A stand-in generator matrix: is_projective reads only its field and its (k, n) rows."""
    return SimpleNamespace(field=field, rows=np.array(list(rows), dtype=field.tables.mul.dtype))


@st.composite
def matrices(draw):
    """A random k x n matrix with zero, repeated and scalar-multiple columns and
    repeated or dependent rows mixed in."""
    field = field_create(*draw(st.sampled_from(FIELDS)))
    f, q = scalar(field), field.q
    k, n = draw(st.integers(1, 6)), draw(st.integers(1, 12))
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
    assert is_projective(generator(field, rows)) == naive_is_projective(field, rows)


def test_is_projective_beyond_64_bit_column_keys():
    # q^k = 2^70, so a column packed into one base-q integer would overflow int64
    field, k = field_create(2, 10), 7
    f, q = scalar(field), field.q
    rng = random.Random(2)
    canon = {(1, *(rng.randrange(q) for _ in range(k - 1))) for _ in range(60)}
    # these two keys agree mod 2^64: their top digits differ by 16 and 16 q^6 = 2^64
    canon |= {(1, 0, 0, 0, 0, 0, 5), (1, 0, 0, 0, 0, 0, 21)}
    # distinct projective points, each column scaled by its own nonzero scalar
    cols = [tuple(f.mul(a, v) for v in c)
            for c, a in zip(sorted(canon), (rng.randrange(1, q) for _ in canon))]
    assert is_projective(generator(field, zip(*cols)))
    # the first column again, scaled, as the last one
    cols.append(tuple(f.mul(777, v) for v in cols[0]))
    assert not is_projective(generator(field, zip(*cols)))


@pytest.mark.parametrize("p, e, k", [(2, 8, 8), (2, 10, 7)], ids=["GF(256) k=8", "GF(1024) k=7"])
def test_split_keys_match_naive_oracle(p, e, k):
    # q^k > 2^63: the first key packs k - 1 rows, the second the last row
    field = field_create(p, e)
    f, q = scalar(field), field.q
    rng = random.Random(k)
    pool = rng.sample(range(q), 6)  # few distinct symbols keep the oracle's q - 1 products cheap
    cols = [tuple(rng.choice(pool) for _ in range(k)) for _ in range(6)]
    head = tuple(rng.choice(pool) for _ in range(k - 1))
    # equal in the first key's rows, different in the second key's row: distinct points
    cols += [head + (3,), head + (4,)]
    assert is_projective(generator(field, zip(*cols))) == naive_is_projective(field, zip(*cols))
    assert is_projective(generator(field, zip(*cols)))
    # a proportional pair that is zero outside the second key's row
    cols += [(0,) * (k - 1) + (5,), (0,) * (k - 1) + (f.mul(9, 5),)]
    assert not is_projective(generator(field, zip(*cols)))
    assert not naive_is_projective(field, zip(*cols))


@pytest.mark.parametrize("q, k, rows_per_key", [(2, 20, 20), (3, 39, 39), (3, 40, 39), (256, 8, 7),
                                                (1024, 7, 6), (2, 0, 1)])
def test_column_keys_are_the_base_q_values_of_each_part(q, k, rows_per_key):
    rng = random.Random(q + k)
    cols = np.array([[rng.randrange(q) for _ in range(5)] for _ in range(k)], dtype=np.int64)
    cols = cols.reshape(k, 5)
    parts = [cols[i:i + rows_per_key] for i in range(0, max(k, 1), rows_per_key)]
    expected = [[sum(int(v) * q**e for e, v in enumerate(reversed(col))) for col in part.T]
                for part in parts]
    assert column_keys(cols, q).tolist() == expected
