"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's optimized code paths:
weight counts are recomputed by looping over every message with scalar field
operations, and matrix products are done schoolbook-style, so they can catch
bugs in the spectrum transform and the ring shortcuts.
"""

from collections import Counter
from itertools import product

import pytest

from qtweave import field_create


@pytest.fixture(scope="session")
def gf2():
    return field_create(2)


@pytest.fixture(scope="session")
def gf3():
    return field_create(3)


@pytest.fixture(scope="session")
def gf4():
    return field_create(2, 2)


@pytest.fixture(scope="session")
def gf5():
    return field_create(5)


def euler_phi(n: int) -> int:
    """Euler's totient by trial-division factoring."""
    result = n
    d = 2
    while d * d <= n:
        if n % d == 0:
            while n % d == 0:
                n //= d
            result -= result // d
        d += 1
    if n > 1:
        result -= result // n
    return result


def naive_weight_counts(field, rows) -> dict:
    """Weight counts by looping over every message with scalar field ops."""
    k = len(rows)
    n = len(rows[0])
    counts = Counter()
    for msg in product(field.elements(), repeat=k):
        word = [0] * n
        for c, row in zip(msg, rows):
            if c == 0:
                continue
            for j, v in enumerate(row):
                if v:
                    word[j] = field.add(word[j], field.mul(c, v))
        counts[sum(1 for v in word if v)] += 1
    return dict(counts)


def schoolbook_vec_mat(field, u, matrix_rows):
    """u times a matrix given as explicit rows, entry by entry."""
    n = len(matrix_rows[0])
    out = [0] * n
    for c, row in zip(u, matrix_rows):
        for j, v in enumerate(row):
            out[j] = field.add(out[j], field.mul(c, v))
    return tuple(out)


def span_words(field, rows):
    """All vectors spanned by the given rows, via scalar field ops."""
    n = len(rows[0])
    words = [(0,) * n]
    for row in rows:
        scaled = [tuple(field.mul(a, v) for v in row) for a in field.elements()]
        words = [tuple(field.add(x, y) for x, y in zip(w, s)) for w in words for s in scaled]
    return words
