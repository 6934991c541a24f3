"""Exact arithmetic in small finite fields GF(p^e).

Elements are plain integers in [0, q).  For a prime field the value is the
residue itself.  For an extension field the integer packs the base-p digit
vector of the element's polynomial representation, least significant digit
first: value = c0 + c1*p + ... + c_{e-1}*p^(e-1).  A column of elements packs
the same way into one base-q key (`column_keys`, of dtype `key_dtype`), which
projectivity sorts and the consta-shift check looks up.

All arithmetic reads one set of numpy lookup tables (the `tables` attribute),
built vectorised on first use and shared by all callers; a Field has no other
arithmetic interface.  The defining modulus is the canonical one: the first monic primitive
polynomial of degree e over GF(p) that find_primitive returns, coefficients
compared low degree first.  That makes the arithmetic reproducible across
runs without a hard-coded polynomial table.

field_create and field_from_order return one canonical Field per (p, e), so
repeated calls share its modulus search and its tables.  The order limit is
checked on every call before the lookup, so a field made under a raised
limit is not returned once the limit is lowered again.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, VerificationError, check_integer
from .polynomial import find_primitive, prime_factors

DEFAULT_ORDER_LIMIT = 1024


class FieldTables(NamedTuple):
    """Read-only lookup tables: add[a, b], mul[a, b], neg[a] and inv[a] (inv[0] = 0).

    The dtype is the smallest unsigned type that holds q - 1, so index
    arithmetic on looked-up values must be widened first.
    """

    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray
    inv: np.ndarray


class Field:
    """A finite field GF(p^e) operating on canonically encoded integers."""

    __slots__ = ("p", "e", "q", "modulus", "_tables")

    def __init__(self, p, e, modulus):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus  # ascending monic coefficients, None for e == 1
        self._tables = None

    @property
    def tables(self) -> FieldTables:
        """The q x q add/mul and length-q neg/inv tables, built on first use."""
        if self._tables is None:
            self._tables = _build_tables(self)
        return self._tables

    def __repr__(self):
        return f"GF({self.q})"

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def check(self, a) -> int:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.q:
            raise ParameterError(f"{a!r} is not an element of {self!r}")
        return a

    def elements(self):
        return range(self.q)

    def element_order(self, a: int) -> int:
        """Smallest k >= 1 with a^k = 1; divides q - 1."""
        if a == 0:
            raise ParameterError("the zero element has no multiplicative order")
        row = self.tables.mul[a].tolist()  # row[b] = a b
        acc, k = a, 1
        while acc != 1:
            acc = row[acc]
            k += 1
            if k > self.q:  # cannot happen in a field; guards a broken table
                raise VerificationError(f"field tables: {a} has no multiplicative order "
                                        f"below {self.q}; the tables are not a field's")
        return k


def key_dtype(q: int, k: int) -> np.dtype:
    """The dtype of base-q keys of k digits: the narrowest unsigned one that holds q^k.

    From q^k = 2^32 on it is int64, which numpy mixes with the other integer
    types without a float; q^k > 2^63 raises ParameterError.  Holding q^k,
    not just the largest key q^k - 1, lets a key be divided by any power of q
    up to q^k in its own dtype.
    """
    if q**k > 1 << 63:
        raise ParameterError(f"{k} rows over GF({q}) exceed the 64-bit column keys")
    return np.dtype(np.int64) if q**k >= 1 << 32 else np.min_scalar_type(q**k)


def column_keys(cols: np.ndarray, q: int) -> np.ndarray:
    """The base-q key of each column over the last two axes of cols, first row leading.

    A (..., k, n) array of elements gives (..., n) keys of dtype
    key_dtype(q, k), so equal columns have equal keys, the zero column is the
    only one keyed 0, and no rows give zero keys.  The keys are one einsum
    over the elements as they are; only elements of a type wider than the
    keys' (int64 rows from lists) give keys that are copied to it.
    """
    k = cols.shape[-2]
    dtype = key_dtype(q, k)
    powers = q ** np.arange(k - 1, -1, -1, dtype=dtype)
    return np.einsum("j,...jn->...n", powers, cols).astype(dtype, copy=False)


def in_field(a: np.ndarray, q: int) -> bool:
    """Whether an integer array holds elements of GF(q), encoded in 0..q-1."""
    return a.dtype.kind in "iu" and (a.dtype.kind == "u" or a.min() >= 0) and a.max() < q


def _build_tables(field: Field) -> FieldTables:
    p, e, q = field.p, field.e, field.q
    dtype = np.min_scalar_type(q - 1)
    a = np.arange(p)
    digit = ((a[:, None] + a[None, :]) % p).astype(dtype)
    add, low = digit, p
    for _ in range(e - 1):  # encodings d * low + r: add the digits d, then the rest r
        add = (digit[:, None, :, None] * low + add[None, :, None, :]).reshape(low * p, low * p)
        low *= p
    if e == 1:
        mul = a[:, None] * a[None, :] % p
    else:
        # x * (r + d x^(e-1)) = r x + d x^e, and x^e is minus the modulus tail; the
        # modulus is primitive, so x^0 .. x^(q-2) are the q - 1 nonzero elements
        top = q // p
        tail = np.array(field.modulus[:-1])
        carry = ((-a[:, None] * tail) % p * p ** np.arange(e)).sum(axis=1)  # carry[d] = d x^e
        v = np.arange(q)
        times_x = add[v % top * p, carry[v // top]].tolist()
        exp = [1]
        for _ in range(q - 2):
            exp.append(times_x[exp[-1]])
        exp = np.array(exp * 2, dtype=dtype)  # exp[k] = x^k, wrapped once for sums of logs
        log = np.zeros(q, dtype=np.int64)
        log[exp[:q - 1]] = np.arange(q - 1)
        mul = np.zeros((q, q), dtype=dtype)
        mul[1:, 1:] = exp[log[1:, None] + log[None, 1:]]
    neg = np.argmax(add == 0, axis=1)
    inv = np.argmax(mul == 1, axis=1)  # row 0 holds no 1, so inv[0] = 0
    tables = FieldTables(*(t.astype(dtype, copy=False) for t in (add, mul, neg, inv)))
    for t in tables:
        t.setflags(write=False)
    return tables


def field_create(p: int, e: int = 1) -> Field:
    """The canonical GF(p^e): one Field per (p, e), built on the first call.

    The order limit is DEFAULT_ORDER_LIMIT, read and checked on every call.
    """
    p, e = check_integer("characteristic", p), check_integer("extension degree", e)
    limit = DEFAULT_ORDER_LIMIT
    if e < 1:
        raise ParameterError(f"extension degree must be >= 1, got {e}")
    # p >= 2 and e >= limit.bit_length() give p^e >= 2^e > limit; checking
    # that first keeps prime_factors and p**e away from huge inputs
    if p > limit or (p >= 2 and e >= limit.bit_length()):
        raise ParameterError(f"field order {p}^{e} exceeds the limit {limit}")
    if p < 2 or prime_factors(p) != [p]:
        raise ParameterError(f"characteristic {p} is not prime")
    if p**e > limit:
        raise ParameterError(f"field order {p}^{e} exceeds the limit {limit}")
    return _canonical_field(p, e)


@cache
def _canonical_field(p: int, e: int) -> Field:
    if e == 1:
        return Field(p, 1, None)
    return Field(p, e, find_primitive(field_create(p), e, limit=1)[0].coeffs)


def field_from_order(q: int | str) -> Field:
    """Build GF(q) from the field order: an int, or text such as "9" or "3^2".

    This is the one place that splits an order q = p^e, by prime_factors(q);
    an explicit "p^e" is passed to field_create as written.
    """
    if isinstance(q, str):
        p_text, caret, e_text = q.strip().partition("^")
        try:
            q, e = int(p_text), (int(e_text) if caret else None)
        except ValueError:
            raise ParameterError(f"cannot parse field order {q.strip()!r}") from None
        if e is not None:
            return field_create(q, e)
    q = check_integer("field order", q)
    if q < 2:
        raise ParameterError(f"field order must be >= 2, got {q}")
    if q > DEFAULT_ORDER_LIMIT:
        raise ParameterError(f"field order {q} exceeds the limit {DEFAULT_ORDER_LIMIT}")
    primes = prime_factors(q)
    if len(primes) != 1:
        raise ParameterError(f"{q} is not a prime power")
    p, e = primes[0], 1
    while p**e < q:  # q is a power of p
        e += 1
    return field_create(p, e)
