"""Exact arithmetic in small finite fields GF(p^e).

Elements are plain integers in [0, q).  For a prime field the value is the
residue itself.  For an extension field the integer packs the base-p digit
vector of the element's polynomial representation, least significant digit
first: value = c0 + c1*p + ... + c_{e-1}*p^(e-1).

Extension fields carry discrete exp/log tables with respect to x, the residue
of the defining variable, so multiplication and inversion are table lookups.
Every field also has numpy lookup tables for whole-array arithmetic (the
`tables` attribute), built vectorised on first use and shared by all callers.
The defining modulus is the canonical one: the lexicographically smallest
monic primitive polynomial of degree e over GF(p), coefficients compared low
degree first.  That makes the arithmetic reproducible across runs without a
hard-coded polynomial table.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import ParameterError

DEFAULT_ORDER_LIMIT = 1024


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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

    __slots__ = ("p", "e", "q", "modulus", "exp_table", "log_table", "_tables")

    def __init__(self, p, e, modulus, exp_table, log_table):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus      # ascending monic coefficients, None for e == 1
        self.exp_table = exp_table  # exp_table[k] = x^k, None for e == 1
        self.log_table = log_table
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

    def nonzero(self):
        return range(1, self.q)

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        out, shift = 0, 1
        for _ in range(self.e):
            out += ((a + b) % self.p) * shift
            a //= self.p
            b //= self.p
            shift *= self.p
        return out

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        out, shift = 0, 1
        for _ in range(self.e):
            out += (-a % self.p) * shift
            a //= self.p
            shift *= self.p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return self.exp_table[(self.log_table[a] + self.log_table[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero")
        if self.e == 1:
            return pow(a, -1, self.p)
        return self.exp_table[-self.log_table[a] % (self.q - 1)]

    def element_order(self, a: int) -> int:
        """Smallest k >= 1 with a^k = 1; divides q - 1."""
        if a == 0:
            raise ParameterError("the zero element has no multiplicative order")
        acc, k = a, 1
        while acc != 1:
            acc = self.mul(acc, a)
            k += 1
            if k > self.q:  # cannot happen in a field; guards a broken table
                raise AssertionError("order search did not terminate")
        return k


def _build_tables(field: Field) -> FieldTables:
    p, q = field.p, field.q
    dtype = np.min_scalar_type(q - 1)
    a = np.arange(p)
    digit = ((a[:, None] + a[None, :]) % p).astype(dtype)
    add, low = digit, p
    for _ in range(field.e - 1):  # encodings d * low + r: add the digits d, then the rest r
        add = (digit[:, None, :, None] * low + add[None, :, None, :]).reshape(low * p, low * p)
        low *= p
    if field.e == 1:
        mul = a[:, None] * a[None, :] % p
    else:
        exp, log = np.array(field.exp_table * 2, dtype=dtype), np.array(field.log_table)
        mul = np.zeros((q, q), dtype=dtype)
        mul[1:, 1:] = exp[log[1:, None] + log[None, 1:]]
    neg = np.argmax(add == 0, axis=1)
    inv = np.argmax(mul == 1, axis=1)  # row 0 holds no 1, so inv[0] = 0
    tables = FieldTables(*(t.astype(dtype, copy=False) for t in (add, mul, neg, inv)))
    for t in tables:
        t.setflags(write=False)
    return tables


def _mul_by_x(digits, mod_tail, p):
    # digits: e coefficients ascending; mod_tail: low e coefficients of the monic modulus
    carry = digits[-1]
    out = [0] + digits[:-1]
    if carry:
        for i, c in enumerate(mod_tail):
            out[i] = (out[i] - carry * c) % p
    return out


def _try_tables(p, e, mod_tail):
    """Exp table for x in GF(p)[x]/(modulus), or None if the modulus is not primitive.

    Success certifies the modulus: if the powers x^0 .. x^(q-2) are q - 1
    distinct elements and x^(q-1) = 1, every nonzero residue is a unit, so the
    quotient is a field (modulus irreducible) and x generates it.
    """
    q = p**e
    weights = [p**i for i in range(e)]
    digits = [0] * e
    digits[0] = 1
    exp = []
    seen = set()
    for _ in range(q - 1):
        enc = sum(d * w for d, w in zip(digits, weights))
        if enc in seen:
            return None
        seen.add(enc)
        exp.append(enc)
        digits = _mul_by_x(digits, mod_tail, p)
    if sum(d * w for d, w in zip(digits, weights)) != 1:
        return None
    return exp


def field_create(p: int, e: int = 1, limit: int = DEFAULT_ORDER_LIMIT) -> Field:
    """Build GF(p^e) with the canonical modulus; identical inputs give identical arithmetic."""
    # p >= 2 and e >= limit.bit_length() give p^e >= 2^e > limit; checking
    # that first keeps _is_prime and p**e away from huge inputs
    if p > limit or (p >= 2 and e >= limit.bit_length()):
        raise ParameterError(f"field order {p}^{e} exceeds the limit {limit}")
    if not _is_prime(p):
        raise ParameterError(f"characteristic {p} is not prime")
    if e < 1:
        raise ParameterError(f"extension degree must be >= 1, got {e}")
    if p**e > limit:
        raise ParameterError(f"field order {p}^{e} exceeds the limit {limit}")
    if e == 1:
        return Field(p, 1, None, None, None)
    # x is no unit modulo a zero constant term, so _try_tables would reject it
    for tail in product(range(1, p), *[range(p)] * (e - 1)):
        exp = _try_tables(p, e, list(tail))
        if exp is not None:
            q = p**e
            log = [0] * q
            for k, enc in enumerate(exp):
                log[enc] = k
            return Field(p, e, tuple(tail) + (1,), tuple(exp), tuple(log))
    raise AssertionError(f"no primitive polynomial of degree {e} over GF({p})")


def field_from_order(q: int | str, limit: int = DEFAULT_ORDER_LIMIT) -> Field:
    """Build GF(q) from the field order: an int, or text such as "9" or "3^2".

    This is the one place that factors an order q = p^e; an explicit "p^e"
    is passed to field_create as written.
    """
    if isinstance(q, str):
        p_text, caret, e_text = q.strip().partition("^")
        try:
            q, e = int(p_text), (int(e_text) if caret else None)
        except ValueError:
            raise ParameterError(f"cannot parse field order {q.strip()!r}") from None
        if e is not None:
            return field_create(q, e, limit)
    if q < 2:
        raise ParameterError(f"field order must be >= 2, got {q}")
    if q > limit:
        raise ParameterError(f"field order {q} exceeds the limit {limit}")
    p = 2
    while p * p <= q and q % p:
        p += 1
    if q % p:
        p = q
    e, rest = 0, q
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise ParameterError(f"{q} is not a prime power")
    return field_create(p, e, limit)
