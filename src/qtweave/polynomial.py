"""Dense univariate polynomials over a small finite field.

Coefficients are stored in ascending degree order (least significant
coefficient on the left) as canonical field encodings.  Polynomials are
normalized: the highest stored coefficient is nonzero, and the zero
polynomial stores no coefficients at all (its degree is the sentinel -1).
The one arithmetic operator is divmod, the division the simplex bases run.
Long division is a loop over Python ints that touches only the divisor's
nonzero taps below its lead, so x^m divided by a sparse h costs O(m * taps)
reads of the add table: its quotient is the linear recurring sequence with
h's taps.  A remainder cell that is still 0 takes the tap's value with no
read (0 + v = v).  The loop reads add as nested lists when the q x q table
has no more cells than the loop's quotient length times taps, and otherwise
by one ndarray.item per read, so a short division over a large field copies
no table: at GF(1024), t = 2, copying add takes about 50 times as long as
the loop.

The primitive search makes the same choice for add and mul, from its own
estimate of its reads, and reads the numpy tables in place when q > 64t
(t <= 2 and q >= 128); there a candidate's root test evaluates it at all
q - 1 nonzero elements at once, by Horner's rule with one gather per
coefficient (about 1 ms instead of 6 ms to the first primitive polynomial of
degree 2 over GF(1024)).  Its first order test is x^(q^t) = x, which is
x^N = 1 for a unit x; in characteristic 2, q^t is a power of 2, so it takes
squarings only.

prime_factors is the package's one trial division: it splits a field order
into its prime for fields.field_from_order, tests a characteristic for
fields.field_create and gives the primes r | q^t - 1 of the primitive search.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParameterError, VerificationError, check_budget, check_integer

if TYPE_CHECKING:  # fields imports find_primitive from here
    from .fields import Field

DEFAULT_SEARCH_BOUND = 1 << 20


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=()):
        cs = list(coeffs)
        # one pass for the common all-int case; Field.check names the first bad coefficient
        if cs and not (set(map(type, cs)) == {int} and 0 <= min(cs) and max(cs) < field.q):
            for c in cs:
                field.check(c)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def monomial(cls, field, degree, coeff=1):
        return cls._normalized(field, [0] * degree + [field.check(coeff)])

    @classmethod
    def _normalized(cls, field, cs: list):
        """A Poly of the list cs, whose entries are already elements: trimmed, not re-checked."""
        while cs and cs[-1] == 0:
            cs.pop()
        poly = cls.__new__(cls)
        poly.field, poly.coeffs = field, tuple(cs)
        return poly

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        if not self.coeffs:
            raise ParameterError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __divmod__(self, other):
        if not isinstance(other, Poly) or other.field != self.field:
            raise ParameterError("operands belong to different fields")
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        add, mul, neg, inv = f.tables
        db = other.degree
        over_lead = mul[inv.item(other.lc)]  # c -> c / lc
        taps = [i for i in range(db) if other.coeffs[i]]
        # row[c] = -(c / lc) b_i: what a quotient step on a leading remainder
        # coefficient c adds db - i places below it, for each nonzero tap i < db
        rows = mul[over_lead[neg[[other.coeffs[i] for i in taps]]]].tolist()
        steps = list(zip([i - db for i in taps], rows))
        over_lead = over_lead.tolist()
        rem = list(self.coeffs)
        quot = [0] * max(len(rem) - db, 0)
        # one loop on add as nested lists, one by .item (module docstring)
        if add.size <= len(quot) * len(taps):
            add = add.tolist()
            for k in range(len(rem) - 1, db - 1, -1):  # rem[k] cancels and is not read again
                c = rem[k]
                if c:
                    quot[k - db] = over_lead[c]
                    for d, row in steps:
                        r = rem[k + d]
                        rem[k + d] = add[r][row[c]] if r else row[c]
        else:
            add = add.item
            for k in range(len(rem) - 1, db - 1, -1):
                c = rem[k]
                if c:
                    quot[k - db] = over_lead[c]
                    for d, row in steps:
                        r = rem[k + d]
                        rem[k + d] = add(r, row[c]) if r else row[c]
        return Poly._normalized(f, quot), Poly._normalized(f, rem[:db])  # table entries

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            if d == 0:
                terms.append(str(c))
            else:
                var = "x" if d == 1 else f"x^{d}"
                terms.append(var if c == 1 else f"{c}{var}")
        return " + ".join(terms)

    def __repr__(self):
        return f"Poly({self.field!r}, {self})"


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division over d <= sqrt(n)."""
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


def _x_pow(e: int, ntail, add, mul) -> list:
    """x^e modulo x^t - ntail, by square-and-multiply on the tables.

    ntail lists the t low coefficients of x^t mod h, that is, the negated
    tail of h.  Residues are lists of t coefficients, ascending, and add and
    mul are the field's tables, as nested lists or numpy arrays (whose reads
    leave numpy integers in the residue).  In characteristic 2 a square is a
    Frobenius image, (sum a_i x^i)^2 = sum a_i^2 x^(2i), as the doubled
    cross terms vanish: t table reads instead of t^2 products.
    """
    t = len(ntail)
    taps = [(i - t, c) for i, c in enumerate(ntail) if c]  # x^k adds c x^(k + i - t)
    high = range(2 * t - 2, t - 1, -1)
    acc = [1] + [0] * (t - 1)
    frobenius = add[1][1] == 0  # 1 + 1 = 0
    for bit in bin(e)[2:]:
        prod = [0] * (2 * t - 1)
        if frobenius:
            prod[::2] = [mul[a][a] for a in acc]
        else:
            for i, a in enumerate(acc):
                if a:
                    row = mul[a]
                    for j, b in enumerate(acc, i):
                        if b:
                            prod[j] = add[prod[j]][row[b]]
        for k in high:  # x^k = x^(k-t) * ntail
            c = prod[k]
            if c:
                row = mul[c]
                for j, d in taps:
                    prod[k + j] = add[prod[k + j]][row[d]]
        acc = prod[:t]
        if bit == "1":  # times x: shift up, fold the carry back in
            c = acc[-1]
            acc = [0] + acc[:-1]
            if c:
                row = mul[c]
                for j, d in taps:
                    acc[t + j] = add[acc[t + j]][row[d]]
    return acc


def _norms(field: Field, t: int, mul, neg) -> set[int]:
    """The constant terms h(0) that the norm rule of find_primitive allows at degree t.

    These are (-1)^t times the generators of GF(q)^*, taken as the powers g^j,
    gcd(j, q - 1) = 1, of the first generator g.  Field.element_order finds g
    by walks of at most q steps, and then exactly q - 2 more powers of g are
    read, so no walk's length depends on the tables.  mul is the field's
    table, as nested lists or a numpy array, and neg its list.
    """
    q = field.q
    g = next((a for a in range(1, q) if field.element_order(a) == q - 1), None)
    if g is None:
        raise VerificationError(f"primitive search: GF({q})^* has no generator; "
                                "the tables are not a field's")
    row = mul[g]  # row[a] = a g, read as a list
    row, powers = row.tolist() if isinstance(row, np.ndarray) else row, [1]
    for _ in range(q - 2):
        powers.append(row[powers[-1]])
    sign = neg if t % 2 else range(q)
    return {sign[powers[j]] for j in range(q - 1) if gcd(j, q - 1) == 1}


def _primitive_tail(tail, exponents, add, mul, neg) -> bool:
    """Whether the monic h = x^t + tail(x), h(0) allowed by the norm rule, is primitive.

    tail holds the t low coefficients of h, ascending; exponents are q^t,
    then N / r for each prime r | N = q^t - 1 with N / r >= t; add and mul
    are the field's tables, as nested lists or numpy arrays, and neg its list.
    """
    if len(tail) >= 2:  # a root r in GF(q) gives the factor x - r
        if isinstance(mul, np.ndarray):  # all roots at once (module docstring)
            roots = np.arange(1, len(neg))
            v = np.ones_like(roots)
            for c in reversed(tail):
                v = add[mul[roots, v], c]
            if not v.all():
                return False
        else:
            for r in range(1, len(neg)):
                row, v = mul[r], 1
                for c in reversed(tail):
                    v = add[row[v]][c]
                if not v:
                    return False
    t, ntail = len(tail), [neg[c] for c in tail]
    one, x = [1] + [0] * (t - 1), ntail if t == 1 else [0, 1] + [0] * (t - 2)
    qt, *cofactors = exponents
    return (_x_pow(qt, ntail, add, mul) == x
            and not any(_x_pow(e, ntail, add, mul) == one for e in cofactors))


def find_primitive(field: Field, t: int, limit: int | None = None) -> list[Poly]:
    """All monic primitive degree-t polynomials, low-degree-first lexicographic order.

    With limit = N >= 1 only the first N are returned.  A monic h is
    primitive when x has order exactly N = q^t - 1 modulo h: x^N = 1 and
    x^(N/r) != 1 for every prime r | N (r from prime_factors), by
    square-and-multiply on the field's tables (module docstring).  The norm
    rule below makes h(0) != 0, so x is a unit and x^N = 1 is tested as
    x^(q^t) = x; an N/r < t needs no test, as x^(N/r) is then a reduced
    monomial of positive degree.  That order also proves h irreducible (the
    N powers of x are distinct units, so every nonzero residue is a unit),
    so there is no separate irreducibility pass.  Two cheap rules cut the
    candidates first.  The norm rule: h(0) = (-1)^t a^m for a root a,
    m = (q^t - 1)/(q - 1), and a^m has order q - 1, so (-1)^t h(0) must
    generate GF(q)^*; only such constant terms are generated, which drops no
    primitive h and keeps the order.  Then, for t >= 2, h must have no root
    in GF(q).  A search over more than DEFAULT_SEARCH_BOUND candidates (read
    at call time) raises BudgetExceededError.
    """
    t = check_integer("degree", t)
    if t < 1:
        raise ParameterError(f"degree must be >= 1, got {t}")
    if limit is not None and limit < 1:
        raise ParameterError(f"limit must be >= 1, got {limit}")
    check_budget(field.q, t, DEFAULT_SEARCH_BOUND,
                 f"enumerating degree-{t} polynomials over {field!r}", "candidates")
    n = field.q**t - 1
    # nested lists unless a q x q table has more cells than a few root tests read:
    # a root test reads 2t cells per root, a numpy read costs about what copying
    # 16 cells does, and a search tests about two candidates per primitive
    add, mul = (table.tolist() if table.size <= 64 * t * field.q else table
                for table in field.tables[:2])
    neg = field.tables.neg.tolist()
    exponents = [n + 1] + [n // r for r in prime_factors(n) if n // r >= t]
    found = []
    for tail in product(sorted(_norms(field, t, mul, neg)), *[field.elements()] * (t - 1)):
        if _primitive_tail(tail, exponents, add, mul, neg):
            found.append(Poly(field, tail + (1,)))
            if limit is not None and len(found) >= limit:
                break
    return found
