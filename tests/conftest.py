"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's optimized code paths.
Their field arithmetic is `scalar(field)`, written here without the
package's lookup tables: addition digit by digit mod p, a schoolbook product
reduced by `field.modulus`, and inversion by search.  Polynomial arithmetic
is written here on that scalar arithmetic too, over coefficient sequences
(ascending, returned as tuples without trailing zeros): a term-by-term
product `poly_mul` and a schoolbook long division `poly_divmod`, so no
oracle runs `Poly.__divmod__`, the one operator of the package's `Poly`.
Weight counts are recomputed by looping over every message with those scalar
operations, matrix products are done schoolbook-style, ring elements are
reduced by `poly_divmod` and shifted one position at a time, a column's
predecessor under h is one digit step, rank is row reduction with scalar
field operations, projectivity compares every pair of columns, and dual
weight counts come from the MacWilliams transform of a spectrum or from
counting zero columns and proportional pairs one by one, so they can catch
bugs in the points spectrum, the block gather, the consta-shift tables,
the rank check, the projectivity check and the Pless moments.  Row text is one
str.join per row over str() of each symbol.  Matrices may come in as numpy
arrays; the oracles read them as lists of Python ints.  Irreducibility is
decided by the classic gcd test, independent of the order-of-x test that
primitivity uses, and the order of x is found by multiplying by x one step
at a time; both read a `Poly` only for its field and coefficients.  The
primitive polynomials of a degree are every monic candidate, in the search's
order, whose x has that full order.

`transform_distribution` is the second exact spectrum method, for message
spaces beyond the scalar loop: a column-multiplicity transform over all q^k
messages of any rows, on the package's field tables (test_fields checks them
against the scalar arithmetic) and column keys.  It needs no consta-shift
and no point of PG(1, q^t), so it also counts rows that fail sigma, which the
package refuses.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb

import numpy as np
import pytest

from qtweave import (
    DEFAULT_BUDGET,
    Field,
    ParameterError,
    Poly,
    VerificationError,
    WeightDistribution,
    build_two_weight,
    field_create,
    field_from_order,
    griesmer_report,
    simplex_consta,
    weight_distribution,
)
from qtweave.errors import check_budget
from qtweave.fields import column_keys, in_field

SWEEP_CONFIGS = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2))


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


@pytest.fixture(scope="session")
def sweep():
    """Every (q, t, p) two-weight code of the seven configured families, fully analyzed."""
    results = []
    for q, t in SWEEP_CONFIGS:
        s = simplex_consta(field_from_order(q), t)
        for p in range(2, q**t + 1):
            code, G = build_two_weight(s, p)
            W = weight_distribution(G)
            results.append((q, t, p, code, G, W, griesmer_report(code, W)))
    return results


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


class ScalarField:
    """GF(p^e) on the package's integer encoding, computed without Field.tables."""

    def __init__(self, field):
        self.p, self.e, self.q = field.p, field.e, field.q
        self.tail = field.modulus[:-1] if field.modulus else ()  # x^e = -tail(x)

    def digits(self, a):
        return [a // self.p**i % self.p for i in range(self.e)]

    def encode(self, digits):
        return sum(d % self.p * self.p**i for i, d in enumerate(digits))

    @cache
    def add(self, a, b):
        return self.encode(x + y for x, y in zip(self.digits(a), self.digits(b)))

    def neg(self, a):
        return self.encode(-x for x in self.digits(a))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    @cache
    def mul(self, a, b):
        e = self.e
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] += x * y
        for k in range(2 * e - 2, e - 1, -1):  # x^k = -x^(k-e) tail(x)
            for i, c in enumerate(self.tail):
                prod[k - e + i] -= prod[k] * c
        return self.encode(prod[:e])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inversion of zero")
        return next(b for b in range(1, self.q) if self.mul(a, b) == 1)


@cache
def scalar(field) -> ScalarField:
    return ScalarField(field)


def field_with_products(q, products):
    """A fresh prime field GF(q) whose mul table has the {(a, b): c} entries changed.

    Such tables are no field's; they reach the guards against broken tables.
    """
    true = field_from_order(q).tables
    mul = np.array(true.mul)
    for (a, b), c in products.items():
        mul[a, b] = c
    field = Field(q, 1, None)
    field._tables = true._replace(mul=mul)
    return field


def _ints(rows):
    """Rows as lists of Python ints, whatever sequence or array they came in."""
    return [[int(v) for v in r] for r in rows]


def text_rows(rows) -> str:
    """The rows as text: per row its symbols by str(), joined by spaces, then a newline."""
    return "".join(" ".join(map(str, row)) + "\n" for row in _ints(rows))


def naive_weight_counts(field, rows) -> dict:
    """Weight counts by looping over every message with scalar field ops."""
    rows = _ints(rows)
    k = len(rows)
    n = len(rows[0])
    f = scalar(field)
    counts = Counter()
    for msg in product(field.elements(), repeat=k):
        word = [0] * n
        for c, row in zip(msg, rows):
            if c == 0:
                continue
            for j, v in enumerate(row):
                if v:
                    word[j] = f.add(word[j], f.mul(c, v))
        counts[sum(1 for v in word if v)] += 1
    return dict(counts)


# The transform below is the second exact method: it counts all q^k messages of any
# rows, so it needs no sigma and no point of PG(1, q^t), and the tests compare the
# points tally of the package with it beyond the reach of naive_weight_counts.
_CHUNK_ENTRIES = 1 << 22
_MAX_LENGTH = (1 << 31) - 1  # a cell counts columns and is an int32


def _step_index(field) -> np.ndarray:
    """The step's gather index: [c, s, u] = (s - u c) q + c, the row of A that feeds (s, u)."""
    q, (add, mul, neg, _) = field.q, field.tables
    cs = np.arange(q)
    # (s - u c) q + c = add[neg[mul[u, c]], s] q + c, laid out [c, s, u]
    return add[neg[mul.T[:, None, :]], cs[None, :, None]].astype(np.intp) * q + cs[:, None, None]


def _zero_counts(flat: np.ndarray, q: int, steps: int, pick: np.ndarray) -> np.ndarray:
    """Columns orthogonal to each message, from each column's flat index into A[s, c].

    c runs over the last `steps` coordinates, so A has q^(steps+1) cells.  Each
    step reads the leading column coordinate and writes the message coordinate
    last, so after all steps the axes are back in their original order.  A
    step is one gather g[c, s', u] = A[s' - u c, c] over the rows (s, c) of A
    by pick, q - 1 in-place adds over c and q strided copies back into A
    (``transform_distribution``).  Only A, the q^(steps+2)-cell gather and the
    sum are alive.
    """
    A = np.bincount(flat, minlength=q ** (steps + 1)).astype(np.int32)
    rest = q ** (steps - 1)
    g = np.empty((q, q, q, rest), dtype=np.int32)
    rows, out, acc = A.reshape(q * q, rest), A.reshape(q, rest, q), g[0]
    for _ in range(steps):
        # pick rows are in range; "clip" skips buffering the output for bounds errors
        rows.take(pick, axis=0, out=g, mode="clip")
        for c in range(1, q):
            acc += g[c]
        for u in range(q):
            out[:, :, u] = acc[:, u]
    return A.reshape(q, -1)[0]


def transform_distribution(field, rows, budget=None) -> WeightDistribution:
    """Exact weight counts of the code spanned by the rows of a (k, n) array or list.

    A column-multiplicity transform.  Each column c is a point of F_q^k, and
    the codeword of a message u has weight n - #{columns c : u.c = 0}.  The
    n columns are bucketed into a multiplicity array A[s, c] (s = 0 for every
    column), and then one step per coordinate replaces the column coordinate
    c_j by the message coordinate u_j while s tracks the partial inner product,

        A'[s, ..., u_j, ...] = sum over c_j of A[s - u_j c_j, ..., c_j, ...].

    After k steps A[s, u] counts the columns with u.c = s, so A[0] holds the
    zero count of every message at once, in O(nk + k q^(k+2)) integer
    operations.  A step gathers the q^(k+2) cells A[s' - u c, c] in one
    np.take by the q^3 index of ``_step_index``, sums them over c and copies
    the sum back into A, message coordinate last.

    When the gather exceeds _CHUNK_ENTRIES cells, a message prefix of length r
    is fixed per chunk and seeds s with its inner product with the first r
    rows.  When that leaves one step or none (always for one row, and for
    q > 45), all rows but the last are fixed per chunk and the last row a is
    swept whole: column j is orthogonal to the message (prefix, u) exactly
    when s_j + u a_j = 0, that is for u = -s_j / a_j alone when a_j != 0 and
    for every u when a_j = s_j = 0, so one bincount gives the zero counts of
    the chunk's q messages.

    The zero counts z of each chunk, keyed z q + u by their leading symbol u,
    are sorted and counted run by run into one dict of exact Python ints.  A
    zero count outside 0..n, slices of nonzero leading symbol with different
    weight histograms (u -> c u is a weight-preserving bijection between
    them) and a total other than q^k raise VerificationError.
    """
    q = field.q
    try:
        gen = np.asarray(rows)
    except ValueError:
        raise ParameterError("rows have unequal lengths") from None
    if gen.ndim != 2 or not gen.size:
        raise ParameterError("need at least one nonempty row")
    k, n = gen.shape
    if n > _MAX_LENGTH:
        raise ParameterError(f"length {n} exceeds the 32-bit column counts ({_MAX_LENGTH})")
    check_budget(q, k, DEFAULT_BUDGET if budget is None else budget)
    if not in_field(gen, q):
        raise ParameterError(f"row entries must be elements of GF({q}), encoded in 0..{q - 1}")
    keys = column_keys(gen, q)
    add, mul, neg, inv = field.tables
    r = 0
    while r < k and q ** (k - r + 2) > _CHUNK_ENTRIES:  # the gather of _zero_counts
        r += 1
    if r == k - 1:  # one step's q^3 gather per chunk costs more than a sweep of the last row
        r = k
    steps = k - r
    cells = q**steps
    looped = r if steps else r - 1  # with no step, the last row is swept whole per chunk
    pick = _step_index(field) if steps else None
    if not steps:  # columns with a nonzero entry a_j in the last row first, and -1/a_j for them
        last = keys % q
        nonzero = last != 0
        keys, nz = np.concatenate([keys[nonzero], keys[~nonzero]]), np.count_nonzero(nonzero)
        solver = neg[inv[last[nonzero]]]
    index, fixed = keys, []
    if r:  # a prefix of r rows is fixed per chunk: their entries are the keys' leading digits
        head, index = np.divmod(keys, cells)
        fixed = [(head // q ** (r - 1 - u) % q).astype(add.dtype) for u in range(looped)]
    leads = np.arange(q)[:, None]
    tally = {}  # zero count * q + leading symbol -> messages, over all chunks
    for prefix in product(range(q), repeat=looped):
        if r:
            s = np.zeros(n, dtype=add.dtype)
            for u, row in zip(prefix, fixed):
                if u:
                    s = add[s, mul[u, row]]
        if not steps:  # column j < nz counts for u = -s_j/a_j alone, j >= nz for all u if s_j = 0
            zeros = np.bincount(mul[s[:nz], solver], minlength=q)
            zeros += np.count_nonzero(s[nz:] == 0)
        else:  # table dtypes are too narrow for the flat index
            zeros = _zero_counts(s.astype(np.int64) * cells + index if r else index, q, steps,
                                 pick)
        # without a prefix, zeros is led by the first symbol
        key = np.multiply(zeros.reshape(1 if prefix else q, -1), q, dtype=np.int64)
        key += prefix[0] if prefix else leads
        key = key.ravel()
        key.sort()  # zero count * q + leading symbol, ascending
        ends = (key[1:] != key[:-1]).nonzero()[0].tolist()  # the last index of each run
        ends.append(key.size - 1)
        runs = key[ends].tolist()
        if runs[0] < 0 or runs[-1] >= (n + 1) * q:
            raise VerificationError(f"spectrum: the transform gave a zero count outside 0..{n}")
        start = -1
        for end, run in zip(ends, runs):
            tally[run] = tally.get(run, 0) + end - start
            start = end
        del zeros, key  # this chunk's A-sized arrays must not outlive it into the next chunk
    hists, result = [{} for _ in range(q)], {}  # weight -> messages, per leading symbol and all
    for run, count in sorted(tally.items(), reverse=True):  # by weight n - z, ascending
        z, u = divmod(run, q)
        hists[u][n - z] = count
        result[n - z] = result.get(n - z, 0) + count  # Python ints, however large q^k is
    if any(hist != hists[1] for hist in hists[2:]):
        raise VerificationError("spectrum: nonzero leading symbols gave different weight "
                                "histograms")
    if sum(result.values()) != q**k:
        raise VerificationError(f"spectrum: the transform counted {sum(result.values())} "
                                f"codewords, not {q**k}")
    return WeightDistribution(n, k, q, result)


def naive_rank(field, rows) -> int:
    """Rank by Gauss-Jordan elimination with scalar field ops."""
    work = _ints(rows)
    f = scalar(field)
    rank = 0
    n = len(work[0]) if work else 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = f.inv(work[rank][col])
        work[rank] = [f.mul(inv, v) for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                c = work[r][col]
                work[r] = [f.sub(v, f.mul(c, w)) for v, w in zip(work[r], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank


def naive_is_projective(field, rows) -> bool:
    """No zero column and no pair of columns with one a scalar multiple of the other."""
    cols = list(zip(*_ints(rows)))
    f = scalar(field)
    if any(not any(c) for c in cols):
        return False
    return not any(tuple(f.mul(a, v) for v in x) == y
                   for i, x in enumerate(cols) for y in cols[i + 1:]
                   for a in range(1, field.q))


def dual_pair_counts(field, rows):
    """(B_1, B_2) by counting columns and pairs of columns one pair at a time.

    A zero column carries q - 1 dual words of weight 1, a pair of zero columns
    (q - 1)^2 of weight 2, and a pair of proportional nonzero columns q - 1.
    Columns are compared after scaling each by the inverse of its first
    nonzero entry, with scalar field ops.
    """
    f, q = scalar(field), field.q
    canon = []
    for col in zip(*_ints(rows)):
        lead = next((v for v in col if v), 0)
        canon.append(tuple(f.mul(f.inv(lead), v) for v in col) if lead else None)
    b1 = (q - 1) * canon.count(None)
    b2 = 0
    for i, x in enumerate(canon):
        for y in canon[i + 1:]:
            if x is None and y is None:
                b2 += (q - 1) ** 2
            elif x == y:
                b2 += q - 1
    return b1, b2


def schoolbook_vec_mat(field, u, matrix_rows):
    """u times a matrix given as explicit rows, entry by entry."""
    n = len(matrix_rows[0])
    f = scalar(field)
    out = [0] * n
    for c, row in zip(u, matrix_rows):
        for j, v in enumerate(row):
            out[j] = f.add(out[j], f.mul(c, v))
    return tuple(out)


def consta_shift(field, lam, w):
    """One lam-consta-cyclic shift: (w_0, ..., w_{m-1}) -> (lam w_{m-1}, w_0, ..., w_{m-2})."""
    w = tuple(w)
    return (scalar(field).mul(lam, w[-1]),) + w[:-1]


def column_predecessor(s, key, at_block_start=False):
    """The key of the column before a column of base-q key `key` in a row group of base s.

    The column's t digits, row 0 leading, move up one row, and the last row
    gets -sum h_u c_u; at a block start the column before is that times
    1/lam.  Scalar field ops on the digits, no table of the package.
    """
    f, q, t = scalar(s.field), s.q, s.t
    digits = [key // q ** (t - 1 - u) % q for u in range(t)]
    last = 0
    for h_u, c in zip(s.h.coeffs, digits):
        last = f.sub(last, f.mul(h_u, c))
    before = digits[1:] + [last]
    if at_block_start:
        before = [f.mul(f.inv(s.lam), c) for c in before]
    return sum(c * q ** (t - 1 - u) for u, c in enumerate(before))


def twistulant_rows(field, lam, c):
    """The m x m twistulant matrix of c: row k is the k-fold consta-cyclic shift."""
    rows = [tuple(c)]
    while len(rows) < len(rows[0]):
        rows.append(consta_shift(field, lam, rows[-1]))
    return rows


def krawtchouk(j, i, n, q):
    """K_j(i) = sum_s (-1)^s (q-1)^(j-s) C(i, s) C(n-i, j-s)."""
    return sum((-1) ** s * (q - 1) ** (j - s) * comb(i, s) * comb(n - i, j - s)
               for s in range(j + 1))


def dual_counts(W, upto=2):
    """Dual weight counts B_0..B_upto from a spectrum by the MacWilliams identity.

    B_j = (1/|C|) sum_i A_i K_j(i).  The counts are Fractions, so a spectrum
    that is not a linear code's shows up as a non-integer.  A spectrum over
    all q^k messages of a rank-r generator repeats each codeword q^(k-r)
    times, which the division by W.total() cancels.
    """
    return [Fraction(sum(a * krawtchouk(j, i, W.n, W.q) for i, a in W.counts.items()), W.total())
            for j in range(upto + 1)]


def span_words(field, rows):
    """All vectors spanned by the given rows, via scalar field ops."""
    rows = _ints(rows)
    n = len(rows[0])
    f = scalar(field)
    words = [(0,) * n]
    for row in rows:
        scaled = [tuple(f.mul(a, v) for v in row) for a in field.elements()]
        words = [tuple(f.add(x, y) for x, y in zip(w, s)) for w in words for s in scaled]
    return words


def _trim(coeffs):
    """Coefficients as a tuple of Python ints without trailing zeros: the oracles' normal form."""
    cs = [int(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_mul(field, a, b):
    """Product of two coefficient sequences (ascending), term by term with scalar field ops."""
    f = scalar(field)
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = f.add(out[i + j], f.mul(x, y))
    return _trim(out)


def poly_divmod(field, a, b):
    """Quotient and remainder of a by a nonzero b, by schoolbook long division.

    Each step subtracts c x^k b with every coefficient of b, zero taps
    included, and the lead of b is inverted by search.
    """
    f = scalar(field)
    b = _trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem, db = list(_trim(a)), len(b) - 1
    over_lead = f.inv(b[-1])
    quot = [0] * max(len(rem) - db, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = f.mul(rem[k + db], over_lead)
        for i, v in enumerate(b):
            rem[k + i] = f.sub(rem[k + i], f.mul(c, v))
    return _trim(quot), _trim(rem)


def twist_modulus(field, m, lam):
    """The coefficients of x^m - lam."""
    return (scalar(field).neg(lam),) + (0,) * (m - 1) + (1,)


def residue(field, coeffs, m, lam):
    """Coefficients mod (x^m - lam), ascending and padded to m, by poly_divmod."""
    r = poly_divmod(field, coeffs, twist_modulus(field, m, lam))[1]
    return r + (0,) * (m - len(r))


def base_word(s):
    """The word g mod (x^m - lam) of a simplex spec s, ascending and padded to m, by residue."""
    return residue(s.field, s.g.coeffs, s.m, s.lam)


def table_words(s, scales, shifts):
    """a x^e g as the word table of a simplex spec s holds it: the object under test, no oracle.

    Row (3a + 2) m - e of the table is a x^e g mod (x^m - lam), 0 <= a < q and
    0 <= e <= 2m.  scales and shifts are broadcastable integer arrays, and
    the result has their broadcast shape plus one axis of length m.
    """
    return s._table[np.multiply(scales, 3 * s.m) + (2 * s.m - np.asarray(shifts))]


def poly_gcd(field, a, b):
    """Monic greatest common divisor of two coefficient sequences, by Euclid."""
    a, b = _trim(a), _trim(b)
    if not a and not b:
        raise ParameterError("gcd of two zero polynomials is undefined")
    while b:
        a, b = b, poly_divmod(field, a, b)[1]
    f = scalar(field)
    return tuple(f.mul(f.inv(a[-1]), v) for v in a)


def pow_mod(field, base, n, h):
    """base^n reduced modulo h, by square and multiply on poly_mul and poly_divmod."""
    result = (1,)
    base = poly_divmod(field, base, h)[1]
    while n:
        if n & 1:
            result = poly_divmod(field, poly_mul(field, result, base), h)[1]
        base = poly_divmod(field, poly_mul(field, base, base), h)[1]
        n >>= 1
    return result


def is_irreducible(h) -> bool:
    """True iff the Poly h has no nontrivial factor over its field.

    Any factor of degree i divides x^(q^i) - x, so h of degree t is
    irreducible iff gcd(h, x^(q^i) - x) is constant for i = 1 .. t // 2.
    """
    field, t = h.field, h.degree
    if t < 1:
        raise ParameterError("irreducibility is defined for degree >= 1")
    f = scalar(field)
    r = poly_divmod(field, (0, 1), h.coeffs)[1]  # x^(q^i) mod h, from i = 0
    for _ in range(t // 2):
        r = pow_mod(field, r, field.q, h.coeffs)
        r_minus_x = list(r) + [0] * (2 - len(r))
        r_minus_x[1] = f.sub(r_minus_x[1], 1)
        if len(poly_gcd(field, h.coeffs, r_minus_x)) > 1:
            return False
    return True


def order_of_x(h):
    """Multiplicative order of x modulo the monic h, one multiplication by x at a time.

    None when the powers of x never return to 1, that is, when x is no unit.
    """
    if not h.coeffs[0]:  # x divides h
        return None
    f, t = scalar(h.field), h.degree
    x_t = [f.neg(c) for c in h.coeffs[:-1]]  # x^t modulo h
    one = [1] + [0] * (t - 1)
    acc = one
    for k in range(1, f.q**t):
        carry, acc = acc[-1], [0] + acc[:-1]
        if carry:
            acc = [f.add(a, f.mul(carry, c)) for a, c in zip(acc, x_t)]
        if acc == one:
            return k
    return None


def primitive_polys(field, t, count=None):
    """The monic degree-t h with order_of_x(h) = q^t - 1, low degree compared first.

    Every candidate is tried in that order; with count, the first count of them.
    """
    found = []
    for tail in product(field.elements(), repeat=t):
        h = Poly(field, tail + (1,))
        if order_of_x(h) == field.q**t - 1:
            found.append(h)
            if len(found) == count:
                break
    return found
