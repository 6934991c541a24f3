"""Consta-cyclic simplex codes and the 2-generator quasi-twisted codes built on them.

A simplex code here is the [(q^t-1)/(q-1), t, q^(t-1)]_q equidistant code cut
out of F_q[x]/(x^m - lam) by the generator polynomial g = (x^m - lam)/h.  h is
primitive of degree t and lam = x^m mod h has multiplicative order q - 1, or,
for the cyclic variant, h divides x^m - 1 and lam = 1.  Every nonzero codeword
is a_i * x^j * g for a nonzero scalar a_i and a shift j.

Two assembled shapes are supported, both of dimension 2t:

* two-weight: p blocks of width m; the top row group repeats g across all
  blocks, the bottom group has a zero first block followed by p - 1 distinct
  codeword blocks.  Nonzero weights are (p-1)q^(t-1) and p*q^(t-1).
* qt-simplex: the p = q^t extreme plus one trailing block, giving the
  [(q^(2t)-1)/(q-1), 2t, q^(2t-1)]_q simplex in quasi-twisted form.

Every block is a word a x^e g mod (x^m - lam), 0 <= e <= 2m (a shift j < m plus
a row index u < m).  For ext = lam^2 g | lam g | g, x^e g is ext[2m - e : 3m - e].
Each base holds one read-only word table, built on its first build: the q
rows a ext, a in GF(q), laid end to end (q x 3m cells, 3q/(q - 1) per
nonzero simplex codeword; 3.1 M at q = 1024, t = 2), and the sliding-window
view of width m over them, whose row (3a + 2) m - e is the block a x^e g;
scale 0 gives the zero block.  A row group is a list of (a, e) blocks, its
row u adds u to every e, and all rows of both groups are one gather from
that view, so every build over a base reads the same table.  The simplex
check reads only ext, filled once from the quotient's coefficients (with
lam = 1, as for every q = 2 and every cyclic base, the three parts are
copies of g and need no scaling gather), so a base that is never built on
never makes the table.

Each invariant is computed once, and a failure raises VerificationError led
by its stage: one division x^m = g h + lam gives g and lam
(``simplex division``), lam has order q - 1, or is 1 if cyclic
(``twist constant``), the columns of the t shifts of g prove equidistance
(``simplex check``), and a triangular 2t x 2t minor rank 2t (``rank minor``).
The constructor of ``SimplexSpec(field, t, h, variant)`` derives m, lam and
g and runs the first three, so every base, one from ``dataclasses.replace``
included, has passed them.

The simplex check is the test of ``is_projective`` on the t x m matrix of the
shifts x^u g, u < t, read in place: its entry (u, j) is ext[2m - u + j], the
t windows of ext starting at 2m - t + 1 .. 2m, last first, so no t x m copy
or index is made.  Each column is scaled to lead with 1 and packed into a
base-q integer key (``fields.column_keys``), and one sort of the m keys
finds a zero or a repeated one.  Nonzero, pairwise non-proportional, its m
columns are all m = (q^t - 1)/(q - 1) points of PG(t - 1, q), each once; a
nonzero message is orthogonal to the (q^(t-1) - 1)/(q - 1) of them in its
hyperplane, so its word has weight q^(t-1).  Conversely the columns of an
equidistant [m, t, q^(t-1)] code are these points (MacWilliams & Sloane,
ch. 1).

Distinct in-range pairs give distinct nonzero blocks without a check.
a x^j g = a' x^j' g with (a, j) != (a', j') would give x^d g = c g for some
0 < d < m, so column d of the base would be c^-1 times column 0; and
a x^j g != 0, since x is a unit modulo x^m - lam.

Corollary, the field behind the points spectrum (``points``, lam = 1
included): as x^m - lam = g h, a x^j g = a' x^j' g exactly when h divides
a x^j - a' x^j'.  So the q^t - 1 residues c x^j mod h (c in GF(q)^*, j < m)
are distinct and nonzero, hence all nonzero residues (deg h = t), and units,
as x is one: h(0) g(0) = -lam != 0.  K = F_q[x]/(h) is thus a field, and
b -> b g mod (x^m - lam) maps it onto the simplex code.

The same checks certify that the h of a consta-cyclic base is primitive, so
a supplied h or g gets no other test: one that fails them is a
ParameterError, as are an h over another field or not monic of degree t
and a variant other than consta-cyclic or cyclic (checked first);
q^t above the bound of the primitive search raises BudgetExceededError
before the division.  With lam = x^m of order q - 1, the powers
x^(im + j) = lam^i x^j modulo h, i < q - 1 and j < m, are the q^t - 1
distinct residues c x^j above, so x has order q^t - 1.  Conversely, a
primitive h gives x^m of order q - 1, so in GF(q)^*, and the simplex code
(Lidl & Niederreiter, *Finite Fields*, ch. 3; MacWilliams & Sloane, ch. 1).

The minor is columns 0..t-1 of block 0 and j_1 + v mod m, v < t, of block 1,
with j_1 the first selected shift.  It is [[A, *], [0, C]], A and C upper
triangular with diagonals g_0 (deg x^u g < m) and a_1 lam^w g_0; g_0 != 0 as
g divides x^m - lam, so a valid code always has rank 2t there.  The build
checks exactly that shape: a zero strict lower triangle and a nonzero
diagonal prove rank 2t, and any other minor is rejected without elimination.

The blockwise lam-consta-shift sigma maps the word of x^u g to that of
x^(u+1) g in every block.  When it maps top row u to row u + 1 for u < t - 1
and row t - 1 to -sum h_u row u, and the bottom group likewise, row 0 of each
block is a word w with h w = 0 modulo x^m - lam = g h, so w = b g for one b
in K, and row u is x^u b g.  The message (a, b) in K^2 then gives block j
the word of a b_0j + b b_1j, zero or of weight q^(t-1), and the spectrum of
``analysis`` counts it from the points (-b_1j : b_0j) of PG(1, q^t).
``points`` checks sigma and hands over the column-0 key of every block,
which fixes b, as column j > 0 is P^(m-j)(c_0) / lam (below).  It returns
None when sigma fails or the nonzero top blocks differ (every build's top
group repeats g), and the full transform runs.  The simplex check is
certified once per base, when it is constructed.

sigma is checked one key per column.  In a row group, let r_u[j] be entry j
of row u within one block of width m, and c_j = (r_0[j], ..., r_(t-1)[j]) its
column.  Inside a block, sigma maps row u to row u + 1 and row t - 1 to
-sum h_u row u exactly when, cell by cell,

    r_(u+1)[j] = r_u[j-1] (u < t - 1)  and  r_(t-1)[j-1] = -sum h_u r_u[j],  0 < j < m.

Let P move the digits of a column up one row and put -sum h_u c_u last: in
rows x^u w, u < t, a column is a state of the linear recurrence of h and P
steps it back.  The t equalities at j are the t digits of c_(j-1) = P(c_j).
The block start, c_(m-1) = P(c_0) / lam, follows: P is the companion map of
h, so P^m = lam I as x^m - lam = g h, and c_0 = P^(m-1) c_(m-1).  Only
lam != 0 is inverted, never h_0; a column's successor would need 1/h_0 for
its new first digit.  Base-q keys are one-to-one on columns of elements, so
the check reads key(c_(j-1)) = pred[key(c_j)], with pred the base's table of
P over all q^t keys, built on its first check: q^t entries of the dtype of
the column keys of t rows (``fields.key_dtype``), at most 2^20 (4 MiB of
uint32), as the primitive search bounds q^t.  The check keys both row groups
once, gathers n - blocks keys from the table, and compares.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from math import gcd

import numpy as np

from . import polynomial
from .errors import ParameterError, VerificationError, check_budget, check_integer
from .fields import Field, column_keys, in_field, key_dtype
from .polynomial import Poly, find_primitive

CONSTA_CYCLIC = "consta-cyclic"
CYCLIC = "cyclic"
TWO_WEIGHT = "two-weight"
QT_SIMPLEX = "qt-simplex"


def _windows(flat: np.ndarray, width: int) -> np.ndarray:
    """The sliding windows of width `width` over the 1-D read-only flat, as one view.

    Row i is flat[i : i + width]; no cell is copied, and unlike
    sliding_window_view it is one constructor call.
    """
    return np.ndarray((flat.size - width + 1, width), flat.dtype, flat, strides=flat.strides * 2)


@dataclass(frozen=True)
class SimplexSpec:
    """The base of h: the constructor derives m, lam and g and runs the checks.

    So does ``dataclasses.replace``, which refuses m, lam and g.
    """
    field: Field
    t: int
    m: int = dataclass_field(init=False)
    lam: int = dataclass_field(init=False)
    h: Poly
    g: Poly = dataclass_field(init=False)
    variant: str

    def __post_init__(self):
        field, t, h, q = self.field, self.t, self.h, self.field.q
        if self.variant not in (CONSTA_CYCLIC, CYCLIC):
            raise ParameterError(f"variant must be {CONSTA_CYCLIC!r} or {CYCLIC!r}, "
                                 f"got {self.variant!r}")
        if h.field != field:
            raise ParameterError("h belongs to a different field")
        if h.degree != t or not h.is_monic():
            kind = "polynomial" if self.variant == CYCLIC else "primitive polynomial"
            raise ParameterError(f"h = {h} is not a monic {kind} of degree {t}")
        check_budget(q, t, polynomial.DEFAULT_SEARCH_BOUND,
                     "the simplex base of a supplied h", "residues")
        m = (q**t - 1) // (q - 1)
        g, rem = divmod(Poly.monomial(field, m), h)  # x^m = g h + lam, so h divides x^m - lam
        if rem.degree > 0:
            raise VerificationError(f"simplex division: x^{m} mod h = {rem} is no constant "
                                    f"for h = {h}")
        lam = rem.coeffs[0] if rem.coeffs else 0  # h = x^t leaves the zero remainder
        if self.variant == CYCLIC:
            if lam != 1:
                raise VerificationError(f"twist constant: the cyclic build gave {lam}, expected 1")
        elif not lam or field.element_order(lam) != q - 1:
            raise VerificationError(f"twist constant: {lam} does not have order {q - 1}")
        for name, value in ("m", m), ("lam", lam), ("g", g):
            object.__setattr__(self, name, value)  # frozen, so set once here
        _check_equidistant(self)

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def weight(self) -> int:
        return self.q ** (self.t - 1)

    def params(self) -> tuple[int, int, int]:
        return (self.m, self.t, self.weight)

    def __getstate__(self):
        """The fields alone: pickled, the window view would copy m cells per window."""
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}

    @cached_property
    def _ext(self) -> np.ndarray:
        """lam^2 g | lam g | g, read-only: x^e g mod (x^m - lam) is [2m - e : 3m - e]."""
        mul, coeffs = self.field.tables.mul, self.g.coeffs
        ext = np.zeros((3, self.m), dtype=mul.dtype)
        ext[2, :len(coeffs)] = np.fromiter(coeffs, mul.dtype, len(coeffs))
        if self.lam == 1:  # every q = 2 and every cyclic base: three copies of g
            ext[:2] = ext[2]
        else:
            lam = mul[self.lam]
            ext[1] = lam[ext[2]]
            ext[0] = lam[ext[1]]
        ext = ext.reshape(-1)
        ext.setflags(write=False)
        return ext

    @cached_property
    def _table(self) -> np.ndarray:
        """The word table (module docstring): row (3a + 2) m - e is a x^e g mod (x^m - lam).

        A read-only (3qm - m + 1, m) sliding-window view of the q rows a ext,
        a in GF(q), laid end to end; windows across two rows are never read.
        """
        table = np.take(self.field.tables.mul, self._ext, axis=1).reshape(-1)  # row a is a ext
        table.setflags(write=False)
        return _windows(table, self.m)

    @cached_property
    def _pred(self) -> np.ndarray:
        """pred[K], read-only: the key of the column before a column of key K in a row group.

        The digits move up one row, and the last row gets -sum h_u row u
        (module docstring).  The last digit is one broadcast add per nonzero
        tap of h, so no entry is built in Python.
        """
        q, t, h = self.q, self.t, self.h
        add, mul, neg, _ = self.field.tables
        last = np.zeros((1,) * t, dtype=add.dtype)  # axis u is the digit of row u
        for u, c in enumerate(h.coeffs[:t]):
            if c:
                last = add[last, mul[neg[c]].reshape((q,) + (1,) * (t - 1 - u))]
        dtype = key_dtype(q, t)
        low = np.arange(0, q**t, q, dtype=dtype).reshape((1,) + (q,) * (t - 1))  # (K mod q^(t-1)) q
        pred = np.add(low, last, out=np.empty((q,) * t, dtype=dtype)).reshape(-1)
        pred.setflags(write=False)
        return pred

    @cached_property
    def _lower(self) -> np.ndarray:
        """The strict lower triangle of the 2t x 2t rank minor, as a boolean mask."""
        return np.tri(2 * self.t, k=-1, dtype=bool)


@dataclass(frozen=True)
class QtCodeSpec:
    simplex: SimplexSpec
    p: int
    selection: tuple[tuple[int, int], ...]
    variant: str

    @property
    def field(self) -> Field:
        return self.simplex.field

    @property
    def block_count(self) -> int:
        return self.p if self.variant == TWO_WEIGHT else self.p + 1

    @property
    def n(self) -> int:
        return self.block_count * self.simplex.m

    @property
    def k(self) -> int:
        return 2 * self.simplex.t


@dataclass(frozen=True)
class GeneratorMatrix:
    rows: np.ndarray  # (k, n), read-only, dtype of the field tables
    provenance: QtCodeSpec

    @property
    def field(self) -> Field:
        return self.provenance.field

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    @property
    def k(self) -> int:
        return self.rows.shape[0]


def _distinct_points(field: Field, cols: np.ndarray) -> bool:
    """No zero column and no two proportional columns in the (k, n) array.

    Each column is scaled by the inverse of its first nonzero entry (q = 2
    needs no scaling), packed into one base-q key (``fields.column_keys``)
    and sorted: the zero column has key 0 and sorts first, and proportional
    columns have equal keys and sort next to each other.  q^k > 2^63 raises
    ParameterError.
    """
    q = field.q
    if q > 2:
        _, mul, _, inv = field.tables
        n = cols.shape[1]
        # flat gathers: np.take on the flat arrays is faster than 2-D fancy indexing
        first = np.take(cols, (cols != 0).argmax(axis=0) * n + np.arange(n))  # cols[argmax, arange]
        cols = np.take(mul, np.take(inv, first).astype(np.intp) * q + cols)  # mul[inv[first], cols]
    keys = np.sort(column_keys(cols, q))
    return bool(keys[0]) and not (keys[1:] == keys[:-1]).any()  # the smallest key is not 0


def is_projective(G: GeneratorMatrix) -> bool:
    """True iff no column of G is zero and no two columns are scalar multiples."""
    return _distinct_points(G.field, G.rows)


def _check_equidistant(s: SimplexSpec) -> None:
    """The t shifts of g span the simplex code: their columns are the m points of PG(t - 1, q)."""
    # row u is x^u g = ext[2m - u : 3m - u]
    if not _distinct_points(s.field, _windows(s._ext[2 * s.m - s.t + 1:], s.m)[::-1]):
        raise VerificationError(
            f"simplex check: the base is degenerate or not equidistant: the columns of the "
            f"{s.t} shifts of g are not the {s.m} points of PG({s.t - 1}, {s.q})"
        )


def simplex_consta(field: Field, t: int, h: Poly | None = None) -> SimplexSpec:
    """Consta-cyclic simplex code for a primitive h of degree t (canonical default)."""
    t = check_integer("dimension t", t)
    if t <= 1:
        raise ParameterError(f"dimension t must be > 1, got {t}")
    if h is None:
        return SimplexSpec(field, t, find_primitive(field, t, limit=1)[0], CONSTA_CYCLIC)
    try:
        return SimplexSpec(field, t, h, CONSTA_CYCLIC)
    except VerificationError:
        raise ParameterError(f"h = {h} is not a monic primitive polynomial of degree {t}") from None


def simplex_cyclic(field: Field, t: int, g: Poly | None = None) -> SimplexSpec:
    """Cyclic simplex code; exists exactly when gcd(t, q - 1) = 1.

    The defining polynomial rescales the canonical primitive h0 of degree t.
    With lam = x^m mod h0 = (-1)^t h0(0) and c the one element of GF(q)* with
    c^t = lam (one, as gcd(t, q - 1) = 1), h(x) = c^(-t) h0(c x), so
    h_j = c^(j-t) h0_j.  A root a of h0 gives the root a/c of h, and
    (a/c)^m = lam / c^m = lam / c^t = 1 as m = t mod (q - 1): h divides
    x^m - 1, and the code sits inside F_q[x]/(x^m - 1).  For q = 2, h = h0.
    A supplied g of degree m - t dividing x^m - 1 replaces that derivation.
    """
    q = field.q
    t = check_integer("dimension t", t)
    if t <= 1:
        raise ParameterError(f"dimension t must be > 1, got {t}")
    if gcd(t, q - 1) != 1:
        raise ParameterError(
            f"no cyclic simplex code for q = {q}, t = {t}: gcd(t, q - 1) = {gcd(t, q - 1)} != 1"
        )
    m = (q**t - 1) // (q - 1)
    _, mul, neg, inv = field.tables
    if g is not None:
        if g.field != field:
            raise ParameterError("g belongs to a different field")
        if g.degree != m - t:
            raise ParameterError(f"g = {g} must have degree m - t = {m - t}")
        check_budget(field.q, t, polynomial.DEFAULT_SEARCH_BOUND,
                     "the simplex base of a supplied g", "residues")
        h, rem = divmod(Poly(field, (neg.item(1),) + (0,) * (m - 1) + (1,)), g)  # x^m - 1
        if not rem.is_zero():
            raise ParameterError(f"g = {g} does not divide x^{m} - 1")
        h = Poly(field, mul[inv[h.lc], h.coeffs].tolist())  # h / lc, monic
        try:
            return SimplexSpec(field, t, h, CYCLIC)
        except VerificationError:
            raise ParameterError(f"g = {g} does not generate a cyclic simplex code "
                                 f"of dimension {t}") from None
    h0 = find_primitive(field, t, limit=1)[0]
    lam = neg.item(h0.coeffs[0]) if t % 2 else h0.coeffs[0]
    c = 1
    for _ in range(pow(t, -1, q - 1)):  # c = lam^(1/t mod (q - 1)), so c^t = lam
        c = mul.item(c, lam)
    coeffs, scale = [], 1
    for a in reversed(h0.coeffs):  # h_j = c^(j-t) h0_j, from j = t down
        coeffs.append(mul.item(scale, a))
        scale = mul.item(scale, inv.item(c))
    return SimplexSpec(field, t, Poly(field, coeffs[::-1]), CYCLIC)


def default_selection(s: SimplexSpec, count: int) -> tuple[tuple[int, int], ...]:
    """First `count` (scale, shift) pairs in canonical order: scale ascending, then shift."""
    m = s.m  # slicing the range clips count as slicing the full pair list would
    return tuple([(1 + c // m, c % m) for c in range((s.q - 1) * m)[:count]])


def check_two_weight(q: int, t: int, p: int, selection=None):
    """Check p and a supplied selection from (q, t) alone, before any base is built.

    p must be in 2..q^t, and a selection must list p - 1 distinct integer
    pairs (i, j), 1 <= i < q and 0 <= j < m; their blocks i x^j g are then
    distinct and nonzero (module docstring), so none is built.  Returns the
    pairs as a tuple, or None when no selection is supplied.
    """
    qt = q**t
    if not 2 <= p <= qt:
        raise ParameterError(f"block count p must be in 2..{qt}, got {p}")
    if selection is None:
        return None
    try:
        # tuple(genexpr) would resize a 10-slot tuple and strand it on a free list per build
        pairs = tuple([(operator.index(i), operator.index(j)) for i, j in selection])
    except TypeError:
        raise ParameterError("selection entries must be pairs of integers") from None
    if len(pairs) != p - 1:
        raise ParameterError(f"selection must list exactly {p - 1} pairs, got {len(pairs)}")
    if len(set(pairs)) != len(pairs):
        raise ParameterError("selection contains duplicate pairs")
    m = (qt - 1) // (q - 1)
    for i, j in pairs:
        if not 1 <= i <= q - 1:
            raise ParameterError(f"scale index must be in 1..{q - 1}, got {i}")
        if not 0 <= j < m:
            raise ParameterError(f"shift must be in 0..{m - 1}, got {j}")
    return pairs


def _assemble_rows(code: QtCodeSpec, shifts: int) -> np.ndarray:
    """Rows u = 0..shifts-1 of the top group, then of the bottom group, as one array.

    The top group has blocks g (and a trailing zero block for qt-simplex),
    the bottom group a zero block, the selected blocks (and a trailing g);
    row u shifts every block by x^u.  With shifts = t these are the generator
    rows; with shifts = m every twistulant block is written out in full.
    Block (a, e) is row (3a + 2) m - e of the base's word table, so both
    groups are one (2, blocks) list of table rows, row u subtracts u from
    each, and all rows are one gather.  Besides the output, the only
    temporary is that 2 x shifts x blocks index: none is output-sized, and
    the table (q x 3m cells) is built on the base's first build and shared
    by every later one.
    """
    s, trailing = code.simplex, code.variant == QT_SIMPLEX
    stride, g, zero = 3 * s.m, 5 * s.m, 2 * s.m  # a x^j g is row a * stride + zero - j
    top = [g] * code.p + [zero] * trailing
    bottom = [zero, *[a * stride + zero - j for a, j in code.selection]] + [g] * trailing
    rows = np.array([top, bottom])[:, None, :] - np.arange(shifts)[:, None]  # (2, shifts, blocks)
    return s._table[rows].reshape(2 * shifts, code.n)


def _finish(code: QtCodeSpec) -> GeneratorMatrix:
    s = code.simplex
    t, m = s.t, s.m
    rows = _assemble_rows(code, t)
    rows.setflags(write=False)
    j1 = code.selection[0][1]  # the minor of the module docstring
    minor = rows[:, [*range(t), *(m + (j1 + v) % m for v in range(t))]]
    if minor[s._lower].any() or not minor.diagonal().all():
        raise VerificationError(f"rank minor: generator matrix does not have full rank {code.k}")
    return GeneratorMatrix(rows=rows, provenance=code)


def build_two_weight(s: SimplexSpec, p: int, selection=None) -> tuple[QtCodeSpec, GeneratorMatrix]:
    """Assemble the two-weight code with p blocks over the given simplex code."""
    p = check_integer("block count p", p)
    pairs = check_two_weight(s.q, s.t, p, selection) or default_selection(s, p - 1)
    code = QtCodeSpec(simplex=s, p=p, selection=pairs, variant=TWO_WEIGHT)
    return code, _finish(code)


def build_qt_simplex(s: SimplexSpec) -> tuple[QtCodeSpec, GeneratorMatrix]:
    """Assemble the dimension-2t simplex code in quasi-twisted form (p forced to q^t)."""
    p = s.q**s.t
    code = QtCodeSpec(simplex=s, p=p, selection=default_selection(s, p - 1), variant=QT_SIMPLEX)
    return code, _finish(code)


def full_block_matrix(code: QtCodeSpec) -> np.ndarray:
    """The unreduced (2m, n) block form: every twistulant block written out in full."""
    return _assemble_rows(code, code.simplex.m)


def points(G: GeneratorMatrix) -> np.ndarray | None:
    """The column-0 keys of the blocks of G's two row groups, (2, blocks), or None.

    The keys are of dtype ``fields.key_dtype(q, t)``.  Rows whose shape or
    entries do not fit the code, a failed sigma check and nonzero top blocks
    that differ give None, not an exception.
    """
    code = G.provenance
    s = code.simplex
    rows, t, q = G.rows, s.t, s.q
    if rows.shape != (2 * t, code.n) or not in_field(rows, q):
        return None
    blocks = column_keys(rows.reshape(2, t, code.n), q).reshape(2, code.block_count, s.m)
    if not (s._pred.take(blocks[..., 1:]) == blocks[..., :-1]).all():
        return None
    starts = blocks[..., 0]
    return None if len(set(starts[0].tolist()) - {0}) > 1 else starts
