"""Consta-cyclic simplex codes and the 2-generator quasi-twisted codes built on them.

A simplex code here is the [(q^t-1)/(q-1), t, q^(t-1)]_q equidistant code cut
out of F_q[x]/(x^m - lam) by the generator polynomial g = (x^m - lam)/h for a
primitive h of degree t; lam is forced to x^m mod h, which is always a base
field element of multiplicative order q - 1.  Every nonzero codeword is
a_i * x^j * g for a nonzero scalar a_i and a shift j.

Two assembled shapes are supported, both of dimension 2t:

* two-weight: p blocks of width m; the top row group repeats g across all
  blocks, the bottom group has a zero first block followed by p - 1 distinct
  codeword blocks.  Nonzero weights are (p-1)q^(t-1) and p*q^(t-1).
* qt-simplex: the p = q^t extreme plus one trailing block, giving the
  [(q^(2t)-1)/(q-1), 2t, q^(2t-1)]_q simplex in quasi-twisted form.

All constructions verify their claimed invariants (exact divisibility,
equidistance by an exact weight spectrum, full rank) and raise
VerificationError on any failure instead of returning a bad object.

Full rank 2t is checked exactly by elimination over GF(q).  Blocks 0 and 1
form the block-triangular [[G_t, G_t], [0, B_1]], whose diagonal blocks are
the t consta-shifts of nonzero simplex codewords, so for a valid code the
leading k x 2m columns already have rank 2t and the check stops there.  Only
if they fall short are all n columns eliminated, so the verdict stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import ParameterError, VerificationError
from .fields import Field
from .polynomial import Poly, find_primitive, is_primitive, minimal_polynomial, x_pow_mod
from .spectrum import weight_distribution_of_rows
from .twist_ring import RingElement, TwistRing

CONSTA_CYCLIC = "consta-cyclic"
CYCLIC = "cyclic"
TWO_WEIGHT = "two-weight"
QT_SIMPLEX = "qt-simplex"


@dataclass(frozen=True)
class SimplexSpec:
    field: Field
    t: int
    m: int
    lam: int
    h: Poly
    g: Poly
    variant: str
    ring: TwistRing

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def weight(self) -> int:
        return self.q ** (self.t - 1)

    def params(self) -> tuple[int, int, int]:
        return (self.m, self.t, self.weight)


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
    rows: tuple[RingElement, ...]
    row_groups: tuple[int, int]
    block_count: int
    block_width: int
    provenance: QtCodeSpec

    @property
    def field(self) -> Field:
        return self.provenance.field

    @property
    def n(self) -> int:
        return len(self.rows[0])

    @property
    def k(self) -> int:
        return len(self.rows)


def _rank(field: Field, rows) -> int:
    """Rank over GF(q) by Gauss-Jordan elimination on the field's lookup tables.

    Each pivot clears its column in every other row with one gather through
    the mul table and one through the add table.
    """
    add, mul, neg, inv = field.tables
    work = np.array(rows, dtype=add.dtype)
    rank, col = 0, 0
    while rank < len(work):
        live = np.flatnonzero(work[rank:, col:].any(axis=0))
        if live.size == 0:
            break
        col += live[0]
        pivot = rank + np.flatnonzero(work[rank:, col])[0]
        work[[rank, pivot]] = work[[pivot, rank]]
        row = mul[inv[work[rank, col]], work[rank]]
        work = add[work, mul[neg[work[:, col]][:, None], row]]
        work[rank] = row
        rank += 1
    return rank


def _check_equidistant(field: Field, ring: TwistRing, g: Poly, t: int) -> None:
    """The t shifts of g span q^t distinct words, each nonzero one of weight q^(t-1)."""
    gvec = ring.reduce(g)
    rows = [ring.consta_shift(gvec, u) for u in range(t)]
    counts = weight_distribution_of_rows(field, rows).counts
    expected = {0: 1, field.q ** (t - 1): field.q**t - 1}
    if counts != expected:
        raise VerificationError(
            f"simplex code is degenerate or not equidistant: weight counts {counts}, "
            f"expected {expected}"
        )


def _assemble_simplex(field: Field, t: int, h: Poly, variant: str) -> SimplexSpec:
    q = field.q
    m = (q**t - 1) // (q - 1)
    lam_poly = x_pow_mod(m, h)
    if lam_poly.degree > 0:
        raise VerificationError(f"x^{m} mod h does not reduce to a constant for h = {h}")
    lam = lam_poly.coeffs[0] if lam_poly.coeffs else 0
    if variant == CYCLIC:
        if lam != 1:
            raise VerificationError(f"cyclic build produced twist constant {lam}, expected 1")
    elif field.element_order(lam) != q - 1:
        raise VerificationError(f"twist constant {lam} does not have order {q - 1}")
    modulus = Poly.monomial(field, m) - Poly(field, (lam,))
    g, rem = divmod(modulus, h)
    if not rem.is_zero():
        raise VerificationError(f"h = {h} does not divide x^{m} - {lam}")
    if g.degree != m - t:
        raise VerificationError("generator polynomial has the wrong degree")
    ring = TwistRing(field, m, lam)
    _check_equidistant(field, ring, g, t)
    return SimplexSpec(field, t, m, lam, h, g, variant, ring)


def simplex_consta(field: Field, t: int, h: Poly | None = None) -> SimplexSpec:
    """Consta-cyclic simplex code for a primitive h of degree t (canonical default)."""
    if t <= 1:
        raise ParameterError(f"dimension t must be > 1, got {t}")
    if h is None:
        h = find_primitive(field, t, limit=1)[0]
    else:
        if h.field != field:
            raise ParameterError("h belongs to a different field")
        if h.degree != t or not h.is_monic() or not is_primitive(h):
            raise ParameterError(f"h = {h} is not a monic primitive polynomial of degree {t}")
    return _assemble_simplex(field, t, h, CONSTA_CYCLIC)


def simplex_cyclic(field: Field, t: int, g: Poly | None = None) -> SimplexSpec:
    """Cyclic simplex code; exists exactly when gcd(t, q - 1) = 1.

    The defining polynomial is the minimal polynomial of b = a^(q-1) for a
    primitive root a of GF(q^t), so the code sits inside F_q[x]/(x^m - 1).
    Passing g bypasses that derivation and uses the supplied generator
    polynomial directly (it is still fully verified).
    """
    q = field.q
    if t <= 1:
        raise ParameterError(f"dimension t must be > 1, got {t}")
    if gcd(t, q - 1) != 1:
        raise ParameterError(
            f"no cyclic simplex code for q = {q}, t = {t}: gcd(t, q - 1) = {gcd(t, q - 1)} != 1"
        )
    m = (q**t - 1) // (q - 1)
    if g is not None:
        if g.field != field:
            raise ParameterError("g belongs to a different field")
        modulus = Poly.monomial(field, m) - Poly.one(field)
        h, rem = divmod(modulus, g)
        if not rem.is_zero():
            raise ParameterError(f"g = {g} does not divide x^{m} - 1")
        h = h.monic()
    else:
        h0 = find_primitive(field, t, limit=1)[0]
        h = minimal_polynomial(q - 1, h0)
    if h.degree != t:
        raise VerificationError(f"defining polynomial has degree {h.degree}, expected {t}")
    return _assemble_simplex(field, t, h, CYCLIC)


def codeword_poly(s: SimplexSpec, i: int, j: int) -> RingElement:
    """The codeword a_i * x^j * g, with a_i the i-th nonzero element in ascending order."""
    q, m = s.q, s.m
    if not 1 <= i <= q - 1:
        raise ParameterError(f"scale index must be in 1..{q - 1}, got {i}")
    if not 0 <= j < m:
        raise ParameterError(f"shift must be in 0..{m - 1}, got {j}")
    gvec = s.ring.reduce(s.g)
    return s.ring.scale(s.ring.consta_shift(gvec, j), i)


def default_selection(s: SimplexSpec, count: int) -> tuple[tuple[int, int], ...]:
    """First `count` (scale, shift) pairs in canonical order: scale ascending, then shift."""
    pairs = [(i, j) for i in range(1, s.q) for j in range(s.m)]
    return tuple(pairs[:count])


def _validate_selection(s: SimplexSpec, selection, expected_len: int):
    pairs = tuple((int(i), int(j)) for i, j in selection)
    if len(pairs) != expected_len:
        raise ParameterError(f"selection must list exactly {expected_len} pairs, got {len(pairs)}")
    if len(set(pairs)) != len(pairs):
        raise ParameterError("selection contains duplicate pairs")
    blocks = [codeword_poly(s, i, j) for i, j in pairs]
    if len(set(blocks)) != len(blocks) or any(b == s.ring.zero() for b in blocks):
        raise VerificationError("selection induced repeated or zero codeword blocks")
    return pairs, blocks


def _assemble_rows(code: QtCodeSpec, blocks, shifts: int) -> tuple:
    """Rows u = 0..shifts-1 of the top group (x^u g per block) and the bottom group.

    With shifts = t these are the generator rows; with shifts = m every
    twistulant block is written out in full.
    """
    ring = code.simplex.ring
    gvec = ring.reduce(code.simplex.g)
    zero = ring.zero()
    trailing_g = code.variant == QT_SIMPLEX
    rows = []
    for u in range(shifts):
        top = ring.consta_shift(gvec, u) * (len(blocks) + 1)
        rows.append(top + zero if trailing_g else top)
    for u in range(shifts):
        bottom = zero + tuple(c for b in blocks for c in ring.consta_shift(b, u))
        if trailing_g:
            bottom = bottom + ring.consta_shift(gvec, u)
        rows.append(bottom)
    return tuple(rows)


def _finish(code: QtCodeSpec, blocks) -> GeneratorMatrix:
    rows = _assemble_rows(code, blocks, code.simplex.t)
    # rank k on the leading two blocks implies rank k on all columns
    lead = 2 * code.simplex.m
    if (_rank(code.field, [r[:lead] for r in rows]) != code.k
            and _rank(code.field, rows) != code.k):
        raise VerificationError(f"generator matrix does not have full rank {code.k}")
    return GeneratorMatrix(
        rows=rows,
        row_groups=(code.simplex.t, code.simplex.t),
        block_count=code.block_count,
        block_width=code.simplex.m,
        provenance=code,
    )


def build_two_weight(s: SimplexSpec, p: int, selection=None) -> tuple[QtCodeSpec, GeneratorMatrix]:
    """Assemble the two-weight code with p blocks over the given simplex code."""
    qt = s.q**s.t
    if not 2 <= p <= qt:
        raise ParameterError(f"block count p must be in 2..{qt}, got {p}")
    if selection is None:
        selection = default_selection(s, p - 1)
    pairs, blocks = _validate_selection(s, selection, p - 1)
    code = QtCodeSpec(simplex=s, p=p, selection=pairs, variant=TWO_WEIGHT)
    return code, _finish(code, blocks)


def build_qt_simplex(s: SimplexSpec) -> tuple[QtCodeSpec, GeneratorMatrix]:
    """Assemble the dimension-2t simplex code in quasi-twisted form (p forced to q^t)."""
    p = s.q**s.t
    pairs, blocks = _validate_selection(s, default_selection(s, p - 1), p - 1)
    code = QtCodeSpec(simplex=s, p=p, selection=pairs, variant=QT_SIMPLEX)
    return code, _finish(code, blocks)


def full_block_matrix(code: QtCodeSpec) -> list[tuple]:
    """The unreduced 2m-row block form: every twistulant block written out in full."""
    s = code.simplex
    blocks = [codeword_poly(s, i, j) for i, j in code.selection]
    return list(_assemble_rows(code, blocks, s.m))
