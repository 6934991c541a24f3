"""The quotient ring F_q[x]/(x^m - lam) and its twistulant matrices.

Ring elements are tuples of exactly m field encodings, ascending degree; the
zero word is a valid element and no normalization is applied.  The reduction
rule is x^m = lam, which realizes the lam-consta-cyclic shift
(a_0, ..., a_{m-1}) -> (lam * a_{m-1}, a_0, ..., a_{m-2}) as multiplication
by x.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError
from .fields import Field
from .polynomial import Poly

RingElement = tuple  # m field encodings, ascending degree


@dataclass(frozen=True)
class TwistRing:
    field: Field
    m: int
    lam: int

    def __post_init__(self):
        if self.m < 1:
            raise ParameterError(f"block length must be >= 1, got {self.m}")
        self.field.check(self.lam)
        if self.lam == 0:
            raise ParameterError("the twist constant must be nonzero")

    def zero(self) -> RingElement:
        return (0,) * self.m

    def one(self) -> RingElement:
        return (1,) + (0,) * (self.m - 1)

    def from_coeffs(self, coeffs) -> RingElement:
        w = tuple(self.field.check(c) for c in coeffs)
        if len(w) != self.m:
            raise ParameterError(f"ring element needs exactly {self.m} coefficients, got {len(w)}")
        return w

    def reduce(self, p: Poly) -> RingElement:
        """Residue of a polynomial modulo x^m - lam, padded to m coefficients."""
        if p.field != self.field:
            raise ParameterError("polynomial belongs to a different field")
        f, m = self.field, self.m
        cs = list(p.coeffs)
        for k in range(len(cs) - 1, m - 1, -1):
            cs[k - m] = f.add(cs[k - m], f.mul(self.lam, cs[k]))
        cs = cs[:m]
        return tuple(cs) + (0,) * (m - len(cs))

    def to_poly(self, w: RingElement) -> Poly:
        return Poly(self.field, w)

    def consta_shift(self, w: RingElement, s: int = 1) -> RingElement:
        """s applications of the one-position shift; equals multiplication by x^s."""
        if s < 0:
            raise ParameterError("shift count must be >= 0")
        f = self.field
        for _ in range(s):
            w = (f.mul(self.lam, w[-1]),) + w[:-1]
        return w

    def scale(self, w: RingElement, c: int) -> RingElement:
        f = self.field
        return tuple(f.mul(c, x) for x in w)

    def mul(self, a: RingElement, b: RingElement) -> RingElement:
        """Product modulo x^m - lam."""
        if len(a) != self.m or len(b) != self.m:
            raise ParameterError("ring mismatch: operands have the wrong length")
        f, m = self.field, self.m
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y:
                    conv[i + j] = f.add(conv[i + j], f.mul(x, y))
        for k in range(2 * m - 2, m - 1, -1):
            conv[k - m] = f.add(conv[k - m], f.mul(self.lam, conv[k]))
        return tuple(conv[:m])


@dataclass(frozen=True)
class TwistulantMatrix:
    """m x m matrix whose row k is the k-fold consta-cyclic shift of row 0."""

    ring: TwistRing
    first_row: RingElement

    def __post_init__(self):
        object.__setattr__(self, "first_row", self.ring.from_coeffs(self.first_row))

    def row(self, k: int) -> RingElement:
        return self.ring.consta_shift(self.first_row, k)

    def rows(self) -> list[RingElement]:
        return [self.row(k) for k in range(self.ring.m)]

    def vec_mul(self, u: RingElement) -> RingElement:
        """u times this matrix by explicit row expansion (not via ring multiplication)."""
        f = self.ring.field
        out = list(self.ring.zero())
        for k, c in enumerate(u):
            if c == 0:
                continue
            row = self.row(k)
            for j, v in enumerate(row):
                out[j] = f.add(out[j], f.mul(c, v))
        return tuple(out)
