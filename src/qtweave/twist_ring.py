"""The quotient ring F_q[x]/(x^m - lam) and its consta-cyclic shift.

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
