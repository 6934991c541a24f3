"""Dense univariate polynomials over a small finite field.

Coefficients are stored in ascending degree order (least significant
coefficient on the left) as canonical field encodings.  Polynomials are
normalized: the highest stored coefficient is nonzero, and the zero
polynomial stores no coefficients at all (its degree is the sentinel -1).
"""

from __future__ import annotations

from itertools import product

from .errors import BudgetExceededError, ParameterError
from .fields import Field

DEFAULT_SEARCH_BOUND = 1 << 20


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=()):
        cs = [field.check(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def monomial(cls, field, degree, coeff=1):
        return cls(field, (0,) * degree + (coeff,))

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

    def _same_field(self, other):
        if not isinstance(other, Poly) or other.field != self.field:
            raise ParameterError("operands belong to different fields")
        return other

    def __add__(self, other):
        self._same_field(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Poly(f, out)

    def __neg__(self):
        f = self.field
        return Poly(f, tuple(f.neg(c) for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._same_field(other)
        f = self.field
        if self.is_zero() or other.is_zero():
            return Poly.zero(f)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = f.add(out[i + j], f.mul(a, b))
        return Poly(f, out)

    def scale(self, c: int):
        f = self.field
        f.check(c)
        return Poly(f, tuple(f.mul(c, a) for a in self.coeffs))

    def __divmod__(self, other):
        self._same_field(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        db = other.degree
        lead_inv = f.inv(other.lc)
        quot = [0] * max(len(rem) - db, 0)
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            qc = f.mul(c, lead_inv)
            quot[k - db] = qc
            for j, bc in enumerate(other.coeffs):
                rem[k - db + j] = f.sub(rem[k - db + j], f.mul(qc, bc))
        return Poly(f, quot), Poly(f, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            raise ParameterError("cannot normalize the zero polynomial")
        if self.coeffs[-1] == 1:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

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


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    if a.is_zero() and b.is_zero():
        raise ParameterError("gcd of two zero polynomials is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def pow_mod(base: Poly, n: int, h: Poly) -> Poly:
    """base^n reduced modulo h, by square and multiply."""
    if n < 0:
        raise ParameterError("negative exponent")
    result = Poly.one(base.field)
    base = base % h
    while n:
        if n & 1:
            result = (result * base) % h
        base = (base * base) % h
        n >>= 1
    return result


def x_pow_mod(n: int, h: Poly) -> Poly:
    """x^n reduced modulo h."""
    if not h.is_monic() or h.degree < 1:
        raise ParameterError("modulus must be monic of degree >= 1")
    return pow_mod(Poly.x(h.field), n, h)


def is_irreducible(h: Poly) -> bool:
    """True iff h has no nontrivial factor over its field.

    Any factor of degree i divides x^(q^i) - x, so h of degree t is
    irreducible iff gcd(h, x^(q^i) - x) is constant for i = 1 .. t // 2.
    """
    t = h.degree
    if t < 1:
        raise ParameterError("irreducibility is defined for degree >= 1")
    if t == 1:
        return True
    q = h.field.q
    x = Poly.x(h.field)
    r = x % h
    for _ in range(t // 2):
        r = pow_mod(r, q, h)
        if poly_gcd(h, r - x).degree > 0:
            return False
    return True


def _factor_int(n: int):
    """Distinct prime factors by trial division (desk-scale inputs)."""
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


def is_primitive(h: Poly) -> bool:
    """True iff h is irreducible and x has order q^t - 1 in F_q[x]/(h)."""
    if not h.is_monic() or h.degree < 1:
        raise ParameterError("primitivity is defined for monic polynomials of degree >= 1")
    if not is_irreducible(h):
        return False
    if h.coeffs[0] == 0:  # h = x, up to the irreducibility above
        return False
    q, t = h.field.q, h.degree
    n = q**t - 1
    one = Poly.one(h.field)
    if x_pow_mod(n, h) != one:
        return False
    return all(x_pow_mod(n // f, h) != one for f in _factor_int(n))


def find_primitive(field: Field, t: int, limit: int | None = None,
                   bound: int = DEFAULT_SEARCH_BOUND) -> list[Poly]:
    """All monic primitive degree-t polynomials, low-degree-first lexicographic order.

    With limit = N >= 1 only the first N are returned.
    """
    if t < 1:
        raise ParameterError(f"degree must be >= 1, got {t}")
    if limit is not None and limit < 1:
        raise ParameterError(f"limit must be >= 1, got {limit}")
    if field.q**t > bound:
        raise BudgetExceededError(
            f"enumerating degree-{t} polynomials over {field!r} needs "
            f"{field.q ** t} candidates, bound is {bound}",
            required=field.q**t,
            budget=bound,
        )
    found = []
    for tail in product(field.elements(), repeat=t):
        h = Poly(field, tail + (1,))
        if is_primitive(h):
            found.append(h)
            if limit is not None and len(found) >= limit:
                break
    return found


def minimal_polynomial(power: int, h: Poly) -> Poly:
    """Minimal polynomial over GF(q) of b = x^power in the field F_q[x]/(h).

    h must be primitive, so the quotient really is a field.  The result is the
    product of (y - b^(q^s)) over the distinct conjugates of b; its
    coefficients are conjugation-invariant and therefore land in GF(q).
    """
    if power < 1:
        raise ParameterError(f"power must be >= 1, got {power}")
    if not is_primitive(h):
        raise ParameterError(f"{h} is not primitive")
    f = h.field
    q, t = f.q, h.degree
    beta = x_pow_mod(power, h)
    conjugates = [beta]
    c = pow_mod(beta, q, h)
    while c != beta:
        conjugates.append(c)
        c = pow_mod(c, q, h)
        if len(conjugates) > t:
            raise AssertionError("conjugate orbit exceeded the extension degree")
    # Expand the product over (y - conjugate); coefficients live in F_q[x]/(h).
    acc = [Poly.one(f)]
    for c in conjugates:
        neg_c = -c
        nxt = [Poly.zero(f)] * (len(acc) + 1)
        for i, coeff in enumerate(acc):
            nxt[i + 1] = nxt[i + 1] + coeff
            nxt[i] = nxt[i] + (coeff * neg_c) % h
        acc = nxt
    out = []
    for coeff in acc:
        if coeff.degree > 0:
            raise AssertionError("minimal polynomial coefficient outside the base field")
        out.append(coeff.coeffs[0] if coeff.coeffs else 0)
    result = Poly(f, out)
    if not result.is_monic():
        raise AssertionError("minimal polynomial is not monic")
    return result
