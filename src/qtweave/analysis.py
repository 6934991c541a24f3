"""Exact verification: weight spectra, Griesmer bound, gap prediction, projectivity.

The weight spectrum of a package code is counted from the points of its
blocks; everything else here is checked against it.  ``construction.points``
proves that the message (a, b) in K^2, K = F_q[x]/(h), gives block j the word
of a b_0j + b b_1j, of weight 0 or q^(t-1), so unless b_0j = b_1j = 0 the
block vanishes on the q^t - 1 nonzero messages over one point
P_j = (-b_1j : b_0j) of PG(1, q^t) (its module docstring).  Each of the
q^t + 1 points P then carries q^t - 1 messages of weight q^(t-1) (live - c(P)),
live counting the blocks not zero in both groups and c(P) those with P_j = P
(Calderbank & Kantor 1986, section 3).  By the column-0 keys that ``points``
hands over, the blocks of nonzero top lie on one point per bottom key and the
rest on (1 : 0), so one Counter over the B = n/m <= n/(q + 1) keys gives every
c(P): O(B) Python steps after the O(t n) numpy pass of sigma.  A generator
that fails sigma can only come from a construction bug: ``points`` raises
VerificationError for it, and no other count runs.

Projectivity follows from the exact spectrum without another pass over the
columns.  The first two Pless power moments (MacWilliams & Sloane, ch. 5)
give the dual counts B_1 and B_2 in O(#weights) Python-int operations, and
the generator is projective exactly when both vanish (``dual_low_counts``).
A projective two-weight code then names a strongly regular graph
(``srg_parameters``).  The column sort of ``is_projective`` stays as the
independent check the tests compare it with.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import construction
# is_projective lives next to the simplex check, which runs its test; it is re-exported
from .construction import GeneratorMatrix, QtCodeSpec, TWO_WEIGHT, is_projective
from .errors import ParameterError, VerificationError, check_budget, check_integer
from .fields import Field, in_field

DEFAULT_BUDGET = 1 << 24


@dataclass(frozen=True)
class WeightDistribution:
    n: int
    k: int
    q: int
    counts: dict  # weight -> number of codewords, weight 0 included

    def nonzero_weights(self) -> tuple[int, ...]:
        return tuple(sorted(w for w, c in self.counts.items() if w > 0 and c > 0))

    def total(self) -> int:
        return sum(self.counts.values())


def weight_distribution_of_rows(field: Field, rows, budget: int | None = None, *,
                                points) -> WeightDistribution:
    """Exact weight counts of the k = 2t rows from the column-0 keys of their blocks.

    points are the (2, blocks) keys that ``construction.points`` returns for
    the rows, and the counts are tallied from the blocks' points (module
    docstring); the rows give k and n alone.
    """
    q = field.q
    k, n = rows.shape
    check_budget(q, k, DEFAULT_BUDGET if budget is None else budget)
    t, blocks = k // 2, points.shape[-1]
    unit, qt = q ** (t - 1), q**t
    if (k % 2 or points.shape != (2, blocks) or n * (q - 1) != blocks * (qt - 1)
            or not in_field(points, qt)):
        raise ParameterError(f"points must be 2 x n/m keys below q^(k/2), got {points.shape}")
    # blocks of nonzero top (one element) lie on a point per bottom key, the rest on (1 : 0)
    per_point = Counter([bottom if top else qt for top, bottom in zip(*points.tolist())
                         if top or bottom])
    live, freq = sum(per_point.values()), Counter(per_point.values())  # c -> points with c blocks
    freq[0] += qt + 1 - len(per_point)  # the points that no block lies on
    counts = Counter({0: 1})  # the zero message, then q^t - 1 messages per point
    counts.update({unit * (live - c): f * (qt - 1) for c, f in freq.items()})
    return WeightDistribution(n, k, q, {w: c for w, c in sorted(counts.items()) if c})


@dataclass(frozen=True)
class TwoWeightVerdict:
    ok: bool
    w1: int
    w2: int
    observed: tuple[int, ...]
    unexpected: tuple[int, ...]
    missing: tuple[int, ...]


@dataclass(frozen=True)
class GriesmerReport:
    n: int
    k: int
    d: int
    q: int
    griesmer_length: int
    gap_observed: int
    i: int
    r: int
    gap_predicted: int
    gap_match: bool
    length_optimal: bool


def weight_distribution(G: GeneratorMatrix, budget: int | None = None) -> WeightDistribution:
    """Exact weight counts of G from its blocks' points; a failed sigma raises VerificationError."""
    return weight_distribution_of_rows(G.field, G.rows, budget=budget,
                                       points=construction.points(G))


def min_distance(W: WeightDistribution) -> int:
    weights = W.nonzero_weights()
    if not weights:
        raise ParameterError("the trivial code has no minimum distance")
    return weights[0]


def verify_two_weight(W: WeightDistribution, code: QtCodeSpec) -> TwoWeightVerdict:
    """Check that the nonzero weights are exactly the two predicted values."""
    if code.variant != TWO_WEIGHT:
        raise ParameterError("two-weight verification applies to the two-weight variant only")
    unit = code.simplex.weight
    w1, w2 = (code.p - 1) * unit, code.p * unit
    observed = W.nonzero_weights()
    expected = {w1, w2}
    unexpected = tuple(w for w in observed if w not in expected)
    missing = tuple(sorted(expected - set(observed)))
    return TwoWeightVerdict(
        ok=not unexpected and not missing,
        w1=w1,
        w2=w2,
        observed=observed,
        unexpected=unexpected,
        missing=missing,
    )


def expected_counts(code: QtCodeSpec) -> tuple[int, int]:
    """Predicted codeword counts at the two weights: (count at w1, count at w2).

    This is a closed-form prediction used as a cross-check target; callers
    must compare it against an actual enumeration rather than trust it.
    """
    if code.variant != TWO_WEIGHT:
        raise ParameterError("count prediction applies to the two-weight variant only")
    qt = code.simplex.q**code.simplex.t
    return code.p * (qt - 1), (qt - code.p + 1) * (qt - 1)


def griesmer_length(k: int, d: int, q: int) -> int:
    """Smallest length allowed by the Griesmer bound for a [n, k, d]_q code."""
    k, d, q = map(check_integer, ("dimension k", "minimum distance d", "field order"), (k, d, q))
    if k < 1 or d < 1 or q < 2:
        raise ParameterError(f"need k >= 1, d >= 1, q >= 2, got ({k}, {d}, {q})")
    return sum((d + q**j - 1) // q**j for j in range(k))


def gap_fn(i: int, t: int, q: int) -> int:
    """Predicted distance of the family from the Griesmer bound, as a function of i."""
    i, t, q = map(check_integer, ("i", "dimension t", "field order"), (i, t, q))
    if t <= 1:
        raise ParameterError(f"t must be > 1, got {t}")
    if not 1 <= i <= q ** (t - 1):
        raise ParameterError(f"i must be in 1..{q ** (t - 1)}, got {i}")
    return sum(-(-i // q ** (j - 1)) - 1 for j in range(1, t + 1))


def decompose_block_count(p: int, t: int, q: int) -> tuple[int, int]:
    """The unique (i, r) with r in 1..q and p = q^t - i*q + r + 1."""
    p, t, q = map(check_integer, ("block count p", "dimension t", "field order"), (p, t, q))
    if not 2 <= p <= q**t + 1:
        raise ParameterError(f"p must be in 2..{q ** t + 1}, got {p}")
    s = q**t + 1 - p
    i = -(-(s + 1) // q)
    r = i * q - s
    return i, r


def griesmer_report(code: QtCodeSpec, W: WeightDistribution) -> GriesmerReport:
    """Compare the code's length with the Griesmer bound and the predicted gap."""
    t, q = code.simplex.t, code.simplex.q
    p_eff = code.block_count
    d = min_distance(W)
    if d != (p_eff - 1) * code.simplex.weight:
        raise VerificationError(
            f"griesmer: minimum distance {d} does not match (p-1)q^(t-1) = "
            f"{(p_eff - 1) * code.simplex.weight}; construction bug"
        )
    k = code.k
    gb = griesmer_length(k, d, q)
    gap_observed = code.n - gb
    i, r = decompose_block_count(p_eff, t, q)
    gap_predicted = gap_fn(i, t, q)
    return GriesmerReport(
        n=code.n,
        k=k,
        d=d,
        q=q,
        griesmer_length=gb,
        gap_observed=gap_observed,
        i=i,
        r=r,
        gap_predicted=gap_predicted,
        gap_match=gap_observed == gap_predicted,
        length_optimal=gap_observed == 0,
    )


def _moment(W: WeightDistribution, power: int) -> int:
    """sum of w^power A_w over q^(k - power), exact; a remainder raises VerificationError."""
    moment = sum(w**power * c for w, c in W.counts.items()) * W.q**power
    scale = W.q**W.k
    if moment % scale:
        raise VerificationError(f"pless moments: power moment {power} of the spectrum is not "
                                f"a multiple of q^(k - {power}) = {W.q}^{W.k - power}")
    return moment // scale


def dual_low_counts(W: WeightDistribution) -> tuple[int, int]:
    """(B_1, B_2), the dual words of weight 1 and 2, from the first two Pless power moments.

    With M = (q - 1) n (MacWilliams & Sloane, ch. 5):
        sum w A_w = q^(k-1) (M - B_1),
        sum w^2 A_w = q^(k-2) (M (M + 1) - (2M - q + 2) B_1 + 2 B_2).
    B_1 is q - 1 per zero column, B_2 q - 1 per pair of proportional nonzero
    columns and (q - 1)^2 per pair of zero columns, so the generator is
    projective exactly when both are 0.  Python ints keep every step exact; a
    spectrum whose moments do not give nonnegative integers raises
    VerificationError.
    """
    q, M = W.q, (W.q - 1) * W.n
    b1 = M - _moment(W, 1)
    twice_b2 = _moment(W, 2) - M * (M + 1) + (2 * M - q + 2) * b1
    if b1 < 0 or twice_b2 < 0 or twice_b2 % 2:
        raise VerificationError(f"pless moments: B_1 = {b1}, 2 B_2 = {twice_b2} are "
                                "not the counts of a dual code")
    return b1, twice_b2 // 2


def mean_weight_identity_holds(W: WeightDistribution) -> bool:
    """Sum of all codeword weights equals n(q-1)q^(k-1): B_1 = 0, no coordinate is always zero."""
    return dual_low_counts(W)[0] == 0


def srg_parameters(W: WeightDistribution) -> tuple[int, int, int, int]:
    """(v, K, lambda, mu) of the strongly regular graph of a projective two-weight code.

    The Cayley graph on GF(q)^k whose connection set is the (q - 1) n nonzero
    multiples of the columns has v = q^k, degree K = (q - 1) n and
    eigenvalues r = K - q w1 and s = K - q w2 of multiplicities A_w1 and A_w2,
    so lambda = K + r + s + r s and mu = K + r s (Delsarte 1972; Calderbank &
    Kantor 1986).  Both SRG identities are checked in exact integers:
    K (K - lambda - 1) = (v - K - 1) mu, and the multiplicity of r from
    (v, K, r, s) equals A_w1; a failure raises VerificationError.
    """
    weights = W.nonzero_weights()
    if len(weights) != 2 or dual_low_counts(W) != (0, 0):
        raise ParameterError("SRG parameters need a projective two-weight code")
    w1, w2 = weights
    v, K = W.q**W.k, (W.q - 1) * W.n
    r, s = K - W.q * w1, K - W.q * w2
    lam, mu = K + r + s + r * s, K + r * s
    if K * (K - lam - 1) != (v - K - 1) * mu or (-s * (v - 1) - K) != W.counts[w1] * (r - s):
        raise VerificationError(f"srg: (v, K, lambda, mu) = {(v, K, lam, mu)} with eigenvalues "
                                f"{r}, {s} is not a strongly regular graph of this spectrum")
    return v, K, lam, mu
