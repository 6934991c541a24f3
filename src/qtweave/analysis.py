"""Exact verification: weight spectra, Griesmer bound, gap prediction, projectivity.

Weight spectra come from the column-multiplicity transform in ``spectrum``,
which is exact over all q^k messages; everything else here is checked against
those spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construction import GeneratorMatrix, QtCodeSpec, TWO_WEIGHT
from .errors import ParameterError, VerificationError
# The engine lives in its own module so that construction can verify simplex
# codes with it without importing this one; its public names are re-exported.
from .spectrum import DEFAULT_BUDGET, WeightDistribution, weight_distribution_of_rows


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
    return weight_distribution_of_rows(G.field, G.rows, budget=budget)


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
    if k < 1 or d < 1 or q < 2:
        raise ParameterError(f"need k >= 1, d >= 1, q >= 2, got ({k}, {d}, {q})")
    return sum((d + q**j - 1) // q**j for j in range(k))


def gap_fn(i: int, t: int, q: int) -> int:
    """Predicted distance of the family from the Griesmer bound, as a function of i."""
    if t <= 1:
        raise ParameterError(f"t must be > 1, got {t}")
    if not 1 <= i <= q ** (t - 1):
        raise ParameterError(f"i must be in 1..{q ** (t - 1)}, got {i}")
    return sum(-(-i // q ** (j - 1)) - 1 for j in range(1, t + 1))


def decompose_block_count(p: int, t: int, q: int) -> tuple[int, int]:
    """The unique (i, r) with r in 1..q and p = q^t - i*q + r + 1."""
    if not 2 <= p <= q**t + 1:
        raise ParameterError(f"p must be in 2..{q ** t + 1}, got {p}")
    s = q**t + 1 - p
    i = -(-(s + 1) // q)
    r = i * q - s
    return i, r


def griesmer_report(code: QtCodeSpec, W: WeightDistribution) -> GriesmerReport:
    """Compare the code's length with the Griesmer bound and the predicted gap."""
    t, q = code.simplex.t, code.simplex.q
    p_eff = code.p if code.variant == TWO_WEIGHT else code.p + 1
    d = min_distance(W)
    if d != (p_eff - 1) * code.simplex.weight:
        raise VerificationError(
            f"minimum distance {d} does not match (p-1)q^(t-1) = "
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


def is_projective(G: GeneratorMatrix) -> bool:
    """True iff no column is zero and no two columns are scalar multiples.

    Each column is scaled by the inverse of its first nonzero entry; the
    canonical columns are sorted lexicographically and neighbours compared.
    """
    _, mul, _, inv = G.field.tables
    cols = G.rows  # k x n: column j is cols[:, j]
    nonzero = cols != 0
    if not nonzero.any(axis=0).all():
        return False
    first = cols[nonzero.argmax(axis=0), np.arange(cols.shape[1])]
    canon = mul[inv[first], cols]
    canon = canon[:, np.lexsort(canon)]
    return not (canon[:, 1:] == canon[:, :-1]).all(axis=0).any()


def mean_weight_identity_holds(W: WeightDistribution) -> bool:
    """Sum of all codeword weights equals n(q-1)q^(k-1); holds when no coordinate is identically zero."""
    lhs = sum(w * c for w, c in W.counts.items())
    return lhs == W.n * (W.q - 1) * W.q ** (W.k - 1)
