"""Exact verification: weight spectra, Griesmer bound, gap prediction, projectivity.

Weight spectra come from the column-multiplicity transform in ``spectrum``;
everything else here is checked against those spectra.  For a generator of
this package the transform runs over t + 1 rows instead of 2t, by the orbit
reduction below; any other generator gets the full transform over all q^k
messages, and ``WeightDistribution.method`` says which one ran.

The blockwise lam-consta-shift sigma maps the word of x^u g to that of
x^(u+1) g in every block.  When it maps top row u to row u + 1 for u < t - 1
and row t - 1 to -sum h_u row u, and the bottom group likewise, sigma sends
the codeword of the message pair (a, b), read as elements of F_q[x]/(h), to
that of (x a, x b), and keeps its weight, as it only shifts and scales by
lam != 0.  By the simplex check (the corollary in the ``construction``
module docstring), x and the nonzero scalars move each pair with a != 0 to
exactly one pair (1, v).  The spectrum is therefore one transform over the
rows [top row 0; bottom group]: the pairs (0, v), counted once, and (1, v),
counted q^t - 1 times.  The three proof obligations are sigma on the rows,
checked here on every call (the full transform runs if it fails); the
simplex check, certified once per base; and the total q^(2t), which the
engine checks on every call, along with the slices of leading symbol
2..q-1 repeating the histogram of slice 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


def _shift_invariant(G: GeneratorMatrix) -> bool:
    """Whether sigma maps each row group of G as x does (module docstring).

    Rows whose shape or entries do not fit the code are refused, not raised on.
    """
    code = G.provenance
    s = code.simplex
    rows, t = np.asarray(G.rows), s.t
    if (rows.shape != (2 * t, code.n) or rows.dtype.kind not in "iu" or not s.lam
            or rows.min() < 0 or rows.max() >= s.q):
        return False
    add, mul, neg, _ = s.field.tables
    view = rows.reshape(2, t, code.block_count, s.m)
    # np.take on 1-D table rows and on the flat add table is faster than
    # 2-D fancy indexing; the flat index is widened first, as q (q - 1) can overflow the dtype
    shifted = np.concatenate([np.take(mul[s.lam], view[..., -1:]), view[..., :-1]], axis=-1)
    coeffs = neg[list(s.h.coeffs[:-1])]
    terms = [np.take(mul[coeffs[u]], view[:, u]) for u in np.flatnonzero(coeffs)]  # -h_u row u
    wrap = terms[0]
    for term in terms[1:]:
        wrap = np.take(add, wrap.astype(np.intp) * s.q + term)  # add[wrap, term]
    return bool((shifted[:, :-1] == view[:, 1:]).all() and (shifted[:, -1] == wrap).all())


def weight_distribution(G: GeneratorMatrix, budget: int | None = None) -> WeightDistribution:
    """Exact weight counts of G: the orbit reduction when sigma holds, else the full transform."""
    if _shift_invariant(G):
        q, t = G.field.q, G.provenance.simplex.t
        W = weight_distribution_of_rows(G.field, np.asarray(G.rows)[[0, *range(t, 2 * t)]],
                                        budget=budget,
                                        multiplicity=(1, q**t - 1) + (0,) * (q - 2))
        return replace(W, method="orbit")
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
    p_eff = code.block_count
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
    n = cols.shape[1]
    # flat gathers, as in _shift_invariant
    first = np.take(cols, nonzero.argmax(axis=0) * n + np.arange(n))  # cols[argmax, arange]
    row = np.take(inv, first).astype(np.intp) * G.field.q  # where row inv[first] starts
    canon = np.take(mul, row + cols)  # mul[inv[first], cols]
    canon = np.take(canon, np.lexsort(canon), axis=1)  # C order keeps the column test fast
    return not (canon[:, 1:] == canon[:, :-1]).all(axis=0).any()


def mean_weight_identity_holds(W: WeightDistribution) -> bool:
    """Sum of all codeword weights equals n(q-1)q^(k-1); holds when no coordinate is identically zero."""
    lhs = sum(w * c for w, c in W.counts.items())
    return lhs == W.n * (W.q - 1) * W.q ** (W.k - 1)
