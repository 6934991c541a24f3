"""Exact verification: weight spectra, Griesmer bound, gap prediction, projectivity.

Weight spectra come from a column-multiplicity transform, or from the points
of a package code's blocks; everything else here is checked against them.
Each column c of a k x n generator is a point of F_q^k, and the codeword of a
message u has weight n - #{columns c : u.c = 0}.  The transform buckets the
n columns into a multiplicity array A[s, c] (s = 0 for every column) and then
takes one step per coordinate: the column coordinate c_j is replaced by the
message coordinate u_j while s tracks the partial inner product,

    A'[s, ..., u_j, ...] = sum over c_j of A[s - u_j c_j, ..., c_j, ...].

After k steps A[s, u] counts the columns with u.c = s, so A[0] holds the
zero count of every message at once.  That costs O(nk + k q^(k+2)) integer
operations instead of an n q^k enumeration, and it is still exact over the
whole message space.  A step gathers the q^(k+2) cells A[s' - u c, c] in one
np.take by a q^3 index built from the field's tables once per call
(``_step_index``), sums them over c by q - 1 in-place adds and copies the sum
back into A, message coordinate last, by q strided copies.  A, the gather and
the sum are alive at once.  No benchmark workload runs the transform: every
code of this package takes the points count below.

When the q^(k+2) cells of the gather exceed the chunk size, a message prefix
of length r is fixed per chunk and seeds s with its inner product with the
first r rows.  When that leaves one step or none (always for one row, and
for q > 45, where q^4 cells exceed the chunk), all rows but the last are
fixed per chunk and the last row a is swept whole: column j is orthogonal
to the message (prefix, u) exactly when s_j + u a_j = 0, that is for
u = -s_j / a_j alone when a_j != 0 and for every u when a_j = s_j = 0.  One
bincount over the columns then gives the zero counts of the chunk's q
messages in O(n + q) cells, where one step would gather q^3.  So a step
index is built only over fields with q <= 45, at most 0.6 MiB.

The histograms are tallied over the zero counts that occur, not over q (n + 1)
cells: each chunk's zero counts z, keyed z q + u by their leading symbol u,
are sorted once and counted run by run into one dict of exact Python ints
over all chunks, which is split into (z, u) once per distinct key at the end.
A zero count outside 0..n would be read as a weight of no codeword, so the
ends of each chunk's sorted keys are checked before they are counted, and
such a count raises VerificationError.  Every slice of nonzero leading
symbol must give the same weight histogram: u -> c u is a weight-preserving
bijection between the messages with leading symbol 1 and those with leading
symbol c, for any linear code.

A generator of this package whose consta-shift holds needs no transform.
``construction.points`` proves that the message (a, b) in K^2,
K = F_q[x]/(h), gives block j the word of a b_0j + b b_1j, of weight 0 or
q^(t-1), so unless b_0j = b_1j = 0 the block vanishes on the q^t - 1 nonzero
messages over one point P_j = (-b_1j : b_0j) of PG(1, q^t) (its module
docstring).  Each of the q^t + 1 points P then carries q^t - 1 messages of
weight q^(t-1) (live - c(P)), live counting the blocks not zero in both
groups and c(P) those with P_j = P (Calderbank & Kantor 1986, section 3).
By the column-0 keys that ``points`` hands over, the blocks of nonzero top
lie on one point per bottom key and the rest on (1 : 0), so one Counter over
the B = n/m <= n/(q + 1) keys gives every c(P): O(B) Python steps after the
O(t n) numpy pass of sigma, and ``WeightDistribution.method`` is "points".
Any other generator gets the full transform over all q^k messages, "transform".

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
from itertools import product

import numpy as np

from . import construction
# is_projective lives next to the simplex check, which runs its test; it is re-exported
from .construction import GeneratorMatrix, QtCodeSpec, TWO_WEIGHT, is_projective
from .errors import ParameterError, VerificationError, check_budget
from .fields import Field, column_keys, in_field

DEFAULT_BUDGET = 1 << 24
_CHUNK_ENTRIES = 1 << 22
_MAX_LENGTH = (1 << 31) - 1  # a cell counts columns and is an int32


@dataclass(frozen=True)
class WeightDistribution:
    n: int
    k: int
    q: int
    counts: dict  # weight -> number of codewords, weight 0 included
    method: str = "transform"  # "points" when tallied from the blocks' points

    def nonzero_weights(self) -> tuple[int, ...]:
        return tuple(sorted(w for w, c in self.counts.items() if w > 0 and c > 0))

    def total(self) -> int:
        return sum(self.counts.values())


def _step_index(field: Field) -> np.ndarray:
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
    (module docstring); no benchmark workload runs it.  Only A, the
    q^(steps+2)-cell gather and the sum are alive.
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


def weight_distribution_of_rows(field: Field, rows, budget: int | None = None, *,
                                points=None) -> WeightDistribution:
    """Exact weight counts of the code spanned by the rows of a (k, n) array or list.

    points, when given, are the (2, blocks) column-0 keys that
    ``construction.points`` returns for the rows: the counts are tallied from
    the blocks' points (module docstring), and the rows give k and n alone.
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
    if points is not None:
        return _point_counts(q, k, n, np.asarray(points))
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


def _point_counts(q: int, k: int, n: int, points: np.ndarray) -> WeightDistribution:
    """The counts of k = 2t rows from the column-0 keys of their blocks (module docstring)."""
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
    return WeightDistribution(n, k, q, {w: c for w, c in sorted(counts.items()) if c}, "points")


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
    """Exact weight counts of G: its blocks' points when sigma holds, else the full transform."""
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
