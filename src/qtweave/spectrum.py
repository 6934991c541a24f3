"""Exact weight spectra of linear codes over GF(q) by a column-multiplicity transform.

Each column c of a k x n generator is a point of F_q^k, and the codeword of a
message u has weight n - #{columns c : u.c = 0}.  The engine buckets the n
columns into a multiplicity array A[s, c] (s = 0 for every column) and then
takes one step per coordinate: the column coordinate c_j is replaced by the
message coordinate u_j while s tracks the partial inner product,

    A'[s, ..., u_j, ...] = sum over c_j of A[s - u_j c_j, ..., c_j, ...].

After k steps A[s, u] counts the columns with u.c = s, so A[0] holds the
zero count of every message at once.  That costs O(nk + k q^(k+2)) integer
operations instead of an n q^k enumeration, and it is still exact over the
whole message space.  A step gathers the q^(k+2) cells A[s' - u c, c] in one
numpy call and sums them over c, so the number of numpy calls per step is
O(q), not O(q^2), whatever the size of A; the q^(k+1) cells of A and the
gather are alive at once.  When the q^(k+2) cells of the gather exceed the
chunk size, a message prefix of length r is fixed per chunk and seeds s with
its inner product with the first r rows.

A caller may weight the messages by their leading symbol: with multiplicities
M[0..q-1], a message whose first coordinate is u counts M[u] times, and
prefixes whose leading symbol has M[u] = 0 are skipped.  The counts then stand
for q^(k-1) sum(M) messages, which must be a power q^K of q; K is the
dimension reported.  ``analysis`` uses this for the orbit reduction of the
quasi-twisted codes.  Whatever the weights, every computed slice of nonzero
leading symbol must give the same weight histogram: u -> c u is a
weight-preserving bijection between the messages with leading symbol 1 and
those with leading symbol c, for any linear code.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import BudgetExceededError, ParameterError
from .fields import Field

DEFAULT_BUDGET = 1 << 24
_CHUNK_ENTRIES = 1 << 22
_MAX_LENGTH = (1 << 31) - 1  # a cell counts columns and is an int32


@dataclass(frozen=True)
class WeightDistribution:
    n: int
    k: int
    q: int
    counts: dict  # weight -> number of codewords, weight 0 included
    method: str = "transform"  # "orbit" when analysis used the consta-shift reduction

    def nonzero_weights(self) -> tuple[int, ...]:
        return tuple(sorted(w for w, c in self.counts.items() if w > 0 and c > 0))

    def total(self) -> int:
        return sum(self.counts.values())


def _zero_counts(flat: np.ndarray, q: int, steps: int, mul: np.ndarray,
                 minus: np.ndarray) -> np.ndarray:
    """Columns orthogonal to each message, from each column's flat index into A[s, c].

    c runs over the last `steps` coordinates, so A has q^(steps+1) cells.  Each
    step reads the leading column coordinate and writes the message coordinate
    last, so after all steps the axes are back in their original order.
    minus[w] is the permutation s' -> s' - w of the s axis, taken at w = u c.
    A step is one gather g[c, s', u] = A[s' - u c, c] over the rows (s, c) of A,
    q - 1 in-place adds over c and q copies back into A, whatever the size of A.
    Only A and the q^(steps+2)-cell gather are alive; A holds each step's output.
    """
    A = np.bincount(flat, minlength=q ** (steps + 1)).astype(np.int32)
    if steps:  # no q^3 gather index for a plain bincount: it would be 2^24 cells at q = 256
        rest = q ** (steps - 1)
        cs = np.arange(q)
        pick = minus[mul.T[:, None, :], cs[None, :, None]].astype(np.intp) * q + cs[:, None, None]
        g = np.empty((q, q, q, rest), dtype=np.int32)
        acc, out = g[0], A.reshape(q, rest, q)
        for _ in range(steps):
            # pick rows are in range; "clip" skips buffering the output for bounds errors
            np.take(A.reshape(q * q, rest), pick, axis=0, out=g, mode="clip")
            for c in range(1, q):
                acc += g[c]
            for u in range(q):  # q strided copies: one transposing copy runs a q-long inner loop
                out[:, :, u] = acc[:, u]
    return A.reshape(q, -1)[0]


def weight_distribution_of_rows(field: Field, rows, budget: int | None = None,
                                multiplicity=None) -> WeightDistribution:
    """Exact weight counts of the code spanned by the rows of a (k, n) array or list.

    With multiplicity M (one count per leading symbol, module docstring) the
    messages of leading symbol u count M[u] times; by default each counts once.
    """
    try:
        gen = np.asarray(rows)
    except ValueError:
        raise ParameterError("rows have unequal lengths") from None
    if gen.ndim != 2 or not gen.size:
        raise ParameterError("need at least one nonempty row")
    (k, n), q = gen.shape, field.q
    if n > _MAX_LENGTH:
        raise ParameterError(f"length {n} exceeds the 32-bit column counts ({_MAX_LENGTH})")
    # a list, not tuple(map(...)), which would strand a resized tuple on a free list per call
    mult = [1] * q if multiplicity is None else [operator.index(m) for m in multiplicity]
    if len(mult) != q or min(mult) < 0:
        raise ParameterError(f"need {q} nonnegative multiplicities, got {mult}")
    total = q ** (k - 1) * sum(mult)
    dim = k - 1
    while q**dim < total:
        dim += 1
    if q**dim != total:
        raise ParameterError(f"multiplicities {mult} do not total a power of {q}")
    limit = DEFAULT_BUDGET if budget is None else budget
    if total > limit:
        raise BudgetExceededError(
            f"enumeration needs q^k = {total} messages, budget is {limit}",
            required=total,
            budget=limit,
        )
    if gen.dtype.kind not in "iu" or gen.min() < 0 or gen.max() >= q:
        raise ParameterError(f"row entries must be elements of GF({q}), encoded in 0..{q - 1}")
    add, mul, neg, _ = field.tables
    minus = add[:, neg].T  # minus[w, s'] = s' - w
    r = 0
    while r < k and q ** (k - r + 2) > _CHUNK_ENTRIES:  # the gather of _zero_counts
        r += 1
    steps = k - r
    cells = q**steps
    index = np.zeros(n, dtype=np.int64)  # column value over rows r..k-1, row r leading
    for row in gen[r:]:
        index = index * q + row
    hist = np.zeros((q, n + 1), dtype=np.int64)  # weight histogram per leading symbol
    for prefix in product(range(q), repeat=r):
        if prefix and not mult[prefix[0]]:
            continue
        s = np.zeros(n, dtype=add.dtype)
        for u, row in zip(prefix, gen):
            if u:
                s = add[s, mul[u, row]]
        flat = s.astype(np.int64) * cells + index  # table dtypes are too narrow for this
        zeros = _zero_counts(flat, q, steps, mul, minus)
        lead = prefix[:1] or range(q)  # without a prefix, zeros is led by the first symbol
        key = np.array(lead)[:, None] * (n + 1) + (n - zeros.reshape(len(lead), -1))
        hist += np.bincount(key.ravel(), minlength=q * (n + 1)).reshape(q, n + 1)
        del zeros, key  # this chunk's A-sized arrays must not outlive it into the next chunk
    computed = hist[[u for u in range(1, q) if r == 0 or mult[u]]]
    if (computed != computed[:1]).any():
        raise AssertionError("nonzero leading symbols gave different weight histograms")
    weights = np.flatnonzero(hist.any(axis=0))
    counts = np.array(mult, dtype=object) @ hist[:, weights]  # Python ints, however large M is
    result = {int(w): c for w, c in zip(weights, counts) if c}
    if sum(result.values()) != total:
        raise AssertionError("transform lost codewords")
    return WeightDistribution(n=n, k=dim, q=q, counts=result)
