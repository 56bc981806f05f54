"""Empirical stable tail dependence function and the radius over angular grids.

The estimator counts, among the rotated sample rows, how many exceed a
vector of thresholds in at least one coordinate. Evaluating it at the
thresholds that the extrapolation formula gives for each angle yields the
radius rho_hat that scales quantile points along that angular ray.

A row fails to exceed a threshold vector exactly when it is componentwise
<= it, so the count is n minus an offline dominance count. For d = 1 that
count is a binary search in the sorted column. For d = 2 and enough
queries, the thresholds extrapolated from unit angles lie on one monotone
arc: sorted by the first coordinate, the second never rises, up to
rounding. ``_dominated_2d`` clamps the second coordinate of the queries
to its running minimum, counts the clamped chain with one interval per
row, and adds, for each query above its clamp, the rows of the strip
between the two. Infinite and nan thresholds take the same route, a nan
as +inf. On an arc that takes O((n + q) log(n + q)) time and O(n + q)
extra memory. Fewer queries and d >= 3 compare every query with every
row, in O(q n d) time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evt import TailFit, _require_heavy_tails, extrapolate

# Largest number of pairwise comparisons materialized at once by the
# batched counting kernel, two boolean buffers of this many cells, 4 MB;
# and of strip rows gathered at once by the 2-D kernel.
_CHUNK_CELLS = 2_000_000


@dataclass(frozen=True)
class StdfContext:
    """Rotated sample together with the tail fit used to normalize it."""

    rotated_sample: np.ndarray
    fit: TailFit

    def __post_init__(self):
        sample = np.array(self.rotated_sample, dtype=float)
        if sample.ndim == 1:
            sample = sample[:, None]
        sample.flags.writeable = False
        object.__setattr__(self, "rotated_sample", sample)
        n, d = sample.shape
        if n != self.fit.n:
            raise ValueError(f"fit.n={self.fit.n} but sample has {n} rows")
        if d != self.fit.d:
            raise ValueError(f"fit dimension {self.fit.d} but sample has d={d}")

    @property
    def n(self) -> int:
        return self.rotated_sample.shape[0]

    @property
    def d(self) -> int:
        return self.rotated_sample.shape[1]


def union_exceedance_counts(sample: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Count rows exceeding each threshold vector in at least one coordinate.

    ``thresholds`` has shape (q, d); returns integer counts of length q.
    Exceedance is strict, and a nan threshold is never exceeded. One- and
    two-dimensional samples with many queries are counted through sorted
    coordinates, non-finite queries included; other inputs compare every
    query with every row.
    """
    sample = np.asarray(sample, dtype=float)
    thr = np.atleast_2d(np.asarray(thresholds, dtype=float))
    n, d = sample.shape
    q = thr.shape[0]
    if thr.shape[1] != d:
        raise ValueError(f"thresholds have dimension {thr.shape[1]}, sample has {d}")
    # Below these sizes the sorts cost more than the comparisons they save.
    # Measured with numpy 2.4 on a 2-core x86-64 host, sorting breaks even
    # near 8-16 queries for d = 1, and for d = 2 near 64-96 queries along
    # an arc over 256 rows or more: over 5000 rows, 64 queries take 0.23 ms
    # to compare and 0.30 ms sorted, 128 queries 0.45 and 0.30 ms, and over
    # 20 000 rows 3.4 and 2.0 ms. Off an arc the strips widen: 128 random
    # queries over 20 000 rows took 26 ms sorted.
    if d == 1 and q >= 16:
        return n - _count_at_or_below(sample[:, 0], thr[:, 0])[1]
    if d == 2 and q >= 128 and n >= 512:
        return n - _dominated_2d(sample, thr)
    return _exceedances_by_comparison(sample, thr)


def _exceedances_by_comparison(sample: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """Union counts by comparing every query with every row, any d.

    Processes queries in chunks to bound memory for large q * n; the two
    chunk buffers are allocated once and refilled in place.
    """
    n, d = sample.shape
    q = thr.shape[0]
    cols = [np.ascontiguousarray(sample[:, j]) for j in range(d)]
    out = np.empty(q, dtype=np.int64)
    chunk = max(1, min(q, _CHUNK_CELLS // max(n, 1)))
    hit_buf = np.empty((chunk, n), dtype=bool)
    col_buf = np.empty((chunk, n), dtype=bool)
    for s in range(0, q, chunk):
        block = thr[s:s + chunk]
        hit, col_hit = hit_buf[: block.shape[0]], col_buf[: block.shape[0]]
        np.greater(cols[0], block[:, :1], out=hit)
        for j in range(1, d):
            np.greater(cols[j], block[:, j:j + 1], out=col_hit)
            hit |= col_hit
        out[s:s + chunk] = np.count_nonzero(hit, axis=1)
    return out


def _count_at_or_below(col: np.ndarray, t: np.ndarray):
    """The number of values of one sample column at or below each threshold.

    Returns (the thresholds' ascending order, the counts). This is where
    the sorted kernels' tie and nan rules live: a value equal to its
    threshold does not exceed it; a nan value never exceeds anything, so
    it sorts as -inf; a nan threshold is never exceeded, and since nan
    sorts last it counts every row. No sort needs to be stable: equal
    values take contiguous places, and a count takes all of them or none.
    The thresholds are searched in ascending order, which keeps the
    binary searches in cache, and the counts are scattered back.
    """
    col = np.where(np.isnan(col), -np.inf, col)
    col.sort()
    by_t = np.argsort(t)
    found = np.searchsorted(col, t[by_t], side="right")
    counts = np.empty_like(found)
    counts[by_t] = found
    return by_t, counts


def _dominated_2d(cols: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """Rows of the (n, 2) sample ``cols`` at or below each threshold pair.

    Sorted by the first coordinate t1, the (q, 2) queries ``thr`` have
    their second coordinate t2 clamped to its running minimum m, so that
    along them t1 never falls and m never rises. A row x is at or below
    the clamped queries s >= hi in its first coordinate, where
    hi = #{t1 < x1}, and the queries s < lo in its second, where
    lo = #{m >= x2}: exactly the queries hi <= s < lo count it. Since
    hi = q - #{-t1 <= -x1} and lo = #{-m <= -x2}, ``_count_at_or_below``
    gives both under its tie and nan rules, and one difference array,
    summed, gives every clamped count. A query with t2 above its clamp
    also counts its strip, the rows with m < x2 <= t2 and x1 <= t1, which
    two binary searches find in the order of -x2 that the second count
    sorted. A nan t2 is clamped as +inf, which it stands for; a nan t1
    sorts as +inf, and no x1 exceeds it in a strip. On an arc of
    extrapolated thresholds few queries have a strip: where one angle
    component rounds to 1, queries share one coordinate to within ulps
    while the other still varies. There the kernel takes
    O((n + q) log(n + q)) time and O(n + q) extra memory; elsewhere the
    strips add their total length, up to q n.
    """
    q = thr.shape[0]
    by_t1 = np.argsort(thr[:, 0])
    hi = q - _count_at_or_below(-thr[by_t1, 0], -cols[:, 0])[1]
    t2 = thr[by_t1, 1]
    # fmin would skip a nan, which must clamp as the +inf it stands for
    t2[np.isnan(t2)] = np.inf
    neg_m = -np.fmin.accumulate(t2)
    above = np.flatnonzero(t2 > -neg_m)
    neg_t2 = -t2[above]
    del t2
    neg_x2 = -cols[:, 1]
    by_x2, lo = _count_at_or_below(neg_m, neg_x2)
    # a row with lo <= hi is below no query
    np.maximum(lo, hi, out=lo)
    delta = np.bincount(hi, minlength=q + 1) - np.bincount(lo, minlength=q + 1)
    counts = np.cumsum(delta[:q])
    if above.size:
        # strip rows are the places -t2 <= -x2 < -m of -x2's ascending order
        start = np.searchsorted(neg_x2, neg_t2, sorter=by_x2)
        stop = np.searchsorted(neg_x2, neg_m[above], sorter=by_x2)
        counts[above] += _strip_counts(cols[:, 0], by_x2, start, stop,
                                       thr[by_t1[above], 0])
    out = np.empty(q, dtype=np.int64)
    out[by_t1] = counts
    return out


def _strip_counts(x1: np.ndarray, order: np.ndarray, start: np.ndarray,
                  stop: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """#{i in [start, stop) : x1[order[i]] <= t1} for each strip; a nan never exceeds.

    The strips are gathered a chunk at a time, each of at most
    ``_CHUNK_CELLS`` rows unless one strip alone is longer.
    """
    out = np.zeros(start.size, dtype=np.int64)
    length = stop - start
    strips = np.flatnonzero(length)
    ends = np.cumsum(length[strips])
    i = 0
    while i < strips.size:
        base = ends[i] - length[strips[i]]
        j = max(i + 1, int(np.searchsorted(ends, base + _CHUNK_CELLS, side="right")))
        s = strips[i:j]
        first = ends[i:j] - length[s] - base
        # the places of each strip in turn
        at = np.arange(ends[j - 1] - base)
        at += np.repeat(start[s] - first, length[s])
        at = order.take(at)
        x = x1.take(at)
        del at
        exceeds = np.greater(x, np.repeat(t1[s], length[s]))
        del x
        out[s] = length[s] - np.add.reduceat(exceeds, first)
        i = j
    return out


def rho_hat_batch(ctx: StdfContext, thetas) -> tuple[np.ndarray, np.ndarray]:
    """Empirical radius at each unit angle (row) of ``thetas``.

    The count of rows beyond the angle's thresholds over k, floored at 1/k
    when no row exceeds them; returns (values, floored).
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[1] != ctx.d:
        raise ValueError(f"theta dimension {thetas.shape[1]} does not match d={ctx.d}")
    gam = ctx.fit.gamma_marginal
    _require_heavy_tails(gam)
    if (thetas < 0).any():
        raise ValueError("theta components must be non-negative")
    norms = np.linalg.norm(thetas, axis=1)
    if (np.abs(norms - 1.0) > 1e-8).any():
        raise ValueError("theta must have unit Euclidean norm")
    # theta = 0 maps to the finite endpoint b - a/gamma
    thr = extrapolate(thetas, ctx.fit.a, ctx.fit.b, gam)
    counts = union_exceedance_counts(ctx.rotated_sample, thr)
    floored = counts == 0
    values = np.maximum(counts, 1) / ctx.fit.k
    return values, floored

