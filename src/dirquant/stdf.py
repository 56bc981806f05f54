"""Empirical stable tail dependence function and the radius over angular grids.

The estimator counts, among the rotated sample rows, how many exceed a
vector of thresholds in at least one coordinate. Evaluating it at the
thresholds that the extrapolation formula gives for each angle yields the
radius rho_hat that scales quantile points along that angular ray.

A row fails to exceed a threshold vector exactly when it is componentwise
<= it, so the count is n minus an offline dominance count. For d = 1 that
count is a binary search in the sorted column. For d = 2 and enough
queries, the thresholds extrapolated from unit angles lie on one monotone
arc: sorted by the first coordinate, the second never rises. Such a chain
of queries is counted with one interval per row (``_dominated_chain``), in
O((n + q) log(n + q)) time. The few queries off the chain, such as rounding
violators of the arc or non-finite thresholds, go to a block table in rank
space (``_dominated_2d``) when there are 128 or more of them, in
O(n log n + q (log n + sqrt n)) time. Both take O(n + q) extra memory.
Otherwise every query is compared with every row, in O(q n d) time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evt import TailFit, _require_heavy_tails, extrapolate

# Largest number of pairwise comparisons materialized at once by the
# batched counting kernel: two boolean buffers of this many cells, 4 MB.
_CHUNK_CELLS = 2_000_000

# Query-by-offset cells of one chunk of _dominated_2d's residual strips:
# its int32 buffer stays below 128 KiB, glibc's smallest mmap threshold,
# so each call reuses heap memory instead of faulting in fresh pages.
_STRIP_CELLS = 32_000


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
    coordinates; other inputs compare every query with every row. In 2-D,
    the finite queries that form a chain (first coordinate rising, second
    falling) take the interval kernel; the rest take the block table from
    128 of them on and the comparison below that.
    """
    sample = np.asarray(sample, dtype=float)
    thr = np.atleast_2d(np.asarray(thresholds, dtype=float))
    n, d = sample.shape
    q = thr.shape[0]
    if thr.shape[1] != d:
        raise ValueError(f"thresholds have dimension {thr.shape[1]}, sample has {d}")
    # Below these sizes the sorts cost more than the comparisons they save.
    # Measured with numpy 2.4 on a 2-core x86-64 host, sorting breaks even
    # near 8-16 queries for d = 1, and for d = 2 near 64-128 queries over
    # 512 rows or more: over 5000 rows, 64 queries take 0.45 ms to compare
    # and 0.65 ms to sort, 256 queries 1.75 ms and 0.48 ms. The 2-D
    # kernel's ranks are int32.
    if d == 1 and q >= 16:
        return n - _count_at_or_below(sample[:, 0], thr[:, 0])[1]
    if d == 2 and q >= 128 and 512 <= n < 2**31:
        chain, rest = _threshold_chain(thr)
        out = np.empty(q, dtype=np.int64)
        out[chain] = n - _dominated_chain(sample, thr.take(chain, axis=0))
        if rest.size >= 128:
            out[rest] = n - _dominated_2d(sample, thr.take(rest, axis=0))
        elif rest.size:
            out[rest] = _exceedances_by_comparison(sample, thr.take(rest, axis=0))
        return out
    return _exceedances_by_comparison(sample, thr)


def _threshold_chain(thr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of a chain among the (q, 2) thresholds, in chain order, and of the rest.

    The finite queries sorted by their first coordinate are on the chain
    when their second coordinate is a running minimum, so along the chain
    the first coordinate never falls and the second never rises. On an arc
    of extrapolated thresholds that is every query but a few whose
    coordinates rounded the other way.
    """
    finite = np.flatnonzero(np.isfinite(thr[:, 0]) & np.isfinite(thr[:, 1]))
    by_t1 = finite[np.argsort(thr[finite, 0])]
    t2 = thr[by_t1, 1]
    record = t2 == np.fmin.accumulate(t2)
    off_chain = np.ones(thr.shape[0], dtype=bool)
    off_chain[by_t1[record]] = False
    return by_t1[record], np.flatnonzero(off_chain)


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


def _count_at_or_below(col: np.ndarray, t: np.ndarray, order: bool = False):
    """The number of values of one sample column at or below each threshold.

    Returns (the column's ascending order or None, the counts). This is
    where the sorted kernels' tie and nan rules live: a value equal to its
    threshold does not exceed it; a nan value never exceeds anything, so
    it sorts as -inf; a nan threshold is never exceeded, and since nan
    sorts last it counts every row. No sort needs to be stable: equal
    values take contiguous places, and a count takes all of them or none.
    The thresholds are searched in ascending order, which keeps the
    binary searches in cache, and the counts are scattered back.
    """
    col = np.where(np.isnan(col), -np.inf, col)
    idx = None
    if order:
        idx = np.argsort(col)
        col = col[idx]
    else:
        col.sort()
    by_t = np.argsort(t)
    counts = np.empty(t.size, dtype=np.int64)
    counts[by_t] = np.searchsorted(col, t[by_t], side="right")
    return idx, counts


def _dominated_chain(cols: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """Rows of the (n, 2) sample ``cols`` at or below each threshold pair of a chain.

    Along the (c, 2) ``chain`` the first coordinate never falls and the
    second never rises. So a row x is at or below the queries s >= hi in
    its first coordinate, where hi = #{t1 < x1}, and the queries s < lo in
    its second, where lo = #{t2 >= x2}: exactly the queries hi <= s < lo
    count it. Since hi = c - #{-t1 <= -x1} and lo = #{-t2 <= -x2},
    ``_count_at_or_below`` gives both, with the negated chain as its column
    and the negated sample as its thresholds, under its tie and nan rules:
    a nan sample value, which never exceeds anything, is at or below every
    query. One difference array over the chain, summed, gives every count
    in O((n + c) log(n + c)) time and O(n + c) extra memory.
    """
    c = chain.shape[0]
    hi = c - _count_at_or_below(-chain[:, 0], -cols[:, 0])[1]
    lo = _count_at_or_below(-chain[:, 1], -cols[:, 1])[1]
    # a row with lo <= hi is below no query of the chain
    np.maximum(lo, hi, out=lo)
    delta = np.bincount(hi, minlength=c + 1)
    delta -= np.bincount(lo, minlength=c + 1)
    return np.cumsum(delta[:c])


def _block_size(n: int) -> int:
    """Side s of the position and rank blocks of ``_dominated_2d``."""
    return max(1, math.isqrt(n) // 2)


def _dominated_2d(cols: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """Rows of the (n, 2) sample ``cols`` at or below each threshold pair.

    Rows sorted by coordinate 1 give each query a prefix length p, and
    coordinate-2 ranks a rank bound r; its count is #{pos < p, rank < r}.
    Positions and ranks are cut into blocks of s, about sqrt(n)/2. A
    cumulative (n/s + 1)^2 table answers the aligned part, pos < s*(p//s)
    and rank < s*(r//s). Two strips of fewer than s rows complete it: the
    partial position block, checked on rank, and the partial rank block,
    checked on position. That is O(n log n + q (log n + s)) time, and the
    strips run over fixed-size query chunks, so extra memory is O(n + q).
    """
    n = cols.shape[0]
    q = thr.shape[0]
    by_x1, p = _count_at_or_below(cols[:, 0], thr[:, 0], order=True)
    by_x2, r = _count_at_or_below(cols[:, 1], thr[:, 1], order=True)
    p, r = p.astype(np.int32), r.astype(np.int32)
    s = _block_size(n)
    nb = n // s + 1
    # rank_at[pos] is the rank of the row at a position and pos_at[rank]
    # the position of the row of a rank, both padded to nb blocks of s
    rank = np.empty(n, dtype=np.int32)
    rank[by_x2] = np.arange(n, dtype=np.int32)
    rank_at = np.zeros(nb * s, dtype=np.int32)
    rank_at[:n] = rank[by_x1]
    # freed before the table's int64 counts, the kernel's largest array
    del by_x1, by_x2, rank
    pos_at = np.zeros(nb * s, dtype=np.int32)
    pos_at[rank_at[:n]] = np.arange(n, dtype=np.int32)
    # table[a, b] = #{pos < a s, rank < b s}
    cells = np.bincount(np.arange(n, dtype=np.int32) // s * nb + rank_at[:n] // s,
                        minlength=nb * nb)
    cells = cells.reshape(nb, nb)
    np.cumsum(cells, axis=0, out=cells)
    table = np.zeros((nb + 1, nb + 1), dtype=np.int32)
    inner = table[1:, 1:]
    inner[...] = cells
    del cells
    np.cumsum(inner, axis=1, out=inner)
    p_blk, p_rem = np.divmod(p, s)
    r_blk, r_rem = np.divmod(r, s)
    out = table[p_blk, r_blk].astype(np.int64)
    # the strips: positions p_blk s + j and ranks r_blk s + j for j < s;
    # a float32 product with ones counts each query's hits, exactly, since
    # no count reaches 2^24
    rank_blocks = rank_at.reshape(nb, s)
    pos_blocks = pos_at.reshape(nb, s)
    p_low = p_blk * s
    step = np.arange(s, dtype=np.int32)
    ones = np.ones(s, dtype=np.float32)
    chunk = max(1, min(q, _STRIP_CELLS // s))
    val_buf = np.empty((chunk, s), dtype=np.int32)
    hit_buf = np.empty((chunk, s), dtype=bool)
    in_buf = np.empty((chunk, s), dtype=bool)
    f32_buf = np.empty((chunk, s), dtype=np.float32)
    for c in range(0, q, chunk):
        sl = slice(c, c + chunk)
        m = min(chunk, q - c)
        val, hit, inside, hit32 = val_buf[:m], hit_buf[:m], in_buf[:m], f32_buf[:m]
        # positions below p in p's block, counted where their rank is below r
        np.take(rank_blocks, p_blk[sl], axis=0, out=val, mode="clip")
        np.less(val, r[sl, None], out=hit)
        np.less(step, p_rem[sl, None], out=inside)
        np.logical_and(hit, inside, out=hit32)
        found = hit32 @ ones
        # ranks below r in r's block, counted where their position is below
        # p's block
        np.take(pos_blocks, r_blk[sl], axis=0, out=val, mode="clip")
        np.less(val, p_low[sl, None], out=hit)
        np.less(step, r_rem[sl, None], out=inside)
        np.logical_and(hit, inside, out=hit32)
        found += hit32 @ ones
        out[sl] += found.astype(np.int64)
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

