"""Empirical stable tail dependence function and the radius over angular grids.

The estimator counts, among the rotated sample rows, how many exceed a
vector of thresholds in at least one coordinate. Evaluating it at the
thresholds that the extrapolation formula gives for each angle yields the
radius rho_hat that scales quantile points along that angular ray.

A row fails to exceed a threshold vector exactly when it is componentwise
<= it, so the count is n minus an offline dominance count. For d <= 2 and
enough queries that count comes from sorted coordinates (a merge-sort tree
for d = 2), in O((n + q) log^2 n) time and O(n + q) memory; otherwise every
query is compared with every row, in O(q n d) time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HeavyTailError
from .evt import TailFit, extrapolate

# Largest number of pairwise comparisons materialized at once by the
# batched counting kernel: two boolean buffers of this many cells, 4 MB.
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
    coordinates; other inputs compare every query with every row.
    """
    sample = np.asarray(sample, dtype=float)
    thr = np.atleast_2d(np.asarray(thresholds, dtype=float))
    n, d = sample.shape
    q = thr.shape[0]
    if thr.shape[1] != d:
        raise ValueError(f"thresholds have dimension {thr.shape[1]}, sample has {d}")
    # Below these sizes the sorts cost more than the comparisons they save.
    # Measured with numpy 2.4 on x86-64, sorting breaks even near 8-16
    # queries for d = 1 and near 512 queries over 512 or more rows for
    # d = 2, and is 1.3-2.3 times faster from 1024 queries on.
    if (d == 1 and q >= 16) or (d == 2 and q >= 1024 and n >= 512):
        return _exceedances_by_sorting(sample, thr)
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


def _exceedances_by_sorting(sample: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """Union counts for d in {1, 2} as n minus a dominance count.

    Rows are sorted by coordinate 1, so the rows with x1 <= t1 form a
    prefix of length p; coordinate 2 is replaced by its stable rank, so
    x2 <= t2 becomes rank < r. The count of prefix rows with rank < r is
    read from a merge-sort tree: level L sorts the ranks within aligned
    blocks of 2^L rows as the keys block * (n + 1) + rank, and a prefix
    is the union of at most one block per level (the set bits of p), each
    counted by one vectorised searchsorted over all queries.
    """
    n, d = sample.shape
    # a nan coordinate never exceeds anything, exactly like -inf; nan
    # thresholds sort above every value, so searchsorted puts them past
    # all rows
    cols = np.where(np.isnan(sample), -np.inf, sample)
    order = np.argsort(cols[:, 0], kind="stable")
    p = np.searchsorted(cols[order, 0], thr[:, 0], side="right")
    if d == 1:
        return n - p
    by_x2 = np.argsort(cols[:, 1], kind="stable")
    r = np.searchsorted(cols[by_x2, 1], thr[:, 1], side="right")
    rank = np.empty(n, dtype=np.int64)
    rank[by_x2] = np.arange(n)
    pos = np.arange(n)
    stride = n + 1
    keys = pos * stride + rank[order]
    dominated = np.zeros(thr.shape[0], dtype=np.int64)
    for level in range(n.bit_length()):
        if level:
            # relabel each pair of sorted half-blocks with their common
            # block; a stable sort merges the two runs
            keys -= ((pos >> (level - 1)) - (pos >> level)) * stride
            keys.sort(kind="stable")
        sel = np.flatnonzero((p >> level) & 1)
        block = (p[sel] >> level) - 1
        below = np.searchsorted(keys, block * stride + r[sel])
        dominated[sel] += below - (block << level)
    return n - dominated


def rho_hat_batch(ctx: StdfContext, thetas) -> tuple[np.ndarray, np.ndarray]:
    """Empirical radius at each unit angle (row) of ``thetas``.

    The count of rows beyond the angle's thresholds over k, floored at 1/k
    when no row exceeds them; returns (values, floored).
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[1] != ctx.d:
        raise ValueError(f"theta dimension {thetas.shape[1]} does not match d={ctx.d}")
    gam = ctx.fit.gamma_marginal
    if (gam <= 0).any():
        j = int(np.argmax(gam <= 0))
        raise HeavyTailError(
            f"marginal {j} has tail index {float(gam[j])!r} <= 0; heavy-tail "
            "extrapolation requires positive indexes"
        )
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

