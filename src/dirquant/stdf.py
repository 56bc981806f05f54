"""Empirical stable tail dependence function and the scalar radius estimator.

The estimator counts, among the rotated sample rows, how many exceed a
vector of thresholds in at least one coordinate. Evaluating it on the
Frechet-transformed polar argument yields the radius rho_hat that scales
quantile points along each angular ray.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import HeavyTailError
from .evt import TailFit

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


class RhoEstimate(NamedTuple):
    value: float
    floored: bool


def union_exceedance_counts(sample: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Count rows exceeding each threshold vector in at least one coordinate.

    ``thresholds`` has shape (q, d); returns integer counts of length q.
    Processes queries in chunks to bound memory for large q * n; the two
    chunk buffers are allocated once and refilled in place.
    """
    sample = np.asarray(sample, dtype=float)
    thr = np.atleast_2d(np.asarray(thresholds, dtype=float))
    n, d = sample.shape
    q = thr.shape[0]
    if thr.shape[1] != d:
        raise ValueError(f"thresholds have dimension {thr.shape[1]}, sample has {d}")
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


def empirical_neg_log_G(ctx: StdfContext, x) -> float:
    """Empirical -ln G: exceedance count over k at thresholds a*x + b."""
    x = np.asarray(x, dtype=float)
    if x.shape != (ctx.d,):
        raise ValueError(f"expected a {ctx.d}-vector, got shape {x.shape}")
    thr = ctx.fit.a * x + ctx.fit.b
    count = int(union_exceedance_counts(ctx.rotated_sample, thr[None, :])[0])
    return count / ctx.fit.k


def _frechet_args(theta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    # (theta^gamma - 1)/gamma; theta = 0 maps to the finite endpoint -1/gamma.
    return (theta**gamma - 1.0) / gamma


def rho_hat_batch(ctx: StdfContext, thetas) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized rho_hat over rows of ``thetas``; returns (values, floored)."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[1] != ctx.d:
        raise ValueError(f"theta dimension {thetas.shape[1]} does not match d={ctx.d}")
    gam = ctx.fit.gamma_marginal
    if (gam <= 0).any():
        j = int(np.argmax(gam <= 0))
        raise HeavyTailError(
            f"marginal {j} has tail index {gam[j]!r} <= 0; heavy-tail extrapolation "
            "requires positive indexes"
        )
    if (thetas < 0).any():
        raise ValueError("theta components must be non-negative")
    norms = np.linalg.norm(thetas, axis=1)
    if (np.abs(norms - 1.0) > 1e-8).any():
        raise ValueError("theta must have unit Euclidean norm")
    thr = ctx.fit.a * _frechet_args(thetas, gam) + ctx.fit.b
    counts = union_exceedance_counts(ctx.rotated_sample, thr)
    floored = counts == 0
    values = np.maximum(counts, 1) / ctx.fit.k
    return values, floored


def rho_hat(ctx: StdfContext, theta) -> RhoEstimate:
    """Empirical scalar radius at angle theta, floored at 1/k on zero counts."""
    values, floored = rho_hat_batch(ctx, np.asarray(theta, dtype=float)[None, :])
    return RhoEstimate(float(values[0]), bool(floored[0]))
