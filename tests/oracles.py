"""Scalar reference forms of the library's vectorised kernels.

The library keeps one implementation of each step: the radius over a
grid of angles (``rho_hat_batch``), the tail levels of a stack of points
(``tail_levels``) and the bootstrap error curves of a block of resamples.
The tests compare those kernels, one point or one k at a time, against
the forms below.
"""

from typing import NamedTuple, Optional

import numpy as np

from dirquant import (
    Direction,
    RotationMatrix,
    StdfContext,
    TailFit,
    log_moment,
    rho_hat_batch,
    rotate,
    rotation_for,
    tail_levels,
)
from dirquant.stdf import union_exceedance_counts


class RhoEstimate(NamedTuple):
    value: float
    floored: bool


def rho_hat(ctx: StdfContext, theta) -> RhoEstimate:
    """Empirical radius at one angle, floored at 1/k on zero counts."""
    values, floored = rho_hat_batch(ctx, np.asarray(theta, dtype=float)[None, :])
    return RhoEstimate(float(values[0]), bool(floored[0]))


def empirical_neg_log_G(ctx: StdfContext, x) -> float:
    """Empirical -ln G: exceedance count over k at thresholds a*x + b."""
    x = np.asarray(x, dtype=float)
    if x.shape != (ctx.d,):
        raise ValueError(f"expected a {ctx.d}-vector, got shape {x.shape}")
    thr = ctx.fit.a * x + ctx.fit.b
    count = int(union_exceedance_counts(ctx.rotated_sample, thr[None, :])[0])
    return count / ctx.fit.k


def tail_level(ctx: StdfContext, z, u: Direction | RotationMatrix,
               fit: Optional[TailFit] = None) -> float:
    """Level alpha_z at which one point z would lie on the quantile surface."""
    return float(tail_levels(ctx, np.asarray(z, dtype=float)[None, :], u, fit)[0])


def bootstrap_error(sorted_values, k: int) -> float:
    """Squared deviation of the moment relation, (M2 - 2 M1^2)^2, at k."""
    m1 = log_moment(sorted_values, k, 1)
    m2 = log_moment(sorted_values, k, 2)
    return (m2 - 2.0 * m1 * m1) ** 2


def orthant_leq(x, y, u: Direction | RotationMatrix) -> bool:
    """Oriented-orthant order: x precedes y iff R_u (y - x) >= 0 componentwise."""
    r = u if isinstance(u, RotationMatrix) else rotation_for(u)
    diff = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    return bool((rotate(r, diff) >= 0.0).all())
