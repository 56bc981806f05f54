"""Bootstrap selection of the intermediate sequence k = k(n).

Two rounds of bootstrap resamples (sizes m1 = floor(n^(1-eps)) and
m2 = floor(m1^2/n)) locate, per marginal, the k minimizing the averaged
squared deviation of the moment relation M2 = 2 M1^2. The two argmins
and an estimated convergence rate combine into the final k(n).

Resamples are drawn with replacement from the full rotated sample, then
rows with any non-positive component are dropped; a resample retaining
fewer rows than a floor is redrawn from the same stream. Resamples are
drawn and their error curves computed in blocks, one sort per block.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    NonFiniteCorrectionWarning,
    PositivityError,
    ResamplingError,
    SmallSampleWarning,
)
from .evt import log_moment, log_moment_profiles

REDRAW_ATTEMPTS = 100
DEFAULT_MIN_RETAINED = 10
# Floor below which the procedure cannot run at all: the error curve
# needs k = 2, hence at least three positive rows.
HARD_MIN_RETAINED = 3
# Resamples drawn and reduced together. In select_k at n = 5000, b1 = 1000
# a block of 128 peaks at about 6 MiB of traced allocations; all 1000
# resamples at once peak at about 46 MiB.
BLOCK = 128
# Stands in for dropped rows: it sorts below every retained (positive)
# value and its logarithm is finite.
_PAD = np.nextafter(0.0, 1.0)


@dataclass(frozen=True)
class KSelection:
    """Selected k with the per-marginal diagnostics that produced it."""

    k_hat: int
    k_j_m1: Optional[np.ndarray]
    k_j_m2: Optional[np.ndarray]
    pi_j: Optional[np.ndarray]
    m1: int
    m2: int
    epsilon: float
    b1: int
    seed: int
    n: int
    fallback: bool = False

    def __post_init__(self):
        if not (2 <= self.k_hat <= self.n - 1):
            raise ValueError(f"k_hat={self.k_hat} outside [2, n-1] for n={self.n}")
        for name in ("k_j_m1", "k_j_m2", "pi_j"):
            val = getattr(self, name)
            if val is not None:
                arr = np.array(val)
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)

    def to_dict(self) -> dict:
        def listify(a):
            return None if a is None else [x.item() for x in a]

        return {
            "k_hat": int(self.k_hat),
            "k_j_m1": listify(self.k_j_m1),
            "k_j_m2": listify(self.k_j_m2),
            "pi_j": listify(self.pi_j),
            "m1": int(self.m1),
            "m2": int(self.m2),
            "epsilon": float(self.epsilon),
            "b1": int(self.b1),
            "seed": int(self.seed),
            "n": int(self.n),
            "fallback": bool(self.fallback),
        }


def bootstrap_error(sorted_values, k: int) -> float:
    """Squared deviation of the moment relation, (M2 - 2 M1^2)^2, at k."""
    m1 = log_moment(sorted_values, k, 1)
    m2 = log_moment(sorted_values, k, 2)
    return (m2 - 2.0 * m1 * m1) ** 2


def _draw_block(columns: np.ndarray, m: int, seed: int, stage: int, indices,
                min_retained: int):
    """Draw the resamples ``indices`` of one stage, each from its own stream.

    Returns the drawn values by marginal, shape (d, B, m), and the (B, m)
    mask of rows positive in every component. A resample retaining fewer
    than ``min_retained`` rows is redrawn from its stream, up to
    REDRAW_ATTEMPTS draws in all.
    """
    n = columns.shape[1]
    rngs = [np.random.default_rng([seed, stage, idx]) for idx in indices]
    values = columns.take(np.stack([rng.integers(0, n, m) for rng in rngs]), axis=1)
    keep = (values > 0).all(axis=0)
    for i in np.flatnonzero(keep.sum(axis=1) < min_retained):
        for _ in range(REDRAW_ATTEMPTS - 1):
            values[:, i] = columns.take(rngs[i].integers(0, n, m), axis=1)
            keep[i] = (values[:, i] > 0).all(axis=0)
            if keep[i].sum() >= min_retained:
                break
        else:
            raise ResamplingError(
                f"resamples of size {m} kept fewer than {min_retained} positive rows "
                f"in {REDRAW_ATTEMPTS} attempts; too little mass in the positive orthant"
            )
    return values, keep


def _add_error_curves(sums: np.ndarray, counts: np.ndarray, values: np.ndarray,
                      keep: np.ndarray) -> None:
    """Add the error curves of a block of resamples onto the running sums.

    ``values`` (d, B, w) holds B resamples by marginal and ``keep`` (B, w)
    marks their retained rows. A resample retaining r rows contributes
    its error at k = 2, ..., r-1 to ``sums[:, k]`` and ``counts[:, k]``.
    """
    retained = keep.sum(axis=1)
    if retained.min() < 2:
        raise ValueError("need at least two observations")
    width = int(retained.max())
    # Dropped rows sort below every retained one, so each row's top
    # ``retained`` values are its retained rows in order; columns left of
    # the widest resample hold padding only and are cut.
    ordered = np.sort(np.where(keep, values, _PAD), axis=-1)
    m1, m2 = log_moment_profiles(ordered[..., ordered.shape[-1] - width:])
    err = (m2 - 2.0 * m1 * m1) ** 2
    ks = np.arange(width)
    valid = (ks >= 2) & (ks < retained[:, None]) & ~np.isnan(err)
    # Reducing the running sums and the block over the resample axis adds
    # one resample after another, as a loop over resamples would; summing
    # the block first would regroup the additions and change the last bits.
    block = np.concatenate([sums[:, None, :width], np.where(valid, err, 0.0)], axis=1)
    sums[:, :width] = block.sum(axis=1)
    counts[:, :width] += valid.sum(axis=1)


def _argmin_per_marginal(sums: np.ndarray, counts: np.ndarray, b: int) -> np.ndarray:
    """Argmin of the averaged error; k needs backing from at least half the
    resamples to be eligible, and np.argmin breaks ties toward the smallest k."""
    quorum = max(1.0, b / 2.0)
    out = np.empty(sums.shape[0], dtype=np.int64)
    for j in range(sums.shape[0]):
        eligible = counts[j] >= quorum
        if not eligible.any():
            raise ResamplingError("no k value is backed by enough resamples")
        avg = np.where(eligible, sums[j] / np.maximum(counts[j], 1.0), np.inf)
        out[j] = int(np.argmin(avg))
    return out


def optimal_k_from_resamples(resamples) -> np.ndarray:
    """Per-marginal argmin of the error averaged over given retained resamples."""
    resamples = [np.atleast_2d(np.asarray(r, dtype=float)) for r in resamples]
    if not resamples:
        raise ValueError("need at least one resample")
    if any((r <= 0).any() for r in resamples):
        raise PositivityError("profiles require all values positive")
    d = resamples[0].shape[1]
    size = max(r.shape[0] for r in resamples) + 2
    sums = np.zeros((d, size))
    counts = np.zeros((d, size))
    for start in range(0, len(resamples), BLOCK):
        block = resamples[start:start + BLOCK]
        values = np.full((d, len(block), size), _PAD)
        keep = np.zeros((len(block), size), dtype=bool)
        for i, rows in enumerate(block):
            values[:, i, : rows.shape[0]] = rows.T
            keep[i, : rows.shape[0]] = True
        _add_error_curves(sums, counts, values, keep)
    return _argmin_per_marginal(sums, counts, len(resamples))


def optimal_k_for_size(
    rotated_sample,
    m: int,
    b: int,
    seed: int,
    stage: int = 1,
    min_retained: int = DEFAULT_MIN_RETAINED,
) -> np.ndarray:
    """Per-marginal optimal k from b positivity-filtered resamples of size m.

    Each resample owns the RNG stream derived from (seed, stage, index)
    and adds its error curve to the sums in index order, so results do
    not depend on how resamples are grouped into blocks.
    """
    sample = np.atleast_2d(np.asarray(rotated_sample, dtype=float))
    if b < 1:
        raise ValueError(f"need at least one resample, got b={b}")
    columns = np.ascontiguousarray(sample.T)
    d = sample.shape[1]
    sums = np.zeros((d, m + 2))
    counts = np.zeros((d, m + 2))
    for start in range(0, b, BLOCK):
        indices = range(start, min(start + BLOCK, b))
        values, keep = _draw_block(columns, m, seed, stage, indices, min_retained)
        _add_error_curves(sums, counts, values, keep)
    return _argmin_per_marginal(sums, counts, b)


def convergence_rate(k_j_m1: int, m1: int) -> float:
    """Estimated marginal convergence rate, negative for k < m1.

    Reads as log k over twice the log ratio log(k/m1); the rate is the
    exponent pi <= 0 governing how fast the optimal fraction shrinks.
    """
    if not (2 <= k_j_m1 <= m1):
        raise ValueError(f"k={k_j_m1} outside [2, m1={m1}]")
    if k_j_m1 == m1:
        raise ZeroDivisionError("k equal to m1 makes the rate undefined")
    return math.log(k_j_m1) / (2.0 * math.log(k_j_m1) - 2.0 * math.log(m1))


def _positive_fraction(sample: np.ndarray) -> float:
    return float((sample > 0).all(axis=1).mean())


def select_k(
    rotated_sample,
    epsilon: float = 0.25,
    b1: int = 1000,
    seed: int = 0,
) -> KSelection:
    """Full bootstrap selection of k(n) on a pre-rotated sample.

    Falls back to k = floor(sqrt(n)) with a warning for n below
    2000/2^d, where the resample sizes are too small for the two-stage
    procedure to be meaningful.
    """
    sample = np.atleast_2d(np.asarray(rotated_sample, dtype=float))
    n, d = sample.shape
    if not (0.0 < epsilon < 0.5):
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon!r}")
    m1 = int(math.floor(n ** (1.0 - epsilon)))
    m2 = (m1 * m1) // n
    if n < 2000 / 2**d:
        k_hat = int(np.clip(int(math.isqrt(n)), 2, n - 1))
        warnings.warn(
            f"n={n} is too small for the bootstrap selection in dimension {d}; "
            f"falling back to k = floor(sqrt(n)) = {k_hat}",
            SmallSampleWarning,
            stacklevel=2,
        )
        return KSelection(
            k_hat=k_hat, k_j_m1=None, k_j_m2=None, pi_j=None,
            m1=m1, m2=m2, epsilon=epsilon, b1=b1, seed=seed, n=n, fallback=True,
        )
    if m2 < 10:
        raise ValueError(f"m2={m2} below 10; n={n} too small for epsilon={epsilon!r}")

    # The default floor of 10 retained rows applies whenever resamples can
    # realistically reach it; demanding it when the expected retention is
    # lower would reject feasible inputs, so the floor degrades to the hard
    # minimum with a warning.
    frac = _positive_fraction(sample)
    floors = []
    for m in (m1, m2):
        floor = DEFAULT_MIN_RETAINED
        if m * frac < DEFAULT_MIN_RETAINED:
            floor = HARD_MIN_RETAINED
            warnings.warn(
                f"resamples of size {m} are expected to retain only "
                f"{m * frac:.1f} positive rows; lowering the retained-row floor "
                f"to {floor}",
                SmallSampleWarning,
                stacklevel=2,
            )
        floors.append(floor)

    k1 = optimal_k_for_size(sample, m1, b1, seed, stage=1, min_retained=floors[0])
    k2 = optimal_k_for_size(sample, m2, b1, seed, stage=2, min_retained=floors[1])
    pis = np.array([convergence_rate(int(k), m1) for k in k1])
    terms = np.empty(d)
    for j in range(d):
        factor = (1.0 - 1.0 / pis[j]) ** (1.0 / (2.0 * pis[j] - 1.0))
        if not np.isfinite(factor):
            warnings.warn(
                f"marginal {j}: non-finite correction factor; using 1",
                NonFiniteCorrectionWarning,
                stacklevel=2,
            )
            factor = 1.0
        terms[j] = (k1[j] ** 2 / k2[j]) * factor
    k_hat = int(np.clip(round(float(terms.mean())), 2, n - 1))
    return KSelection(
        k_hat=k_hat, k_j_m1=k1, k_j_m2=k2, pi_j=pis,
        m1=m1, m2=m2, epsilon=epsilon, b1=b1, seed=seed, n=n, fallback=False,
    )
