"""Log-moment statistics, tail fits and the extrapolation formula.

The tail index of each rotated marginal is estimated by the moment
estimator built from the top-k log spacings; the normalization
sequences reuse the same order statistics. All routines assume heavy
tails with positive thresholds; ``fit_tails`` is the one check of a
fit's input on every path from a sample to its TailFit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMomentsError,
    HeavyTailError,
    PositivityError,
    TailDisparityWarning,
    _readonly,
    _sample_columns,
)

# Fewest sample rows that a fit in one direction, or a selection of its k,
# accepts.
MIN_ROWS = 50


@dataclass(frozen=True)
class TailFit:
    """Per-marginal tail indexes and normalization sequences at sample fraction k.

    Accepts any k in [1, n - 1], since a known model's normalization at
    anchor t = n/k (``oracle-t``) needs only t > 1. The moment estimator
    needs k >= 2, and ``fit_tails`` checks that.
    """

    k: int
    gamma_marginal: np.ndarray
    gamma: float
    a: np.ndarray
    b: np.ndarray
    n: int

    def __post_init__(self):
        for name in ("gamma_marginal", "a", "b"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        _check_k(self.n, self.k)
        if (self.b <= 0).any():
            raise PositivityError("thresholds b must be strictly positive")
        if (self.a <= 0).any():
            raise DegenerateMomentsError("scales a must be strictly positive")

    @property
    def d(self) -> int:
        return self.gamma_marginal.size

    def to_dict(self) -> dict:
        return {
            "k": int(self.k),
            "gamma_marginal": [float(g) for g in self.gamma_marginal],
            "gamma": float(self.gamma),
            "a": [float(v) for v in self.a],
            "b": [float(v) for v in self.b],
            "n": int(self.n),
        }


def extrapolate(base, a, b, gamma):
    """Quantile coordinates a expm1(gamma ln base)/gamma + b; base is (d,) or (g, d).

    This is a (base^gamma - 1)/gamma + b without the rounding of base^gamma
    that costs about 1e-16/gamma of relative precision; base 0 maps to the
    endpoint b - a/gamma.
    """
    with np.errstate(divide="ignore"):
        return a * np.expm1(gamma * np.log(base)) / gamma + b


def frechet_weights(x, a, b, gamma):
    """Inverse of ``extrapolate``, exp(log1p(gamma (x - b)/a)/gamma); 0 at or
    below the endpoint b - a/gamma."""
    with np.errstate(divide="ignore"):
        return np.exp(np.log1p(np.maximum(gamma * (x - b) / a, -1.0)) / gamma)


def _require_heavy_tails(gamma: np.ndarray) -> None:
    """Raise HeavyTailError naming the first marginal (from 1) whose tail index
    is not positive; ``extrapolate`` and its inverse need them all positive."""
    if (gamma <= 0).any():
        j = int(np.argmax(gamma <= 0))
        raise HeavyTailError(
            f"marginal {j + 1} has tail index {float(gamma[j])!r} <= 0; heavy-tail "
            "extrapolation requires positive indexes"
        )


def _check_k(n: int, k: int):
    if not (1 <= k <= n - 1):
        raise ValueError(f"k={k} outside [1, n-1] for n={n}")


def log_moment(sorted_values, k: int, r: int) -> float:
    """r-th log-moment statistic of the top k order statistics.

    ``sorted_values`` must be ascending; the statistic averages the
    r-th powers of ln X_{n-i:n} - ln X_{n-k:n} over i = 0, ..., k-1.
    """
    s = np.asarray(sorted_values, dtype=float)
    n = s.size
    _check_k(n, k)
    if r not in (1, 2):
        raise ValueError(f"r must be 1 or 2, got {r}")
    threshold = s[n - 1 - k]
    if threshold <= 0:
        raise PositivityError(
            f"order statistic X_(n-k) = {float(threshold)!r} is not positive; recenter data"
        )
    spacings = np.log(s[n - k:][::-1]) - np.log(threshold)
    return float(np.mean(spacings**r))


def gamma_moment(sorted_values, k: int) -> float:
    """Moment estimator of the extreme value index from the top k spacings."""
    m1 = log_moment(sorted_values, k, 1)
    m2 = log_moment(sorted_values, k, 2)
    if m2 == 0.0:
        raise DegenerateMomentsError("second log-moment is zero; spacings degenerate")
    ratio = m1 * m1 / m2
    if ratio == 1.0:
        raise DegenerateMomentsError("squared first moment equals second moment")
    return m1 + 1.0 - 0.5 / (1.0 - ratio)


def joint_gamma(gammas) -> float:
    """Pool marginal tail-index estimates into one joint value (arithmetic mean)."""
    g = np.asarray(gammas, dtype=float)
    if g.size == 0:
        raise ValueError("no marginal estimates to pool")
    if not np.isfinite(g).all():
        raise DegenerateMomentsError("non-finite marginal tail-index estimate")
    return float(np.mean(g))


def norm_sequences(sorted_values, k: int, gamma_j: float):
    """Scale and location normalization (a, b) at sample fraction k."""
    s = np.asarray(sorted_values, dtype=float)
    _check_k(s.size, k)
    b = float(s[s.size - 1 - k])
    if b <= 0:
        raise PositivityError(f"threshold {b!r} is not positive; recenter data")
    m1 = log_moment(s, k, 1)
    if m1 == 0.0:
        raise DegenerateMomentsError("first log-moment is zero; degenerate scale")
    a = b * m1 * max(1.0, 1.0 - gamma_j)
    return a, b


def _descending_logs(sorted_values: np.ndarray) -> np.ndarray:
    """Logs of ascending ``sorted_values``, descending along the last axis.

    np.log takes its SIMD loop on contiguous input and its scalar loop on
    a reversed view, and on AVX-512 hosts the two differ in the last bit;
    the reversed flat view keeps every sample on the scalar loop, so each
    row matches a one-dimensional ``np.log(s[::-1])`` exactly.
    """
    s = sorted_values
    logs = np.log(s.ravel()[::-1]).reshape(s.shape)
    return logs[(slice(None, None, -1),) * (s.ndim - 1)]


def _profiles_from_logs(logs: np.ndarray, m1: np.ndarray, m2: np.ndarray,
                        term: np.ndarray):
    """M1 and M2 at k = 1, ..., n-1, at index k-1 of the last axis, from
    the logs of descending values, written into ``m1`` and ``m2``.

    ``term`` is scratch of the same shape. M2 is c2/k - 2 thr mean1 +
    thr^2, evaluated left to right; mean1 is built in ``m1`` and becomes
    M1 = mean1 - thr last. Returns ``m1`` and ``m2``.
    """
    ks = np.arange(1, logs.shape[-1], dtype=float)
    head, thr = logs[..., :-1], logs[..., 1:]
    mean1 = np.cumsum(head, axis=-1, out=m1)
    mean1 /= ks
    np.multiply(head, head, out=term)
    np.cumsum(term, axis=-1, out=m2)
    m2 /= ks
    np.multiply(2.0, thr, out=term)
    term *= mean1
    m2 -= term
    np.multiply(thr, thr, out=term)
    m2 += term
    np.subtract(mean1, thr, out=m1)
    return m1, m2


def fit_tails(rotated_sample, k: int) -> TailFit:
    """Fit marginal tail indexes and normalization sequences on a rotated sample.

    Checks, in order: finite cells, k in [1, n - 1], X_(n-k) > 0 in every
    marginal, k >= 2. A 1-D sample is one marginal.
    """
    sample = _sample_columns(rotated_sample)
    n, d = sample.shape
    _check_k(n, k)
    # the estimators read only the top k + 1 order statistics, X_(n-k) first
    top = np.partition(sample.T, n - k - 1, axis=1)[:, n - k - 1:]
    bad = np.flatnonzero(top[:, 0] <= 0)
    if bad.size:
        med = np.median(sample, axis=0)
        raise PositivityError(
            f"rotated marginals {(bad + 1).tolist()} have non-positive upper order "
            f"statistics at k={k}; recenter the data first (for instance subtract "
            f"the componentwise median {np.round(med, 6).tolist()})"
        )
    if k < 2:
        raise ValueError(f"k={k} too small: the moment estimator needs k >= 2")
    top.sort(axis=1)
    gammas = np.empty(d)
    a = np.empty(d)
    b = np.empty(d)
    for j in range(d):
        s = top[j]
        try:
            gammas[j] = gamma_moment(s, k)
            a[j], b[j] = norm_sequences(s, k, gammas[j])
        except DegenerateMomentsError as exc:
            raise DegenerateMomentsError(f"marginal {j + 1}: {exc}") from exc
    spread = gammas.max() - gammas.min()
    mean_g = gammas.mean()
    if d >= 2 and spread > 0.5 * mean_g:
        warnings.warn(
            f"marginal tail indexes differ widely (spread {spread:.3g} vs mean "
            f"{mean_g:.3g}); equal-index assumption may be violated",
            TailDisparityWarning,
            stacklevel=2,
        )
    return TailFit(k=k, gamma_marginal=gammas, gamma=joint_gamma(gammas), a=a, b=b, n=n)
