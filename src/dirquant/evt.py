"""Log-moment statistics, tail fits and the extrapolation formula.

The tail index of each rotated marginal is estimated by the moment
estimator built from the top-k log spacings; the normalization
sequences reuse the same order statistics. All routines assume heavy
tails with positive thresholds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMomentsError,
    PositivityError,
    TailDisparityWarning,
)


@dataclass(frozen=True)
class TailFit:
    """Per-marginal tail indexes and normalization sequences at sample fraction k."""

    k: int
    gamma_marginal: np.ndarray
    gamma: float
    a: np.ndarray
    b: np.ndarray
    n: int

    def __post_init__(self):
        for name in ("gamma_marginal", "a", "b"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (2 <= self.k <= self.n - 1):
            raise ValueError(f"k={self.k} outside [2, n-1] for n={self.n}")
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
    """Quantile coordinates a (base^gamma - 1)/gamma + b; base is (d,) or (g, d)."""
    return a * (base**gamma - 1.0) / gamma + b


def frechet_weights(x, a, b, gamma):
    """Inverse of ``extrapolate``; 0 at or below the endpoint b - a/gamma."""
    return np.maximum(0.0, 1.0 + gamma * (x - b) / a) ** (1.0 / gamma)


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
            f"order statistic X_(n-k) = {threshold!r} is not positive; recenter data"
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


def _profiles_from_logs(logs: np.ndarray):
    """M1 and M2 at k = 1, ..., n-1, at index k-1 of the last axis, from
    the logs of descending values.

    M2 is c2/k - 2 thr mean1 + thr^2, evaluated left to right; the
    in-place steps keep that order and save a temporary each.
    """
    ks = np.arange(1, logs.shape[-1], dtype=float)
    head, thr = logs[..., :-1], logs[..., 1:]
    mean1 = np.cumsum(head, axis=-1)
    mean1 /= ks
    m1 = mean1 - thr
    m2 = np.cumsum(head * head, axis=-1)
    m2 /= ks
    term = 2.0 * thr
    term *= mean1
    m2 -= term
    np.multiply(thr, thr, out=term)
    m2 += term
    return m1, m2


def fit_tails(rotated_sample, k: int) -> TailFit:
    """Fit marginal tail indexes and normalization sequences on a rotated sample."""
    sample = np.asarray(rotated_sample, dtype=float)
    if sample.ndim == 1:
        sample = sample[:, None]
    n, d = sample.shape
    _check_k(n, k)
    if k < 2:
        raise ValueError(f"k={k} too small: the moment estimator needs k >= 2")
    sorted_marginals = np.sort(sample.T, axis=1, kind="stable")
    gammas = np.empty(d)
    a = np.empty(d)
    b = np.empty(d)
    for j in range(d):
        s = sorted_marginals[j]
        try:
            gammas[j] = gamma_moment(s, k)
            a[j], b[j] = norm_sequences(s, k, gammas[j])
        except (PositivityError, DegenerateMomentsError) as exc:
            raise type(exc)(f"marginal {j}: {exc}") from exc
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
