"""Multivariate t simulation source and analytical oracle.

The elliptical t family is closed under rotations, its tail index is
1/nu, and its stable tail dependence function has a closed form built
from (d-1)-dimensional t distribution functions. That makes it the
reference model for validating the empirical pipeline: theoretical
radii, normalization sequences and asymptotic quantile points are all
computable to high accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .errors import (
    DegenerateModelError,
    InversionError,
    UnsupportedDimensionError,
)
from .geometry import Direction, RotationMatrix, rotation_for

# Quadrature request for the bivariate t distribution function; the
# documented guarantee is 1e-8 absolute, requested tighter for headroom.
_QUAD_ABS_TOL = 1e-10
_QUAD_REL_TOL = 1e-11


@dataclass(frozen=True)
class TParams:
    """Location, scale matrix and degrees of freedom of a multivariate t."""

    mu: np.ndarray
    sigma: np.ndarray
    nu: float

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float)
        sigma = np.array(self.sigma, dtype=float)
        mu.flags.writeable = False
        sigma.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        d = mu.size
        if sigma.shape != (d, d):
            raise ValueError(f"sigma shape {sigma.shape} does not match mu size {d}")
        if np.abs(sigma - sigma.T).max() > 1e-12:
            raise DegenerateModelError("sigma must be symmetric within 1e-12")
        if np.linalg.eigvalsh(sigma).min() <= 0:
            raise DegenerateModelError("sigma must be positive definite")
        if not self.nu > 0:
            raise ValueError(f"nu must be positive, got {self.nu!r}")

    @property
    def d(self) -> int:
        return self.mu.size

    @property
    def gamma(self) -> float:
        """Implied tail index 1/nu."""
        return 1.0 / self.nu

    def correlation(self) -> np.ndarray:
        scale = np.sqrt(np.diag(self.sigma))
        return self.sigma / np.outer(scale, scale)


def _sqrtm_spd(sigma: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(sigma)
    return (v * np.sqrt(w)) @ v.T


def sample_t(params: TParams, n: int, seed) -> np.ndarray:
    """Draw n rows of the multivariate t via the normal/chi-square mixture.

    Uses the symmetric square root of sigma, so X = mu + sqrt(sigma) N / sqrt(S/nu)
    with N standard normal rows and S chi-square(nu). Reproducible from seed.
    """
    rng = np.random.default_rng(seed)
    root = _sqrtm_spd(params.sigma)
    s = rng.chisquare(params.nu, n)
    normals = rng.standard_normal((n, params.d))
    return params.mu + (normals @ root) / np.sqrt(s / params.nu)[:, None]


def rotate_elliptical(params: TParams, r: RotationMatrix) -> TParams:
    """Parameters of R X for an orthogonal R: (R mu, R sigma R', same nu)."""
    q = r.entries if isinstance(r, RotationMatrix) else np.asarray(r, dtype=float)
    sigma = q @ params.sigma @ q.T
    return TParams(q @ params.mu, 0.5 * (sigma + sigma.T), params.nu)


def fpc_direction(sigma) -> Direction:
    """Unit leading eigenvector of a scale matrix, first component positive."""
    sigma = np.asarray(sigma, dtype=float)
    w, v = np.linalg.eigh(sigma)
    if w[-1] <= 0:
        raise DegenerateModelError("scale matrix has no positive leading eigenvalue")
    if len(w) >= 2 and (w[-1] - w[-2]) / w[-1] < 1e-10:
        raise DegenerateModelError(
            f"leading eigenvalues tie ({w[-1]!r} vs {w[-2]!r}); principal direction undefined"
        )
    lead = v[:, -1]
    if lead[0] < 0:
        lead = -lead
    return Direction(lead / np.linalg.norm(lead))


def _t_pdf_1d(x: float, nu: float) -> float:
    return math.exp(
        math.lgamma((nu + 1.0) / 2.0)
        - math.lgamma(nu / 2.0)
        - 0.5 * math.log(nu * math.pi)
        - (nu + 1.0) / 2.0 * math.log1p(x * x / nu)
    )


def t_cdf_1d(x: float, nu: float) -> float:
    """Univariate t distribution function via the regularized incomplete beta."""
    if math.isnan(x):
        return math.nan
    if math.isinf(x):
        return 1.0 if x > 0 else 0.0
    tail = 0.5 * special.betainc(nu / 2.0, 0.5, nu / (nu + x * x))
    return 1.0 - tail if x >= 0 else float(tail)


def _t_cdf_2d(x1: float, x2: float, r: float, nu: float) -> float:
    if abs(r) >= 1.0:
        raise DegenerateModelError(f"|correlation| = {abs(r)!r} >= 1 is degenerate")
    if math.isinf(x1) and x1 < 0 or math.isinf(x2) and x2 < 0:
        return 0.0
    if math.isinf(x1):
        return t_cdf_1d(x2, nu)
    if math.isinf(x2):
        return t_cdf_1d(x1, nu)
    scale = (nu + 1.0) / (1.0 - r * r)

    def integrand(s: float) -> float:
        arg = (x2 - r * s) * math.sqrt(scale / (nu + s * s))
        return _t_pdf_1d(s, nu) * t_cdf_1d(arg, nu + 1.0)

    value, _ = integrate.quad(
        integrand, -np.inf, x1, epsabs=_QUAD_ABS_TOL, epsrel=_QUAD_REL_TOL, limit=200
    )
    return float(min(max(value, 0.0), 1.0))


def t_cdf(x, corr, nu: float) -> float:
    """Distribution function of a standardized t in dimension 1 or 2.

    Dimension 1 uses the incomplete-beta identity; dimension 2 integrates
    the conditional univariate t over the first coordinate (absolute
    tolerance 1e-8 or better).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    corr = np.atleast_2d(np.asarray(corr, dtype=float))
    d = x.size
    if corr.shape != (d, d):
        raise ValueError(f"correlation shape {corr.shape} does not match point size {d}")
    if d == 1:
        return t_cdf_1d(float(x[0]), nu)
    if d == 2:
        return _t_cdf_2d(float(x[0]), float(x[1]), float(corr[0, 1]), nu)
    raise UnsupportedDimensionError(f"t_cdf supports dimensions 1 and 2, got {d}")


def t_stdf(z, corr, nu: float) -> float:
    """Stable tail dependence function of the t model (dimensions 2 and 3).

    Homogeneous of degree -1 in z; each term pairs a Frechet weight 1/z_j
    with a (d-1)-dimensional t distribution function at df nu+1 evaluated
    on partial-correlation scale.
    """
    z = np.asarray(z, dtype=float)
    corr = np.asarray(corr, dtype=float)
    d = z.size
    if d not in (2, 3):
        raise UnsupportedDimensionError(f"t_stdf supports d in {{2, 3}}, got {d}")
    if (z <= 0).any():
        raise ValueError("z components must be strictly positive")
    off = corr[~np.eye(d, dtype=bool)]
    if (np.abs(off) >= 1.0).any():
        raise DegenerateModelError("comonotone-degenerate correlation |r| >= 1")
    total = 0.0
    for j in range(d):
        others = [i for i in range(d) if i != j]
        args = np.array(
            [
                math.sqrt((nu + 1.0) / (1.0 - corr[i, j] ** 2))
                * ((z[i] / z[j]) ** (1.0 / nu) - corr[i, j])
                for i in others
            ]
        )
        if d == 2:
            term = t_cdf_1d(float(args[0]), nu + 1.0)
        else:
            i, l = others
            partial = (corr[i, l] - corr[i, j] * corr[l, j]) / (
                math.sqrt(1.0 - corr[i, j] ** 2) * math.sqrt(1.0 - corr[l, j] ** 2)
            )
            q = np.array([[1.0, partial], [partial, 1.0]])
            term = t_cdf(args, q, nu + 1.0)
        total += term / z[j]
    return float(total)


def theoretical_rho(theta, params: TParams, u: Direction) -> float:
    """Theoretical scalar radius of the rotated model at interior angle theta."""
    theta = np.asarray(theta, dtype=float)
    if (theta <= 0).any():
        raise ValueError("theta must be interior (all components positive)")
    rotated = rotate_elliptical(params, rotation_for(u))
    return t_stdf(theta, rotated.correlation(), params.nu)


def theoretical_norm_sequences(params: TParams, j: int, t: float):
    """Normalization pair (a_j(t), b_j(t)) for the j-th marginal of the model.

    b_j(t) is the marginal (1 - 1/t)-quantile found by bisecting the
    univariate t distribution function; a_j(t) = gamma * b_j(t), the
    first-order scale of a gamma > 0 tail.
    """
    if not t > 1.0:
        raise ValueError(f"t must exceed 1, got {t!r}")
    loc = float(params.mu[j])
    scale = math.sqrt(float(params.sigma[j, j]))
    target = 1.0 - 1.0 / t

    def cdf(x: float) -> float:
        return t_cdf_1d((x - loc) / scale, params.nu)

    if cdf(0.0) >= target:
        raise ValueError(
            f"marginal quantile at level 1 - 1/{t!r} is not positive; t is too "
            "small for tail normalization"
        )
    lo, hi = 0.0, max(loc, 0.0) + scale
    grow = 0
    while cdf(hi) < target:
        lo, hi = hi, 2.0 * hi + scale
        grow += 1
        if grow > 200:
            raise InversionError("quantile bracket expansion failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10:
            break
    else:
        raise InversionError("quantile bisection did not reach 1e-10 in 200 steps")
    b = 0.5 * (lo + hi)
    return params.gamma * b, b


def asymptotic_quantile(params: TParams, u: Direction, alpha: float, theta, t: float):
    """Asymptotic quantile point of the rotated model along angle theta.

    Returns the point in rotated coordinates built from the theoretical
    radius and normalization sequences at anchor t.
    """
    theta = np.asarray(theta, dtype=float)
    rotated = rotate_elliptical(params, rotation_for(u))
    rho = theoretical_rho(theta, params, u)
    ab = [theoretical_norm_sequences(rotated, j, t) for j in range(params.d)]
    return asymptotic_point(rho, theta, ab, params.gamma, alpha, t)


def asymptotic_point(rho: float, theta, ab, gamma: float, alpha: float, t: float):
    """Asymptotic quantile point from a radius and normalization pairs.

    ``ab`` holds one (a_j(t), b_j(t)) pair per rotated marginal, as
    returned by ``theoretical_norm_sequences``; callers that visit many
    angles at one anchor t compute the pairs once.
    """
    out = np.empty(len(ab))
    for j, (a_j, b_j) in enumerate(ab):
        base = rho * theta[j] / (t * alpha)
        out[j] = a_j * (base**gamma - 1.0) / gamma + b_j
    return out


def relative_error(x_tilde, x_hat) -> float:
    """Euclidean relative error of an estimate against a reference point."""
    ref = np.asarray(x_tilde, dtype=float)
    est = np.asarray(x_hat, dtype=float)
    norm = np.linalg.norm(ref)
    if norm == 0.0:
        raise ValueError("reference point has zero norm")
    return float(np.linalg.norm(ref - est) / norm)
