"""Multivariate t simulation source and analytical oracle.

The elliptical t family is closed under rotations, its tail index is
1/nu, and its stable tail dependence function has a closed form built
from (d-1)-dimensional t distribution functions. That makes it the
reference model for validating the empirical pipeline: theoretical
radii, normalization sequences and asymptotic quantile points are all
computable to high accuracy.

Bivariate t distribution functions (the three-dimensional stable tail
dependence function needs three per angle, at df nu + 1) come from one
of two vectorised kernels. For integer df up to 1000, which includes the
paper's 3-D model (nu = 4, df 5), the closed form of Dunnett and Sobel
(1954) is evaluated as in Genz's BVTL routine (2004): a finite series of
df/2 or (df-1)/2 recurrence steps over every argument at once, with
absolute error below 4e-15 against 30-digit mpmath values up to df 2000.
Other df take a quadrature: the outer coordinate is mapped onto a finite
angle, the range is split at the kink of the inner t distribution
function, and a tanh-sinh rule (Takahasi and Mori, 1974) is applied to
each part, with every node of every angle in one ``special.stdtr`` call
per block. Its step is 1/20 (141 nodes) up to df 40 and (1/20) sqrt(40/df)
above it, where the integrand's peak narrows as 1/sqrt(df). Against
30-digit mpmath values (|r| <= 0.99, |x| <= 1e3) its absolute error is
below 2e-13 for df from 1 to 40 and 1e-12 down to df 0.7; at x1 = 1e3 it
is 7e-14 at df 48.5, 5e-14 at df 64.5, 3e-14 at df 100.5 and 8e-14 at df
400.5, where the fixed 141-node rule was off by 1e-11, 5e-9, 5e-6 and
1e-3. Normalization sequences use the inverse t distribution function
``special.stdtrit``. The functions that call ``scipy.special`` import it
themselves, so that the commands which never reach them start without
loading scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModelError, InversionError, UnsupportedDimensionError, _readonly
from .evt import extrapolate
from .geometry import Direction, RotationMatrix, rotation_for


@dataclass(frozen=True)
class TParams:
    """Location, scale matrix and degrees of freedom of a multivariate t."""

    mu: np.ndarray
    sigma: np.ndarray
    nu: float

    def __post_init__(self):
        mu, sigma = _readonly(self.mu), _readonly(self.sigma)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        d = mu.size
        if sigma.shape != (d, d):
            raise ValueError(f"sigma shape {sigma.shape} does not match mu size {d}")
        for name, values in (("mu", mu), ("sigma", sigma)):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                # 1-based; sigma's components row-major, as --sigma lists them
                raise DegenerateModelError(f"{name} component {bad[0] + 1} is not finite "
                                           f"(value {float(values.flat[bad[0]])!r})")
        if not math.isfinite(self.nu):
            raise DegenerateModelError(f"nu is not finite (value {float(self.nu)!r})")
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
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
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
            f"leading eigenvalues tie ({float(w[-1])!r} vs {float(w[-2])!r}); "
            "principal direction undefined"
        )
    lead = v[:, -1]
    if lead[0] < 0:
        lead = -lead
    return Direction(lead / np.linalg.norm(lead))


def _tanh_sinh_rule(step: float, t_max: float):
    """Tanh-sinh nodes and weights on [0, 1] (Takahasi and Mori, 1974).

    Node k sits at s_k = (1 + tanh(pi/2 sinh(k step))) / 2 for |k step| <=
    t_max, computed so that nodes next to 0 keep full relative precision:
    there sin(psi)^(nu-1) is singular for nu < 1.
    """
    t = np.arange(-round(t_max / step), round(t_max / step) + 1) * step
    u = 0.5 * np.pi * np.sinh(t)
    s = 1.0 / (1.0 + np.exp(-2.0 * u))
    w = step * 0.25 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    return s, w


# The rule's step up to df _TS_FLAT_DF and its range in t: 141 nodes per
# part. Against 40-digit mpmath values at 504 points (nu from 0.7 to 30,
# |r| <= 0.99, |x| up to 1e3) its largest absolute error was 7e-13 at
# nu = 0.7, 7e-14 at nu = 1 and 4e-16 for nu >= 2. Other points give
# 1.1e-12 at nu = 0.7 and 1.5e-13 at nu = 1 (|x| = 1e3, |r| = 0.99).
# t_stdf calls it with a non-integer nu + 1 > 1.
_TS_STEP = 1.0 / 20.0
_TS_T_MAX = 3.5
# Above this df the density factor sin(psi)^(nu-1) narrows as 1/sqrt(nu),
# and the step shrinks with it: step (1/20) sqrt(40/nu) (see _t2_cdf_rule).
_TS_FLAT_DF = 40.0
# Nodes whose weight (density factor included) lies below this are not
# evaluated: the t distribution function they multiply is at most 1, so
# together they add less than 3e-17.
_NEGLIGIBLE_WEIGHT = 1e-19
# Distribution functions times nodes per part in one block: 2048 functions
# of the 141-node rule. It bounds the node temporaries to a few megabytes.
_BLOCK_NODES = 2048 * 141
# Largest integer df that takes the closed form. Its cost grows with df
# (df/2 recurrence steps), the quadrature's with sqrt(df) above df 40.
# Best of 7 on a 2-core x86-64 host: at 192 arguments (the three
# distribution functions of 64 angles) the closed form took 0.05 ms at
# df 4-5, 0.47 ms at df 256 and 1.7 ms at df 1000; at 3267 arguments,
# 7.6 ms at df 1000. The quadrature took 6-8 ms at 192 arguments up to
# df 40, and best of 5 at df 999.5 took 33 ms at 192 arguments and
# 0.55 s at 3267. A single argument at df 1000 takes 1.5 ms in the
# closed form. Against 30-digit mpmath values the closed form's absolute
# error stayed below 4e-15 up to df 2000; the quadrature's was 9e-18,
# 8e-17 and 4e-15 at df 128, 256 and 1000 (x = (22.57, -2.26),
# r = -0.146). The cap bounds the cost of one call to a few ms.
_CLOSED_FORM_MAX_DF = 1000
# Arguments are clipped to this magnitude in the closed form, so that
# their squares and pairwise products stay finite. The t mass beyond it
# is below 1e-150 for any df >= 1.
_CLOSED_FORM_CLIP = 1e150


def _t2_cdf(x1, x2, r, nu: float) -> np.ndarray:
    """Bivariate standard t distribution function for arrays of arguments.

    x1, x2 and r broadcast together (|r| < 1); nu is one positive degree
    of freedom. An integer nu up to ``_CLOSED_FORM_MAX_DF`` takes the
    closed form of ``_t2_cdf_closed``; any other nu takes the quadrature
    below. With s = sqrt(nu) tan(psi - pi/2), the integral of the
    density over (-inf, x1] becomes

        int_0^psi_hi c sin^(nu-1)(psi) T_{nu+1}(k (x2 sin psi + r sqrt(nu) cos psi)) dpsi

    with psi_hi = atan2(sqrt(nu), -x1), c = 1 / B(nu/2, 1/2) and
    k = sqrt((nu+1) / (nu (1-r^2))). The range is split where the inner
    argument changes sign, each part gets the tanh-sinh rule, and every
    node of every argument goes through one ``special.stdtr`` call per
    block. The one-dimensional integral over the conditional t
    distribution function is the one Genz (2004) evaluates. An infinite
    argument reduces the value to the univariate t distribution function
    of the other one.
    """
    from scipy import special

    x1, x2, r = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (x1, x2, r)))
    out = np.asarray(np.minimum(special.stdtr(nu, x1), special.stdtr(nu, x2)))
    finite = np.isfinite(x1) & np.isfinite(x2)
    a1, a2, ar = x1[finite], x2[finite], r[finite]
    if float(nu).is_integer() and nu <= _CLOSED_FORM_MAX_DF:
        out[finite] = _t2_cdf_closed(a1, a2, ar, int(nu))
        return out
    values = np.empty(a1.shape)
    block = _BLOCK_NODES // _t2_cdf_rule(nu)[0].size
    for lo in range(0, a1.size, block):
        part = slice(lo, lo + block)
        values[part] = _t2_cdf_block(a1[part], a2[part], ar[part], nu)
    out[finite] = values
    return out


def _t2_cdf_closed(x1, x2, r, nu: int) -> np.ndarray:
    """Bivariate t distribution function at an integer nu, in closed form.

    Dunnett and Sobel (1954) write it as a leading angle plus a finite
    series; Genz's BVTL routine (2004) evaluates it as here. Each step
    adds, for each coordinate h with partner k, a factor of the t density
    at h times 1 + sign(k - r h) I, where I is a regularized incomplete
    beta function of xn = (k - r h)^2 / ((k - r h)^2 + (1 - r^2)(nu + h^2)),
    and advances both by recurrence: nu/2 steps for even nu, (nu-1)/2 for
    odd nu. sign(0) is +1, as Fortran SIGN gives. Three rearrangements
    keep the absolute error near rounding for large arguments: 1 - xn
    comes from its own fraction, 1 + sign I is carried as one number, and
    the odd-nu leading angle is the sum of the angles of its three
    complex factors, so it needs no wrap into [0, 2 pi). Rows of the
    (2, n) arrays below are the two coordinates.
    """
    x = np.clip(np.stack([x1, x2]), -_CLOSED_FORM_CLIP, _CLOSED_FORM_CLIP)
    h, k = x
    ors = (1.0 - r) * (1.0 + r)
    dev = x[::-1] - r * x
    dev2 = dev * dev
    rest = ors * (nu + x * x)
    xn, yn = dev2 / (dev2 + rest), rest / (dev2 + rest)
    root_xn, root_yn = np.sqrt(xn), np.sqrt(yn)
    positive = dev >= 0.0
    sign = np.where(positive, 1.0, -1.0)
    decay = nu / (nu + x * x)
    total = np.zeros_like(x)
    if nu % 2 == 0:
        base = np.arctan2(np.sqrt(ors), -r) / (2.0 * np.pi)
        density = x / np.sqrt(16.0 * (nu + x * x))
        # I = (2/pi) atan(sqrt(xn / yn)), and 1 - I swaps the arguments
        beta = np.where(positive, 1.0 + (2.0 / np.pi) * np.arctan2(root_xn, root_yn),
                        (2.0 / np.pi) * np.arctan2(root_yn, root_xn))
        step = sign * (2.0 / np.pi) * root_xn * root_yn
        for j in range(1, nu // 2 + 1):
            total += density * beta
            beta += step
            step *= yn * (2.0 * j / (2.0 * j + 1.0))
            density *= decay * ((2.0 * j - 1.0) / (2.0 * j))
    else:
        root_nu = math.sqrt(nu)
        q = np.sqrt(h * h + k * k - 2.0 * r * h * k + nu * ors)
        angles = np.arctan2(root_nu, x).sum(axis=0) + np.arctan2(root_nu * q, h * k + r * nu)
        base = 1.0 - angles / (2.0 * np.pi)
        density = x * decay / (2.0 * np.pi * root_nu)
        # I = sqrt(xn), and 1 - I = yn / (1 + sqrt(xn))
        beta = np.where(positive, 1.0 + root_xn, yn / (1.0 + root_xn))
        step = sign * root_xn
        for j in range(1, (nu - 1) // 2 + 1):
            total += density * beta
            step *= yn * ((2.0 * j - 1.0) / (2.0 * j))
            beta += step
            density *= decay * (2.0 * j / (2.0 * j + 1.0))
    return np.clip(base + total[0] + total[1], 0.0, 1.0)


def _t2_cdf_rule(nu: float):
    """The tanh-sinh nodes and weights of the quadrature at df nu.

    The step is (1/20) min(1, sqrt(40/nu)), so every df up to 40 shares
    the 141-node rule, and above it the nodes follow the density factor's
    width. The step never falls below the one at which a single argument's
    nodes fill a block, which it reaches near df 1.7e8.
    """
    step = _TS_STEP * min(1.0, math.sqrt(_TS_FLAT_DF / nu))
    return _tanh_sinh_rule(max(step, _TS_T_MAX / (_BLOCK_NODES // 2 - 1)), _TS_T_MAX)


def _t2_cdf_block(x1, x2, r, nu: float) -> np.ndarray:
    from scipy import special

    ts_s, ts_w = _t2_cdf_rule(nu)
    root_nu = math.sqrt(nu)
    x2, r = x2[:, None, None], r[:, None, None]
    hi = np.arctan2(root_nu, -x1)[:, None, None]
    # the inner argument x2 sin(psi) + r sqrt(nu) cos(psi) has one zero in [0, pi)
    cut = np.minimum(np.mod(np.arctan2(r * root_nu, -x2), np.pi), hi)
    start = np.concatenate([np.zeros_like(cut), cut], axis=1)    # parts [0, cut], [cut, hi]
    length = np.concatenate([cut, hi - cut], axis=1)
    psi = start + length * ts_s
    sin_psi = np.sin(psi)
    with np.errstate(divide="ignore", invalid="ignore"):
        # sin(psi)^(nu-1) is infinite at psi = 0 for nu < 1, where the
        # part has zero length
        weight = (length * ts_w) * sin_psi ** (nu - 1.0) / special.beta(0.5 * nu, 0.5)
    keep = weight > _NEGLIGIBLE_WEIGHT
    k = np.sqrt((nu + 1.0) / (nu * (1.0 - r) * (1.0 + r)))
    arg = k * (x2 * sin_psi + r * root_nu * np.cos(psi))
    terms = np.zeros(weight.shape)
    terms[keep] = weight[keep] * special.stdtr(nu + 1.0, arg[keep])
    return np.clip(terms.reshape(len(x1), -1).sum(axis=1), 0.0, 1.0)


def t_cdf(x, corr, nu: float) -> float:
    """Distribution function of a standardized t in dimension 1 or 2.

    Dimension 1 is ``special.stdtr``. Dimension 2 goes through
    ``_t2_cdf``: for an integer nu up to 1000 it is the closed form of
    Dunnett and Sobel (1954), with absolute error below 4e-15; any other
    nu takes a tanh-sinh rule, 141 nodes up to nu = 40 and more above
    it, whose absolute error is below 2e-13 for nu from 1 to 40 and below
    1e-12 down to nu = 0.7, and was measured at 3e-14 to 8e-14 for nu
    from 48.5 to 400.5 at |x| = 1e3. Near nu = 1000 it has an error floor
    of about 3.5e-13 that lies outside the step (3.5e-13 at x = (3, 3),
    r = 0.6, nu = 999.5, whatever the step).
    """
    from scipy import special

    x = np.atleast_1d(np.asarray(x, dtype=float))
    corr = np.atleast_2d(np.asarray(corr, dtype=float))
    d = x.size
    if corr.shape != (d, d):
        raise ValueError(f"correlation shape {corr.shape} does not match point size {d}")
    if d == 1:
        return float(special.stdtr(nu, x[0]))
    if d == 2:
        r = float(corr[0, 1])
        if abs(r) >= 1.0:
            raise DegenerateModelError(f"|correlation| = {abs(r)!r} >= 1 is degenerate")
        return float(_t2_cdf(x[0], x[1], r, nu))
    raise UnsupportedDimensionError(f"t_cdf supports dimensions 1 and 2, got {d}")


def t_stdf(z, corr, nu: float):
    """Stable tail dependence function of the t model (dimensions 2 and 3).

    Homogeneous of degree -1 in z; each term pairs a Frechet weight 1/z_j
    with a (d-1)-dimensional t distribution function at df nu+1 evaluated
    on partial-correlation scale. ``z`` is one point (d,), for which a
    float is returned, or a stack (g, d), for which an array of g values
    is returned; each row equals the single-point value bit for bit. In
    dimension 3 all bivariate t distribution functions of the stack go
    through one vectorised evaluation (see ``t_cdf``): the closed form
    when nu + 1 is an integer up to 1000, as for the paper's models,
    with absolute error per term below 4e-15, and otherwise the
    tanh-sinh rule, below 2e-13 for nu + 1 from 1 to 40 and refined
    above it (see ``t_cdf``).
    """
    from scipy import special

    z = np.asarray(z, dtype=float)
    corr = np.asarray(corr, dtype=float)
    if z.ndim not in (1, 2):
        raise ValueError(f"z must be one point or a stack of points, got shape {z.shape}")
    d = z.shape[-1]
    if d not in (2, 3):
        raise UnsupportedDimensionError(f"t_stdf supports d in {{2, 3}}, got {d}")
    if (z <= 0).any():
        raise ValueError("z components must be strictly positive")
    off = corr[~np.eye(d, dtype=bool)]
    if (np.abs(off) >= 1.0).any():
        raise DegenerateModelError("comonotone-degenerate correlation |r| >= 1")
    zs = z.reshape(-1, d)
    # row j lists the coordinates other than j
    others = np.array([[i for i in range(d) if i != j] for j in range(d)])
    r_oj = corr[others, np.arange(d)[:, None]]
    ratio = zs[:, others] / zs[:, :, None]
    args = np.sqrt((nu + 1.0) / (1.0 - r_oj**2)) * (ratio ** (1.0 / nu) - r_oj)
    if d == 2:
        terms = special.stdtr(nu + 1.0, args[:, :, 0])
    else:
        r_i, r_l = r_oj[:, 0], r_oj[:, 1]
        partial = (corr[others[:, 0], others[:, 1]] - r_i * r_l) / (
            np.sqrt(1.0 - r_i**2) * np.sqrt(1.0 - r_l**2))
        terms = _t2_cdf(args[:, :, 0], args[:, :, 1], partial, nu + 1.0)
    total = 0.0
    for j in range(d):
        total = total + terms[:, j] / zs[:, j]
    return float(total[0]) if z.ndim == 1 else total


def theoretical_rho(theta, params: TParams, u: Direction | RotationMatrix):
    """Theoretical scalar radius of the rotated model at interior angles.

    ``theta`` is one angle (d,), giving a float, or a stack (g, d), giving
    g radii; the model is rotated once per call. ``u`` is the direction or
    its already built rotation.
    """
    theta = np.asarray(theta, dtype=float)
    if (theta <= 0).any():
        raise ValueError("theta must be interior (all components positive)")
    rotated = rotate_elliptical(params, rotation_for(u))
    return t_stdf(theta, rotated.correlation(), rotated.nu)


def theoretical_norm_sequences(params: TParams, t: float):
    """Normalization sequences (a(t), b(t)) of every marginal, as (d,) arrays.

    b_j(t) = mu_j + sqrt(sigma_jj) q is the marginal (1 - 1/t)-quantile,
    with q from the inverse univariate t distribution function;
    a_j(t) = gamma * b_j(t), the first-order scale of a gamma > 0 tail.
    """
    from scipy import special

    if not t > 1.0:
        raise ValueError(f"t must exceed 1, got {t!r}")
    q = float(special.stdtrit(params.nu, 1.0 - 1.0 / t))
    b = params.mu + np.sqrt(np.diag(params.sigma)) * q
    if not (b > 0.0).all():
        raise ValueError(
            f"marginal quantile at level 1 - 1/{t!r} is not positive; t is too "
            "small for tail normalization"
        )
    if not np.isfinite(b).all():
        raise InversionError(
            f"marginal quantile at level 1 - 1/{t!r} is not finite: the level "
            "rounds to 1"
        )
    return params.gamma * b, b


@dataclass(frozen=True)
class ModelOracle:
    """The rotated model's radius at each angle, its normalization
    sequences (a, b) at anchor t, and its asymptotic quantile points in
    rotated coordinates."""

    rho: np.ndarray
    a: np.ndarray
    b: np.ndarray
    x_rotated: np.ndarray


def model_oracle(params: TParams, u: Direction | RotationMatrix, alpha: float, theta,
                 t: float) -> ModelOracle:
    """The theoretical surface of the rotated model at level alpha and anchor t.

    ``theta`` is one angle (d,), giving a float radius and one point, or a
    stack (g, d), giving g of each, each point equal to its single-angle
    value bit for bit. ``u`` is the direction or its already built rotation.
    """
    theta = np.asarray(theta, dtype=float)
    r = rotation_for(u)
    a, b = theoretical_norm_sequences(rotate_elliptical(params, r), t)
    rho = theoretical_rho(theta, params, r)
    x = extrapolate(np.asarray(rho)[..., None] * theta / (t * alpha), a, b, params.gamma)
    return ModelOracle(rho, a, b, x)


def asymptotic_quantile(params: TParams, u: Direction | RotationMatrix, alpha: float,
                        theta, t: float):
    """Asymptotic quantile point of the rotated model along angle theta, in
    rotated coordinates: ``model_oracle``'s points."""
    return model_oracle(params, u, alpha, theta, t).x_rotated


def relative_error(x_tilde, x_hat) -> float:
    """Euclidean relative error of an estimate against a reference point."""
    ref = np.asarray(x_tilde, dtype=float)
    est = np.asarray(x_hat, dtype=float)
    norm = np.linalg.norm(ref)
    if norm == 0.0:
        raise ValueError("reference point has zero norm")
    return float(np.linalg.norm(ref - est) / norm)
