"""Reference computations made apart from the program under test.

Plain numpy/scipy implementations of the paper's definitions: the
rotation R_u, the moment tail fit, union exceedance counts, the
two-stage bootstrap choice of k and the t model's stable tail dependence
function. The output checks compare against these, and input generation
uses them to keep only inputs the estimator can analyse.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate

# Relative distance within which a sample value counts as sitting on a
# threshold: the program and these computations build the rotation with
# different QR algorithms, so rotated values agree only to a few ulps.
ROUNDING = 1e-10
# Angles of the theta grid run from DELTA to pi/2 - DELTA (the CLI's default --delta).
DELTA = 0.01
# Bootstrap stage-one resample size n^(1 - EPSILON) (the CLI's default --epsilon).
EPSILON = 0.25


def _q_positive(m: np.ndarray) -> np.ndarray:
    """Orthogonal factor of m = QT with diag(T) > 0, by Gram-Schmidt."""
    q = np.zeros_like(m)
    for j in range(m.shape[1]):
        v = m[:, j].copy()
        for _ in range(2):  # re-orthogonalise once for accuracy
            v -= q[:, :j] @ (q[:, :j].T @ v)
        q[:, j] = v / np.linalg.norm(v)
    return q


def rotation(u) -> np.ndarray:
    """R_u = Q_e Q_u' from positive-diagonal QR of [u, sign(u_j) e_j]."""
    u = np.asarray(u, dtype=float)
    d = u.size
    m_u = np.diag(np.sign(u))
    m_u[:, 0] = u
    m_e = np.eye(d)
    m_e[:, 0] = 1.0 / math.sqrt(d)
    return _q_positive(m_e) @ _q_positive(m_u).T


def leading_direction(cov) -> np.ndarray:
    w, v = np.linalg.eigh(np.asarray(cov, dtype=float))
    lead = v[:, -1]
    return lead if lead[0] > 0 else -lead


def theta_grid(d: int, m: int) -> np.ndarray:
    """Unit angles (cos phi1, sin phi1 cos phi2, ...) on an m^(d-1) grid."""
    angles = DELTA + (math.pi / 2 - 2 * DELTA) * np.arange(m) / (m - 1)
    phis = np.stack([g.ravel() for g in np.meshgrid(*([angles] * (d - 1)),
                                                    indexing="ij")], axis=1)
    out = np.ones((phis.shape[0], d))
    for i in range(d - 1):
        out[:, i] *= np.cos(phis[:, i])
        out[:, i + 1:] *= np.sin(phis[:, i])[:, None]
    return out


def moment_fit(rotated: np.ndarray, k: int):
    """Moment estimator gamma_j and normalisations (a_j, b_j) per rotated marginal."""
    n, d = rotated.shape
    gam, a, b = np.empty(d), np.empty(d), np.empty(d)
    for j in range(d):
        s = np.sort(rotated[:, j])
        b[j] = s[n - 1 - k]
        spacings = np.log(s[n - k:]) - math.log(b[j])
        m1 = spacings.mean()
        m2 = (spacings ** 2).mean()
        gam[j] = m1 + 1.0 - 0.5 / (1.0 - m1 * m1 / m2)
        a[j] = b[j] * m1 * max(1.0, 1.0 - gam[j])
    return gam, a, b


def union_counts(rotated: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Rows exceeding each threshold row in at least one coordinate."""
    counts = np.empty(len(thresholds), dtype=np.int64)
    for s in range(0, len(thresholds), 128):
        block = thresholds[s:s + 128, None, :]
        counts[s:s + 128] = (rotated[None, :, :] > block).any(axis=2).sum(axis=1)
    return counts


def bootstrap_k(rotated: np.ndarray, b1: int, seed: int) -> dict:
    """Two-stage bootstrap choice of k (Danielsson, de Haan, Peng and de Vries).

    Resample i of stage s draws from the stream default_rng([seed, s, i]),
    keeps rows positive in every coordinate (redrawing while fewer than
    the floor remain) and contributes the error (M2 - 2 M1^2)^2 of the
    moment relation at every k; per marginal, the argmin of the error
    averaged over resamples, among k backed by at least half of them,
    gives k_j(m). The floor is 10 rows, or 3 where m times the positive
    fraction is below 10. The arithmetic follows the moment-statistic
    cumulant form term by term, so the argmins match the program's exactly.
    """
    n, d = rotated.shape
    m1 = int(math.floor(n ** (1.0 - EPSILON)))
    m2 = m1 * m1 // n
    frac = float((rotated > 0).all(axis=1).mean())
    argmins = []
    for stage, m in ((1, m1), (2, m2)):
        floor = 10 if m * frac >= 10 else 3
        sums = np.zeros((d, m + 2))
        counts = np.zeros((d, m + 2))
        for idx in range(b1):
            rng = np.random.default_rng([seed, stage, idx])
            for _ in range(100):
                rows = rotated[rng.integers(0, n, m)]
                keep = rows[(rows > 0).all(axis=1)]
                if keep.shape[0] >= floor:
                    break
            else:
                raise ValueError(f"resamples of size {m} keep too few positive rows")
            r = keep.shape[0]
            ks = np.arange(1, r, dtype=float)
            for j in range(d):
                logs = np.log(np.sort(keep[:, j])[::-1])
                mean1 = np.cumsum(logs)[:-1] / ks
                thr = logs[1:]
                mom1 = mean1 - thr
                mom2 = np.cumsum(logs * logs)[:-1] / ks - 2.0 * thr * mean1 + thr * thr
                sums[j, 2:r] += ((mom2 - 2.0 * mom1 * mom1) ** 2)[1:r - 1]
                counts[j, 2:r] += 1
        avg = np.where(counts >= max(1.0, b1 / 2.0), sums / np.maximum(counts, 1.0), np.inf)
        argmins.append(avg.argmin(axis=1))
    k1, k2 = argmins
    terms = []
    for a, b in zip(k1, k2):
        pi = math.log(a) / (2.0 * math.log(a) - 2.0 * math.log(m1))
        factor = (1.0 - 1.0 / pi) ** (1.0 / (2.0 * pi - 1.0))
        terms.append(a * a / b * (factor if math.isfinite(factor) else 1.0))
    k = int(np.clip(round(float(np.mean(terms))), 2, n - 1))
    return dict(k_hat=k, k_j_m1=k1.tolist(), k_j_m2=k2.tolist(), m1=m1, m2=m2)


def t2_cdf(x1: float, x2: float, r: float, df: float) -> float:
    """Bivariate standard t distribution function by quadrature of its density."""
    c = 1.0 / (2.0 * math.pi * math.sqrt(1.0 - r * r))
    scale = df * (1.0 - r * r)
    power = -(df + 2.0) / 2.0

    def density(y: float, x: float) -> float:
        return c * (1.0 + (x * x - 2.0 * r * x * y + y * y) / scale) ** power

    # The inner quadrature can report slow convergence near |r| = 0.9; the
    # result still agrees with the program's 1-D form to about 1e-10,
    # far inside the 1e-6 the checks ask for.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _ = integrate.dblquad(density, -np.inf, x1, -np.inf, x2,
                                     epsabs=1e-9, epsrel=1e-9)
    return value


def t_stdf_3d(z, corr, nu: float) -> float:
    """Stable tail dependence function of a trivariate t with correlation corr."""
    total = 0.0
    for j in range(3):
        i, l = (m for m in range(3) if m != j)
        args = [math.sqrt((nu + 1.0) / (1.0 - corr[m, j] ** 2))
                * ((z[m] / z[j]) ** (1.0 / nu) - corr[m, j]) for m in (i, l)]
        partial = (corr[i, l] - corr[i, j] * corr[l, j]) / math.sqrt(
            (1.0 - corr[i, j] ** 2) * (1.0 - corr[l, j] ** 2))
        total += t2_cdf(args[0], args[1], partial, nu + 1.0) / z[j]
    return total
