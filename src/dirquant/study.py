"""Replicated simulation study of the estimator against the t oracle.

Each replicate estimates a surface on a sample of a multivariate t
model, whose radius and asymptotic quantiles are known, and is scored by
its tail-index ratios and the relative error of its point at the
diagonal angle. ``run_study`` returns arrays; ``cli.write_study`` writes
them as ``mc-study``'s files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .geometry import Direction, rotation_for
from .quantile import ThetaGrid, fit_direction, quantile_point
from .stdf import rho_hat_batch
from .tmodel import TParams, asymptotic_quantile, model_oracle, relative_error, sample_t


@dataclass(frozen=True)
class StudyResult:
    """A study's inputs, its valid replicates (v of them) as arrays and its
    failed replicates; g is the number of grid angles."""

    n: int
    alpha: float
    u: Direction
    grid: ThetaGrid
    seed: int
    index: np.ndarray       # (v,) replicate numbers; the others failed
    k_hat: np.ndarray       # (v,)
    gamma_ratio: np.ndarray  # (v, d) marginal tail index over the model's
    rho_hat: np.ndarray     # (v, g)
    floored: np.ndarray     # (v, g)
    x_original: np.ndarray  # (v, g, d)
    re: np.ndarray          # (v,) relative error at the diagonal angle
    failures: list          # (replicate, "ErrorClass: message") pairs
    rho_theory: np.ndarray  # (g,)
    oracle_anchor_t: float  # median n / k_hat
    oracle_points: np.ndarray  # (g, d) theoretical surface at that anchor


def _replicate_seed(master: int, replicate: int, salt: int) -> int:
    """Seed of a replicate's sample (salt 0) or of its bootstrap (salt 1).

    n is deliberately not hashed in: studies at several n with one seed
    use common random numbers, so replicate r draws the same
    leading chi-square mixing variables at every n and the sizes compare
    on correlated samples.
    """
    return int(np.random.SeedSequence([master, replicate, salt]).generate_state(1)[0])


def run_study(params: TParams, n: int, replicates: int, u: Direction, alpha: float,
              grid: ThetaGrid, k, *, epsilon: float = 0.25, b1: int = 1000,
              seed: int = 0) -> StudyResult:
    """``replicates`` samples of size n from ``params``, each estimated in
    direction u at level alpha with sample fraction k (an int or "auto").

    A replicate whose tail fit cannot support extrapolation, or whose
    numerics fail, is listed in ``failures`` instead of aborting the study;
    DataError if every replicate fails.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be at least 1, got {replicates}")
    r = rotation_for(u)
    theta_star = np.ones(params.d) / np.sqrt(params.d)

    def one(rep: int):
        sample = sample_t(params, n, _replicate_seed(seed, rep, 0))
        try:
            fitted = fit_direction(sample, r, k, epsilon=epsilon, b1=b1,
                                   seed=_replicate_seed(seed, rep, 1))
            surface = fitted.surface(alpha, grid)
            rho_star, _ = rho_hat_batch(fitted.context, theta_star[None, :])
            x_hat_star = quantile_point(fitted.fit, float(rho_star[0]), theta_star, alpha)
            x_tilde_star = asymptotic_quantile(params, r, alpha, theta_star,
                                               n / fitted.fit.k)
        except (DataError, NumericalError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return (surface.k, surface.fit.gamma_marginal / params.gamma, surface.rho,
                surface.floored, surface.x_original, relative_error(x_tilde_star, x_hat_star))

    outcomes = [one(rep) for rep in range(replicates)]
    failures = [(i, out) for i, out in enumerate(outcomes) if isinstance(out, str)]
    valid = [(i, out) for i, out in enumerate(outcomes) if not isinstance(out, str)]
    if not valid:
        raise DataError(
            f"all {replicates} replicates failed; first failure: {failures[0][1]}"
        )
    index, rows = zip(*valid)
    k_hat, gamma_ratio, rho_hat, floored, x_original, re = map(np.array, zip(*rows))
    t_med = float(np.median(n / k_hat))
    oracle = model_oracle(params, r, alpha, grid.thetas, t_med)
    return StudyResult(
        n=n, alpha=alpha, u=u, grid=grid, seed=seed,
        index=np.array(index), k_hat=k_hat, gamma_ratio=gamma_ratio, rho_hat=rho_hat,
        floored=floored, x_original=x_original, re=re, failures=failures,
        rho_theory=oracle.rho,
        oracle_anchor_t=t_med,
        oracle_points=oracle.x_rotated @ r.entries,
    )
