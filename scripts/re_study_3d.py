#!/usr/bin/env python3
"""Relative error of the estimated surface point at the diagonal angle.

Replicates the 3D experiment: principal-component direction, level
alpha = 1/n, comparing the estimated point against the asymptotic
theoretical point at theta = (1, 1, 1)/sqrt(3). Replicates whose tail
fit cannot support extrapolation are reported, not silently dropped.

    python3 scripts/re_study_3d.py --sizes 500 50000 --replicates 20
"""

import argparse

import numpy as np

from dirquant import (
    TParams,
    asymptotic_quantile,
    fit_direction,
    fpc_direction,
    quantile_point,
    relative_error,
    rho_hat_batch,
    rotation_for,
    sample_t,
)
from dirquant.errors import DataError, NumericalError

SIGMA = np.array([[5.0, 2.44, -1.88], [2.44, 2.12, 0.04], [-1.88, 0.04, 2.36]])


def seed_int(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def study(n: int, replicates: int, master: int):
    params = TParams(np.zeros(3), SIGMA, 4.0)
    u = fpc_direction(SIGMA)
    r = rotation_for(u)
    theta = np.ones(3) / np.sqrt(3.0)
    alpha = 1.0 / n
    res, failed = [], 0
    for rep in range(replicates):
        sample = sample_t(params, n, seed_int(master, n, rep, 0))
        try:
            fitted = fit_direction(sample, r, "auto", b1=1000,
                                   seed=seed_int(master, n, rep, 1))
            rho, _ = rho_hat_batch(fitted.context, theta[None, :])
            x_hat = quantile_point(fitted.fit, rho[0], theta, alpha)
        except (DataError, NumericalError):
            failed += 1
            continue
        x_tilde = asymptotic_quantile(params, r, alpha, theta, n / fitted.fit.k)
        res.append(relative_error(x_tilde, x_hat))
    return np.asarray(res), failed


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[500, 50000])
    ap.add_argument("--replicates", type=int, default=20)
    ap.add_argument("--seed", type=int, default=9)
    args = ap.parse_args()

    import warnings

    warnings.simplefilter("ignore")
    for n in args.sizes:
        res, failed = study(n, args.replicates, args.seed)
        if len(res):
            print(
                f"n={n:6d}: {len(res):3d} valid / {failed} failed | "
                f"RE median={np.median(res):.4f} "
                f"IQR=[{np.percentile(res, 25):.4f}, {np.percentile(res, 75):.4f}]"
            )
        else:
            print(f"n={n:6d}: all {args.replicates} replicates failed")
