#!/usr/bin/env python3
"""Relative error of the estimated surface point at the diagonal angle.

Replicates the 3D experiment through ``mc-study``: principal-component
direction, level alpha = 1/n, comparing the estimated point against the
asymptotic theoretical point at theta = (1, 1, 1)/sqrt(3). Replicates
whose tail fit cannot support extrapolation are reported, not silently
dropped.

The sizes share one ``--seed``, and ``mc-study`` does not hash n into
its replicate seeds: replicate r draws the same leading chi-square
mixing variables at every size (common random numbers), so the relative
errors of different sizes come from correlated samples.

    python3 scripts/re_study_3d.py --sizes 500 50000 --replicates 20
"""

import argparse
import json
import warnings

import numpy as np

from dirquant.cli import RunConfig, run_mc_study
from dirquant.errors import DataError

MU = "0,0,0"
SIGMA = "5,2.44,-1.88,2.44,2.12,0.04,-1.88,0.04,2.36"
NU = 4.0


def study(n: int, replicates: int, seed: int):
    """Relative errors of the valid replicates and the failure count."""
    cfg = RunConfig(mu=MU, sigma=SIGMA, nu=NU, n=n, replicates=replicates,
                    direction="fpc", grid=2, seed=seed)
    payloads = run_mc_study(cfg)
    rows = payloads[".replicates.csv"].splitlines()[1:]
    res = np.array([float(row.rpartition(",")[2]) for row in rows])
    failed = len(json.loads(payloads[".summary.json"])["failed_replicates"])
    return res, failed


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[500, 50000])
    ap.add_argument("--replicates", type=int, default=20)
    ap.add_argument("--seed", type=int, default=9)
    args = ap.parse_args()

    warnings.simplefilter("ignore")
    for n in args.sizes:
        try:
            res, failed = study(n, args.replicates, args.seed)
        except DataError:
            # mc-study raises when every replicate fails
            print(f"n={n:6d}: all {args.replicates} replicates failed")
            continue
        print(
            f"n={n:6d}: {len(res):3d} valid / {failed} failed | "
            f"RE median={np.median(res):.4f} "
            f"IQR=[{np.percentile(res, 25):.4f}, {np.percentile(res, 75):.4f}]"
        )
