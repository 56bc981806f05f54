#!/usr/bin/env python3
"""Replicated studies of the paper's 2D and 3D t models against their oracle.

Each replicate estimates the surface at level alpha = 1/n with a
bootstrap k. For each direction and n this prints the valid and failed
replicate counts, and the median and interquartile range of the relative
error (RE) of the estimated point at the diagonal angle. With ``--out P``
it also writes ``mc-study``'s four files to ``P_<direction>_n<n>``.

The sizes share one ``--seed``, and replicate seeds do not hash in n:
replicate r draws the same leading chi-square mixing variables at every
size (common random numbers), so the sizes compare on correlated samples.

    python3 scripts/study.py 2d --out results/mc2d
    python3 scripts/study.py 3d --sizes 500 50000 --replicates 20
"""

import argparse
import pathlib
import warnings

import numpy as np

from dirquant import DataError, TParams, diagonal_direction, fpc_direction, theta_grid
from dirquant.cli import write_study
from dirquant.study import run_study

SIGMA_2D = np.array([[5, 0.1], [0.1, 1]])
SIGMA_3D = np.array([[5, 2.44, -1.88], [2.44, 2.12, 0.04], [-1.88, 0.04, 2.36]])
# each model's parameters, directions, grid resolution and default options
MODELS = {
    "2d": (TParams(np.zeros(2), SIGMA_2D, 3.0),
           {"e": diagonal_direction(2), "fpc": fpc_direction(SIGMA_2D)}, 33,
           {"sizes": [500, 5000], "replicates": 100, "seed": 2026}),
    "3d": (TParams(np.zeros(3), SIGMA_3D, 4.0), {"fpc": fpc_direction(SIGMA_3D)}, 2,
           {"sizes": [500, 50000], "replicates": 20, "seed": 9}),
}

if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("model", choices=MODELS)
    ap.add_argument("--sizes", type=int, nargs="+", help="sample sizes n")
    ap.add_argument("--replicates", type=int)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--out", help="output prefix of mc-study's files")
    args = ap.parse_args()
    params, directions, m, defaults = MODELS[args.model]
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    if args.replicates < 1 or min(args.sizes) < 1:
        ap.error("--sizes and --replicates must be at least 1")
    if args.out:
        pathlib.Path(args.out).parent.mkdir(parents=True, exist_ok=True)

    warnings.simplefilter("ignore")
    grid = theta_grid(params.d, m, 0.01)
    for direction, u in directions.items():
        for n in args.sizes:
            label = f"{direction:>3s} n={n:6d}"
            try:
                res = run_study(params, n, args.replicates, u, 1.0 / n, grid, "auto",
                                seed=args.seed)
            except DataError:
                print(f"{label}: all {args.replicates} replicates failed")
                continue
            if args.out:
                write_study(f"{args.out}_{direction}_n{n}", res)
            print(f"{label}: {len(res.re):3d} valid / {len(res.failures)} failed | "
                  f"RE median={np.median(res.re):.4f} "
                  f"IQR=[{np.percentile(res.re, 25):.4f}, {np.percentile(res.re, 75):.4f}]")
