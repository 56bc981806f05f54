#!/usr/bin/env python3
"""Replicated 2D study: bootstrap k, tail-index ratios, surface bands.

Runs the full estimation pipeline on repeated draws from the reference
bivariate t model (nu=3) in both the diagonal and the principal
directions, writing boxplot-ready CSV tables.

    python3 scripts/mc_study_2d.py --out results/mc2d --replicates 100
    python3 scripts/mc_study_2d.py --out results/quick --quick
"""

import argparse
import pathlib
import sys

from dirquant.cli import main as dirquant_main

MU = "0,0"
SIGMA = "5,0.1,0.1,1"
NU = "3"


def run(out_prefix: str, n: int, replicates: int, direction: str, seed: int) -> None:
    argv = [
        "mc-study",
        "--mu", MU, "--sigma", SIGMA, "--nu", NU,
        "--n", str(n),
        "--replicates", str(replicates),
        "--direction", direction,
        "--grid", "33",
        "--seed", str(seed),
        "--output", out_prefix,
    ]
    rc = dirquant_main(argv)
    if rc != 0:
        sys.exit(rc)
    print(f"wrote {out_prefix}.{{replicates,rho,bands}}.csv and .summary.json")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/mc2d", help="output prefix")
    ap.add_argument("--replicates", type=int, default=100)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--quick", action="store_true",
                    help="small-n smoke run (n=500, 10 replicates)")
    args = ap.parse_args()

    pathlib.Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    sizes = [(500, 10)] if args.quick else [(500, args.replicates),
                                            (5000, args.replicates)]
    for direction in ("e", "fpc"):
        for n, reps in sizes:
            prefix = f"{args.out}_{direction}_n{n}"
            run(prefix, n, reps, direction, args.seed)
