#!/usr/bin/env python3
"""Fixed-seed timing of the union-exceedance counts that ``flag`` needs.

Draws one sample of the model of acceptance criterion 8 (bivariate t,
nu=3, correlation 0.9) at each of n = 10 000, 30 000 and 100 000 rows,
and one sample of the paper's 3-D t model (nu=4) at n = 10 000. Each
sample is rotated into the diagonal direction and fitted at k = n/50, as
``flag --direction e`` does. Its thresholds are those of the rows inside
the extremal region, 0.69 n to 0.83 n of them in 2-D: the queries of
``flag``'s tail-level inversion. ``union_exceedance_counts`` is then
timed on them, after one untimed call. The kernels it chose, how many
queries each counted, and the 2-D kernel's strips are read by wrapping the
module's kernels from this script: in 2-D every query is counted with its
second coordinate clamped to the running minimum along the arc, and the
few queries whose coordinates rounded above that clamp also count the
rows of a strip between the two.

    GLIBC_TUNABLES=glibc.malloc.mmap_threshold=131072 \\
        python3 scripts/bench_counting.py --label after

prints, per size, the kernels, the queries, those above their clamp, the
rows in their strips and the best and median milliseconds, and writes them to
``<out>/BENCH_<label>.json`` (``results/`` by default). The malloc
setting is the one the benchmark in ``perfbench/`` runs under; it is
recorded in the JSON.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import time
import warnings

import numpy as np

from dirquant import TParams, diagonal_direction, fit_direction, sample_t, stdf
from dirquant.errors import TailDisparityWarning
from dirquant.evt import extrapolate, frechet_weights

SEED = 2024
SIGMA_2D = np.array([[1.0, 0.9], [0.9, 1.0]])
SIGMA_3D = np.array([[5.0, 2.44, -1.88], [2.44, 2.12, 0.04], [-1.88, 0.04, 2.36]])
# (d, n): the 2-D sizes are counted along the clamped threshold chain, the
# 3-D one compares every query with every row
SIZES = ((2, 10_000), (2, 30_000), (2, 100_000), (3, 10_000))


def flag_queries(d: int, n: int):
    """The rotated sample and the thresholds of its rows in the extremal region."""
    sigma, nu = (SIGMA_2D, 3.0) if d == 2 else (SIGMA_3D, 4.0)
    x = sample_t(TParams(np.zeros(d), sigma, nu), n, SEED)
    with warnings.catch_warnings():
        # the 3-D model's rotated marginals differ in tail index
        warnings.simplefilter("ignore", TailDisparityWarning)
        fitted = fit_direction(x, diagonal_direction(d), k=n // 50)
    fit, rotated = fitted.fit, fitted.context.rotated_sample
    w = frechet_weights(rotated, fit.a, fit.b, fit.gamma_marginal)
    norms = np.linalg.norm(w, axis=1)
    inside = norms > 0
    thetas = w[inside] / norms[inside, None]
    return rotated, extrapolate(thetas, fit.a, fit.b, fit.gamma_marginal)


class KernelProbe:
    """Queries counted by each kernel, and the strips counted, since ``clear``."""

    def __init__(self):
        self.clear()
        for name in ("_dominated_2d", "_exceedances_by_comparison"):
            real = getattr(stdf, name)

            def wrapped(sample, thr, real=real, name=name.lstrip("_")):
                self.ran[name] = self.ran.get(name, 0) + thr.shape[0]
                return real(sample, thr)

            setattr(stdf, name, wrapped)
        real_strips = stdf._strip_counts

        def strips(x1, order, start, stop, t1):
            self.above += start.size
            self.strip_rows += int((stop - start).sum())
            return real_strips(x1, order, start, stop, t1)

        stdf._strip_counts = strips

    def clear(self):
        self.ran, self.above, self.strip_rows = {}, 0, 0


def measure(sample, thresholds, repeat: int, probe: KernelProbe):
    """The untimed call's probe counts, and the milliseconds of each timed call."""
    probe.clear()
    stdf.union_exceedance_counts(sample, thresholds)
    ran = (dict(probe.ran), probe.above, probe.strip_rows)
    ms = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        stdf.union_exceedance_counts(sample, thresholds)
        ms.append(1e3 * (time.perf_counter() - t0))
    return ran, ms


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=7, help="timed calls per size")
    ap.add_argument("--label", default="counting")
    ap.add_argument("--out", default="results", help="directory for BENCH_<label>.json")
    args = ap.parse_args()

    probe = KernelProbe()
    rows = []
    for d, n in SIZES:
        sample, thresholds = flag_queries(d, n)
        (ran, above, strip_rows), ms = measure(sample, thresholds, args.repeat, probe)
        rows.append({
            "d": d,
            "n": n,
            "queries": int(thresholds.shape[0]),
            "kernel": "+".join(sorted(ran)),
            "above_clamp_queries": above,
            "strip_rows": strip_rows,
            "best_ms": min(ms),
            "median_ms": statistics.median(ms),
        })
        r = rows[-1]
        print(f"d={d} n={n} q={r['queries']} {r['kernel']}, "
              f"{above} above their clamp with {strip_rows} strip rows: "
              f"best {r['best_ms']:.1f} ms, median {r['median_ms']:.1f} ms")
    result = {
        "label": args.label,
        "seed": SEED,
        "repeat": args.repeat,
        "sizes": rows,
        "glibc_tunables": os.environ.get("GLIBC_TUNABLES"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
