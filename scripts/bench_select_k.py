#!/usr/bin/env python3
"""Fixed-seed timing of select_k on the paper's 2D t model.

Draws four samples of the bivariate t model (nu=3) from fixed seeds,
rotates each into its sample principal direction, as ``estimate
--direction fpc`` does, and times ``select_k`` on them. Each call is
measured for wall time and for minor page faults, read from
``getrusage`` around the call. One untimed call per sample comes first.
Each of the two bootstrap stages is timed, and its blocks of resamples
counted, by wrapping ``bootstrap._stage_argmin`` and
``bootstrap._draw_block`` from this script. Within each stage, the time
spent in ``_draw_block`` (the streams, the Lemire mapping and the rank
gather) and in ``bootstrap._add_error_curves`` (the rank sort, the log
gather, the moment profiles and the fold into the running sums) is
summed too: the split between draws and kernel.

    GLIBC_TUNABLES=glibc.malloc.mmap_threshold=131072 \\
        python3 scripts/bench_select_k.py --label after

prints best and median milliseconds and the median minor faults per call,
and per stage the median milliseconds in all, in the draws and in the
kernel, and the blocks, and writes them
to ``<out>/BENCH_<label>.json`` (``results/`` by default).
The malloc setting is the one the benchmark in ``perfbench/`` runs under;
it is recorded in the JSON, since page faults depend on it.
"""

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import time

import numpy as np

from dirquant import (
    TParams,
    fpc_direction,
    rotate,
    rotation_for,
    sample_t,
    select_k,
)
from dirquant import bootstrap

SIGMA = np.array([[5.0, 0.1], [0.1, 1.0]])
SEEDS = (2024, 2025, 2026, 2027)


def samples(n: int) -> list:
    params = TParams(np.zeros(2), SIGMA, 3.0)
    out = []
    for seed in SEEDS:
        x = sample_t(params, n, seed)
        out.append(rotate(rotation_for(fpc_direction(np.cov(x.T))), x))
    return out


class StageProbe:
    """Milliseconds in all, in ``_draw_block`` and in ``_add_error_curves``,
    and block count, of each stage of the last select_k call."""

    PARTS = ("total", "draw", "kernel")

    def __init__(self):
        self.ms, self.blocks, self._stage = {}, {}, None
        stage_argmin = bootstrap._stage_argmin
        draw_block, add_error_curves = bootstrap._draw_block, bootstrap._add_error_curves

        def timed(table, m, b, seed, stage, *rest):
            self._stage, self.blocks[stage] = stage, 0
            self.ms[stage] = dict.fromkeys(self.PARTS, 0.0)
            t0 = time.perf_counter()
            result = stage_argmin(table, m, b, seed, stage, *rest)
            self.ms[stage]["total"] = 1e3 * (time.perf_counter() - t0)
            return result

        def part(name, func):
            def wrapped(*args):
                t0 = time.perf_counter()
                result = func(*args)
                self.ms[self._stage][name] += 1e3 * (time.perf_counter() - t0)
                return result
            return wrapped

        def counted(*args):
            self.blocks[self._stage] += 1
            return draw_block(*args)

        bootstrap._stage_argmin = timed
        bootstrap._draw_block = part("draw", counted)
        bootstrap._add_error_curves = part("kernel", add_error_curves)


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(sample, b1: int, repeat: int, probe: StageProbe):
    """Milliseconds and minor faults of ``repeat`` timed calls, and each
    call's milliseconds per stage."""
    select_k(sample, b1=b1, seed=7)
    ms, faults, stage_ms = [], [], []
    for _ in range(repeat):
        f0, t0 = minor_faults(), time.perf_counter()
        select_k(sample, b1=b1, seed=7)
        t1, f1 = time.perf_counter(), minor_faults()
        ms.append(1e3 * (t1 - t0))
        faults.append(f1 - f0)
        stage_ms.append({s: dict(parts) for s, parts in probe.ms.items()})
    return ms, faults, stage_ms


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", type=int, default=5000)
    ap.add_argument("--b1", type=int, default=1000)
    ap.add_argument("--repeat", type=int, default=7, help="timed calls per sample")
    ap.add_argument("--label", default="select_k")
    ap.add_argument("--out", default="results", help="directory for BENCH_<label>.json")
    args = ap.parse_args()

    probe = StageProbe()
    ms, faults, stage_ms, blocks = [], [], [], []
    for sample in samples(args.n):
        t, f, s = measure(sample, args.b1, args.repeat, probe)
        ms += t
        faults += f
        stage_ms += s
        blocks.append(dict(probe.blocks))
    stages = sorted(probe.blocks)

    def stage_medians(part: str) -> dict:
        return {str(s): statistics.median(c[s][part] for c in stage_ms) for s in stages}

    result = {
        "label": args.label,
        "n": args.n,
        "b1": args.b1,
        "seeds": list(SEEDS),
        "calls": len(ms),
        "best_ms": min(ms),
        "median_ms": statistics.median(ms),
        "median_minor_faults": statistics.median(faults),
        "max_minor_faults": max(faults),
        "stage_median_ms": stage_medians("total"),
        # per stage, the summed time of its _draw_block and its
        # _add_error_curves calls; the rest is hashing and the argmin
        "stage_draw_median_ms": stage_medians("draw"),
        "stage_kernel_median_ms": stage_medians("kernel"),
        # blocks of the last call on each sample, which n and b1 fix
        "stage_blocks": {str(s): [c[s] for c in blocks] for s in stages},
        "glibc_tunables": os.environ.get("GLIBC_TUNABLES"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    print(f"select_k n={args.n} b1={args.b1}, {len(ms)} calls: "
          f"best {result['best_ms']:.1f} ms, median {result['median_ms']:.1f} ms, "
          f"median {result['median_minor_faults']:.0f} minor faults")
    for s in stages:
        print(f"  stage {s}: median {result['stage_median_ms'][str(s)]:.1f} ms "
              f"(draws {result['stage_draw_median_ms'][str(s)]:.1f} ms, "
              f"kernel {result['stage_kernel_median_ms'][str(s)]:.1f} ms), "
              f"blocks {result['stage_blocks'][str(s)]}")
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
