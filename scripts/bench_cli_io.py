#!/usr/bin/env python3
"""Fixed-seed timing of the CLI's CSV reader and its JSON and CSV writers.

Times four steps, each on fixed-seed inputs:

- ``parse_csv``: a 10 000-row 2-D file of 17-digit cells with a header
  line, as the benchmark in ``perfbench/`` writes its inputs;
- ``surface_json``: ``_json_text`` on the 64-point surface that
  ``oracle-t --grid 8`` writes for the paper's 3-D model;
- ``flag_csv`` and ``flag_json``: the ``flag`` command on 10 000 rows
  of the bivariate t model (nu=3, correlation 0.9) at k=200, with its
  reading and ``flag_outliers`` replaced by their precomputed results
  from this script, so that only option handling and writing the
  output file are timed.

Each step runs once untimed, then ``--repeat`` timed calls.

    GLIBC_TUNABLES=glibc.malloc.mmap_threshold=131072 \\
        python3 scripts/bench_cli_io.py --label after

prints the best and median milliseconds of each step and writes them to
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
import tempfile
import time

import numpy as np

from dirquant import TParams, cli, diagonal_direction, flag_outliers, sample_t

SEED = 2024
ROWS = 10_000
SIGMA_FLAG = np.array([[1.0, 0.9], [0.9, 1.0]])
SIGMA_3D = "5,2.44,-1.88,2.44,2.12,0.04,-1.88,0.04,2.36"


def write_sample(path: str, sample: np.ndarray) -> None:
    lines = ["x1,x2"] + [f"{a!r},{b!r}" for a, b in sample.tolist()]
    pathlib.Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_cli(argv: list) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited with {code}")


def surface_doc(tmp: str) -> dict:
    out = os.path.join(tmp, "surface.json")
    run_cli(["oracle-t", "--mu", "0,0,0", "--sigma", SIGMA_3D, "--nu", "4",
             "--direction", "fpc", "--alpha", "1/5000", "--n", "5000",
             "--k", "100", "--grid", "8", "--output", out])
    return json.loads(pathlib.Path(out).read_text(encoding="utf-8"))


def flag_command(tmp: str, sample: np.ndarray, result, fmt: str):
    """The flag command on a precomputed sample and flag_outliers result."""
    argv = ["flag", "--input", "unread.csv", "--alpha", "0.01", "--k", "200",
            "--format", fmt, "--output", os.path.join(tmp, f"flags.{fmt}")]

    def run():
        parse, outliers = cli.parse_csv, cli.flag_outliers
        cli.parse_csv = lambda path, has_header=False: sample
        cli.flag_outliers = lambda *args, **kwargs: result
        try:
            run_cli(argv)
        finally:
            cli.parse_csv, cli.flag_outliers = parse, outliers

    return run


def timed(step, repeat: int) -> list:
    step()
    ms = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        step()
        ms.append(1e3 * (time.perf_counter() - t0))
    return ms


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=15, help="timed calls per step")
    ap.add_argument("--label", default="cli_io")
    ap.add_argument("--out", default="results", help="directory for BENCH_<label>.json")
    args = ap.parse_args()

    sample = sample_t(TParams(np.zeros(2), SIGMA_FLAG, 3.0), ROWS, SEED)
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "sample.csv")
        write_sample(csv_path, sample)
        doc = surface_doc(tmp)
        flags = flag_outliers(sample, diagonal_direction(2), 0.01, 200)
        steps = {
            "parse_csv": lambda: cli.parse_csv(csv_path, has_header=True),
            "surface_json": lambda: cli._json_text(doc),
            "flag_csv": flag_command(tmp, sample, flags, "csv"),
            "flag_json": flag_command(tmp, sample, flags, "json"),
        }
        ms = {name: timed(step, args.repeat) for name, step in steps.items()}

    result = {
        "label": args.label,
        "rows": ROWS,
        "surface_points": len(doc["points"]),
        "seed": SEED,
        "calls": args.repeat,
        "best_ms": {name: min(t) for name, t in ms.items()},
        "median_ms": {name: statistics.median(t) for name, t in ms.items()},
        "glibc_tunables": os.environ.get("GLIBC_TUNABLES"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    for name in steps:
        print(f"{name:13s} best {result['best_ms'][name]:7.2f} ms, "
              f"median {result['median_ms'][name]:7.2f} ms ({args.repeat} calls)")
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
