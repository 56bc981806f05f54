#!/usr/bin/env python3
"""Fixed-seed timing of each CLI command as a fresh process.

Runs six commands, each as ``python -m dirquant.cli`` in a new process,
on fixed seeds and inputs, and times each process from start to exit:

- ``simulate-t``: 5000 rows of the paper's bivariate t model (nu=3);
- ``rotate``, ``select-k`` (b1=1000), ``estimate --k auto`` (grid 64,
  direction fpc) and ``flag`` (k=250) on that sample;
- ``oracle-t`` for the same model (grid 64).

So each time includes the interpreter's start, the imports (numpy, and
scipy for ``oracle-t`` only) and the work. One untimed round of all six
comes first, which also writes the bytecode caches; then ``--repeat``
timed rounds, each running the commands in the order above. The child
processes import ``dirquant`` from the directory this script imports it
from.

    python3 scripts/bench_startup.py --label after

prints the median and best seconds of each command and writes them,
with the numpy, scipy and Python versions, to
``<out>/BENCH_<label>.json`` (``results/`` by default).
"""

import argparse
import importlib.metadata
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import dirquant

MU = "0,0"
SIGMA = "5,0.1,0.1,1"


def commands(tmp: str) -> dict:
    """Each command's arguments; ``simulate-t`` writes the others' input."""
    sample = os.path.join(tmp, "sample.csv")
    data = ["--input", sample, "--has-header"]
    return {
        "simulate-t": ["simulate-t", "--mu", MU, "--sigma", SIGMA, "--nu", "3",
                       "--n", "5000", "--seed", "1", "--output", sample],
        "rotate": ["rotate", *data, "--direction", "e", "--format", "csv",
                   "--output", os.path.join(tmp, "rotated.csv")],
        "select-k": ["select-k", *data, "--direction", "e", "--b1", "1000",
                     "--seed", "7", "--output", os.path.join(tmp, "ksel.json")],
        "estimate --k auto": ["estimate", *data, "--direction", "fpc",
                              "--alpha", "1/5000", "--k", "auto", "--grid", "64",
                              "--seed", "7", "--output", os.path.join(tmp, "surface.json")],
        "flag": ["flag", *data, "--direction", "e", "--alpha", "1/1250", "--k", "250",
                 "--format", "csv", "--output", os.path.join(tmp, "flags.csv")],
        "oracle-t": ["oracle-t", "--mu", MU, "--sigma", SIGMA, "--nu", "3",
                     "--direction", "fpc", "--alpha", "1/5000", "--n", "5000",
                     "--k", "250", "--grid", "64",
                     "--output", os.path.join(tmp, "oracle.json")],
    }


def run(argv: list, env: dict) -> float:
    """Seconds from the start of one ``python -m dirquant.cli`` process to its exit."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "dirquant.cli", *argv],
                          capture_output=True, text=True, env=env)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited with {proc.returncode}: {proc.stderr}")
    return seconds


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=9, help="timed rounds")
    ap.add_argument("--label", default="startup")
    ap.add_argument("--out", default="results", help="directory for BENCH_<label>.json")
    args = ap.parse_args()

    src = os.path.dirname(os.path.dirname(dirquant.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    with tempfile.TemporaryDirectory() as tmp:
        cmds = commands(tmp)
        times = {name: [] for name in cmds}
        for round_ in range(args.repeat + 1):
            for name, argv in cmds.items():
                seconds = run(argv, env)
                if round_:
                    times[name].append(seconds)
    rows = {}
    # the arguments with file names relative to the temporary directory
    for name, argv in commands("").items():
        rows[name] = {
            "argv": argv,
            "best_s": min(times[name]),
            "median_s": statistics.median(times[name]),
        }
        print(f"{name}: median {rows[name]['median_s']:.3f} s, "
              f"best {rows[name]['best_s']:.3f} s")
    result = {
        "label": args.label,
        "repeat": args.repeat,
        "commands": rows,
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
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
